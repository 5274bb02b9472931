"""Quantized reduced problems.

After Peter-Weyl separation of the attitude dependence, each spectral
problem is a matrix-valued Schrodinger operator on a grid of deformation
invariants.  The pair couplings act on the reduced amplitude f (a
(2s+1) x (2j+1) matrix) through the left/right spin actions
->S f = S f and <-S f = f S; the M-type combination is (<-S^j - ->S^s)
over sh^2 and the N-type is (<-S^j + ->S^s) over ch^2.

The Haar-measure weight is absorbed by default through the substitution
Phi = sqrt(P) Psi, which trades the first-order drift term of the radial
operator for an amended potential U = (d^2 sqrt(P)) / sqrt(P); the raw
weighted form is kept for cross-validation.
"""

from dataclasses import dataclass, field, replace

import numpy as np
# scipy is imported in the functions that call it, so that importing the
# package (and every command that does not use scipy) loads numpy only

from .errors import (ConfigError, ConvergenceFailure, GridTooCoarse,
                     InvalidLabel, SingularWeight)
from .phase import ModelSpec, PotentialSpec, pair_layout

COINCIDENCE_TOL = 1e-12
MIN_POINTS = 16
MAX_LABEL = 4
MAX_AXIS_POINTS_3D = 64
COORDINATES = ("dilatation", "shear", "full")


# ---------------------------------------------------------------------------
# spin algebra


@dataclass(frozen=True)
class SpinBlock:
    """Angular momentum matrices for one irreducible label."""

    label: float
    hbar: float
    matrices: tuple  # (J1, J2, J3) for n=3; a single 1x1 entry for n=2

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    def casimir(self):
        return sum(J @ J for J in self.matrices)


def _check_half_integer(s, name="s"):
    if not np.isfinite(s) or s < 0 or abs(2 * s - round(2 * s)) > 1e-12:
        raise InvalidLabel(f"{name} = {s} is not a nonnegative half-integer")
    return round(2 * s) / 2.0


def spin_matrices(s, hbar=1.0):
    """Ladder-operator construction in the basis m = s, s-1, ..., -s."""
    s = _check_half_integer(s)
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    # J+ raises m: nonzero entries one above the diagonal
    raise_amp = hbar * np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    Jp = np.zeros((dim, dim), dtype=complex)
    Jp[np.arange(dim - 1), np.arange(1, dim)] = raise_amp
    Jm = Jp.conj().T
    Jx = 0.5 * (Jp + Jm)
    Jy = -0.5j * (Jp - Jm)
    Jz = hbar * np.diag(m).astype(complex)
    return SpinBlock(label=s, hbar=hbar, matrices=(Jx, Jy, Jz))


def planar_generator(label, hbar=1.0):
    """1x1 generator of SO(2) for Fourier label m."""
    return np.array([[hbar * float(label)]], dtype=complex)


_EPS3 = {(0, 1): (2, 1.0), (0, 2): (1, -1.0), (1, 2): (0, 1.0)}


def skew_generator(block, a, b):
    """S_ab = eps_abc J_c for n = 3 blocks."""
    if a == b:
        return np.zeros_like(block.matrices[0])
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    c, s = _EPS3[(a, b)]
    return sign * s * block.matrices[c]


# ---------------------------------------------------------------------------
# measure weights


def haar_weight(q):
    """P(q) = prod over ordered pairs i != j of |sh(q_i - q_j)|."""
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    diffs = q[..., :, None] - q[..., None, :]
    off = ~np.eye(n, dtype=bool)
    terms = np.where(off, np.abs(np.sinh(diffs)), 1.0)
    return np.prod(terms, axis=(-2, -1))


def lebesgue_weight(Q):
    """P(Q) = prod over ordered pairs a != b of |Q_a^2 - Q_b^2|."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1]
    diffs = Q[..., :, None] ** 2 - Q[..., None, :] ** 2
    off = ~np.eye(n, dtype=bool)
    terms = np.where(off, np.abs(diffs), 1.0)
    return np.prod(terms, axis=(-2, -1))


# ---------------------------------------------------------------------------
# spectral problems


@dataclass(frozen=True)
class SpectralProblem:
    n: int
    model: ModelSpec
    alpha_label: float = 0.0     # spatial label s
    beta_label: float = 0.0      # material label j
    coordinate: str = "dilatation"   # dilatation | shear | full
    q_min: float = -1.0
    q_max: float = 1.0
    points: int = 64
    potential: PotentialSpec = field(default_factory=PotentialSpec.none)
    use_amended_transform: bool = True

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigError("n must be 2 or 3")
        if self.coordinate not in COORDINATES:
            raise ConfigError(f"unknown coordinate {self.coordinate!r}")
        if self.q_max <= self.q_min:
            raise ConfigError("q_max must exceed q_min")
        if self.points < MIN_POINTS:
            raise GridTooCoarse(f"points = {self.points} < {MIN_POINTS}")
        s = _check_half_integer(self.alpha_label, "s")
        j = _check_half_integer(self.beta_label, "j")
        if abs((j - s) - round(j - s)) > 1e-12:
            raise InvalidLabel("j - s must be an integer")
        if self.n == 3 and (s > MAX_LABEL or j > MAX_LABEL):
            raise ConfigError(f"angular labels limited to {MAX_LABEL}")
        kind = self.model.kind
        if self.boundary == "periodic":
            # the wrapped edge joins q_max to q_min: whole turns apart
            turns = (self.q_max - self.q_min) / (2.0 * np.pi)
            if abs(round(turns) - turns) > 1e-9 * turns:
                raise ConfigError(f"q_max - q_min must be a whole number of "
                                  f"periods 2 pi: q_min = {self.q_min:g}, "
                                  f"q_max = {self.q_max:g}")
        if kind == "TrigUn" and self.coordinate == "full":
            raise ConfigError("full angle grids are not supported")
        if self.coordinate == "shear":
            if self.n != 2:
                raise ConfigError("shear coordinate exists for n = 2 only")
            if kind == "DAlembert":
                raise ConfigError(
                    "the d'Alembert kinetic energy does not separate in "
                    "the shear coordinate")
        if self.coordinate == "dilatation" and kind == "DAlembert":
            raise ConfigError(
                "the d'Alembert kinetic energy does not separate in the "
                "dilatational coordinate")
        if self.coordinate == "full":
            if kind == "DAlembert" and self.q_min <= 0.0:
                raise ConfigError("d'Alembert grids need Q_min > 0")
            if self.n == 3 and self.points > MAX_AXIS_POINTS_3D:
                raise ConfigError(
                    f"n = 3 grids limited to {MAX_AXIS_POINTS_3D}^3 nodes")

    @property
    def boundary(self):
        # TrigUn angles wrap round; every other grid ends in Dirichlet walls
        return "periodic" if self.model.kind == "TrigUn" else "dirichlet"

    @property
    def block_shape(self):
        if self.n == 2:
            return (1, 1)
        ds = int(round(2 * self.alpha_label)) + 1
        dj = int(round(2 * self.beta_label)) + 1
        return (ds, dj)

    def to_json(self):
        return dict(vars(self), potential=self.potential.to_json(),
                    model=dict(self.model.to_json(), hbar=self.model.hbar))


@dataclass
class ReducedOperator:
    """Assembled grid operator.

    With a weight vector the operator is self-adjoint under the weighted
    inner product; without one it is symmetric outright (amended variables
    or weight-free problems).  block_dim reports the angular multiplicity
    of every grid unknown of a dilatational problem.
    """

    matrix: object               # csr_array, for every coordinate
    weight: np.ndarray | None
    nodes: np.ndarray            # (npts,) or (npts, n) coordinate values
    block_shape: tuple
    block_dim: int
    problem: SpectralProblem
    meta: dict
    lattice: np.ndarray | None = None   # full grids: row-major index of
                                        # each node in the points^n lattice
    floor: float | None = None   # no level lies below it

    @property
    def dim(self):
        return self.matrix.shape[0]


def angular_shift(model, n, s, j):
    """Constant block shift of the metric-restricted kinetic terms
    c_rho |rho|^2 + c_tau |tau|^2 of `model` at size n.  For n = 3,
    |rho|^2 and |tau|^2 act as the spin Casimirs hbar^2 s(s+1) and
    hbar^2 j(j+1); for n = 2 as the squares hbar^2 s^2 and hbar^2 j^2 of
    the SO(2) generators hbar s and hbar j."""
    if n not in (2, 3):
        raise ConfigError("n must be 2 or 3")
    s = _check_half_integer(s, "s")
    j = _check_half_integer(j, "j")
    # c_rho and c_tau depend on neither n nor B, and at B = 0 every size
    # has its constants
    c_rho, c_tau = replace(model, B=0.0).kinetic_constants(1)[4:]
    if n == 2:
        return model.hbar ** 2 * (c_rho * s * s + c_tau * j * j)
    return model.hbar ** 2 * (c_rho * s * (s + 1) + c_tau * j * (j + 1))


def _grid_nodes(q_min, q_max, points, boundary):
    if boundary == "dirichlet":
        h = (q_max - q_min) / (points + 1)
        return q_min + h * np.arange(1, points + 1), h
    h = (q_max - q_min) / points
    return q_min + h * np.arange(points), h


def _amended_potential_nodes(kind, coords):
    """U = (sum_a d_a^2 sqrt(P)) / sqrt(P) evaluated per grid node."""
    npts, n = coords.shape
    U = np.zeros(npts)
    for a in range(n):
        w = np.zeros(npts)
        wprime = np.zeros(npts)
        for b in range(n):
            if b == a:
                continue
            if kind == "DAlembert":
                d = coords[:, a] ** 2 - coords[:, b] ** 2
                w += 2.0 * coords[:, a] / d
                wprime += -2.0 * (coords[:, a] ** 2 + coords[:, b] ** 2) \
                    / d ** 2
            else:
                d = coords[:, a] - coords[:, b]
                w += 1.0 / np.tanh(d)
                wprime += -1.0 / np.sinh(d) ** 2
        U += w ** 2 + wprime
    return U


def _block_couplings(problem):
    """Block operators (Bm^2, Bp^2) of the pairs a < b, in the order of
    phase.pair_layout(n), as real dense blocks: the squares of the spin
    actions are real for every label."""
    ds, dj = problem.block_shape
    hbar = problem.model.hbar
    if problem.n == 2:
        gens = [(planar_generator(problem.alpha_label, hbar),
                 planar_generator(problem.beta_label, hbar))]
    else:
        sblk = spin_matrices(problem.alpha_label, hbar)
        jblk = spin_matrices(problem.beta_label, hbar)
        gens = [(skew_generator(sblk, a, b), skew_generator(jblk, a, b))
                for a, b in zip(*pair_layout(3).iu)]
    out = []
    for Ss, Sj in gens:
        left = np.kron(np.eye(ds), Sj.T)     # f S^j on row-major flattening
        right = np.kron(Ss, np.eye(dj))      # S^s f
        Bm = left - right
        Bp = left + right
        out.append(((Bm @ Bm).real, (Bp @ Bp).real))
    return out


def _chamber(points, n):
    """Multi-indices i_1 < ... < i_n of the points^n lattice, in row-major
    order, and the row-major lattice index of each."""
    from itertools import chain, combinations
    idx = np.fromiter(chain.from_iterable(combinations(range(points), n)),
                      dtype=np.intp).reshape(-1, n)
    return idx, idx @ points ** np.arange(n - 1, -1, -1)


def _node_blocks(problem, q):
    """One (bdim, bdim) block per node q (npts, n): the potential, the
    angular shift and the couplings cM Bm^2 / dm^2 and cN Bp^2 / dn^2 of
    the pairs a < b.  The denominators are sh and ch of the half
    differences (sin and cos for TrigUn) or Q_a -+ Q_b for d'Alembert.  A
    pair whose block is zero is dropped, so a node on a coincidence is
    singular only under a nonvanishing coupling.  A single column q, the
    dilatation, has no pairs and scalar blocks."""
    model = problem.model
    kind = model.kind
    pot = problem.potential
    npts, n = q.shape
    shift = angular_shift(model, problem.n, problem.alpha_label,
                          problem.beta_label)
    if n == 1:
        # a box acts through the Dirichlet walls of a dilatation grid
        v = np.zeros(npts) if pot.kind == "box" else pot.value(q)
        return (v + shift)[:, None, None]
    ia, ib = pair_layout(n).iu
    if kind == "DAlembert":
        dm, dn = q[:, ia] - q[:, ib], q[:, ia] + q[:, ib]
        v = pot.value(np.log(q))
    else:
        sm, cm = (np.sin, np.cos) if kind == "TrigUn" else (np.sinh, np.cosh)
        x = 0.5 * (q[:, ia] - q[:, ib])
        dm, dn = sm(x), cm(x)
        v = pot.value(q)
    blocks = (v + shift)[:, None, None] * np.eye(np.prod(problem.block_shape))
    cM, cN = model.kinetic_constants(n)[2:4]
    for pair, (Bm2, Bp2) in enumerate(_block_couplings(problem)):
        for d, B2, c, where in ((dm, Bm2, cM, "a coincidence"),
                                (dn, Bp2, cN, "an antipodal pair")):
            if not np.any(B2):
                continue
            if np.any(np.abs(d[:, pair]) < COINCIDENCE_TOL):
                raise SingularWeight(
                    f"grid node on {where} with a nonvanishing coupling")
            blocks += (c / d[:, pair] ** 2)[:, None, None] * B2
    return blocks


def build_reduced_hamiltonian(problem):
    """Assemble the grid operator for one reduced spectral problem.

    Every coordinate is a chamber lattice: the points nodes of a 1-d grid,
    or the nodes q_1 < ... < q_n of a full grid.  The Weyl group permutes q
    together with the spin labels, so a regular full-grid amplitude is
    fixed by its values on one chamber and vanishes on the walls
    q_a = q_b; wall and out-of-box nodes are Dirichlet zeros, and a
    periodic axis wraps its last edge round to node 0.  The kinetic part
    is the flux stencil -c sum_u (1/P) d_u (P d_u) over the axis steps u
    and, on full grids, the step (1, ..., 1) that carries the cQ
    (sum_a d_a)^2 term, with P taken at edge midpoints.  In amended
    variables P = 1 and the amended potential U is added instead.  The raw
    form takes P = 0 on an edge to a node where P vanishes, a full-grid
    wall or a shear end on x = 0: the flux P d Psi vanishes there with no
    boundary value on Psi.

    The operator's floor is the lowest Gershgorin bound of the node blocks
    (exact for the 1 x 1 blocks of n = 2), plus the lowest c_axis U in
    amended variables.  The kinetic stencil is positive semidefinite, so
    by Weyl's inequality no level lies below it; eigensolve uses it only
    once a Cholesky factor has certified it.
    """
    import scipy.sparse as sp
    model = problem.model
    kind, n, pts = model.kind, problem.n, problem.points
    cL, cQ = model.kinetic_constants(n)[:2]
    hb2 = model.hbar ** 2
    axis, h = _grid_nodes(problem.q_min, problem.q_max, pts, problem.boundary)
    coordinate = problem.coordinate
    full = coordinate == "full"
    dims = n if full else 1
    idx, lattice = _chamber(pts, dims)
    coords = axis[idx]
    npts = len(idx)
    amended = problem.use_amended_transform

    # per coordinate: the coefficients of the axis steps and of the step
    # (1, ..., 1), the weight P of the lattice coordinates, and U
    c_diag, weight_at, U, narrow = 0.0, None, 0.0, False
    if coordinate == "dilatation":
        c_axis = hb2 * (cL / n + cQ)
        pot = problem.potential
        half = 0.5 * pot.params[0] if pot.kind == "box" else np.inf
        narrow = problem.q_min < -half - 1e-12 or problem.q_max > half + 1e-12
    elif coordinate == "shear":
        trig = kind == "TrigUn"
        c_axis, U = 2.0 * hb2 * cL, -1.0 if trig else 1.0
        weight_at = lambda x: (np.sin if trig else np.sinh)(x[..., 0]) ** 2
    else:
        c_axis, c_diag = hb2 * cL, hb2 * cQ
        weight_at = lebesgue_weight if kind == "DAlembert" else haar_weight
        if amended:
            U = _amended_potential_nodes(kind, coords)
    blocks = _node_blocks(problem, coords * [0.5, -0.5]
                          if coordinate == "shear" else coords)
    # a box acts through the walls of a dilatation grid, and through
    # V(qbar) at the nodes of the others: infinite at a node outside it
    if narrow or np.isinf(blocks).any():
        raise ConfigError("box potential narrower than the grid; "
                          "set the grid to the box width")
    raw = weight_at is not None and not amended
    weight = weight_at(coords) if raw else None
    if raw and np.any(weight <= 0.0):
        raise SingularWeight("weight vanishes on a grid node")
    centre = np.diagonal(blocks, axis1=1, axis2=2)
    radius = np.sum(np.abs(blocks), axis=2) - np.abs(centre)
    floor = float(np.min(centre - radius)
                  + (0.0 if raw else np.min(c_axis * U)))

    # symmetric form: diag(P) H for the raw weighted form, H itself
    # otherwise; each edge is stored from its lower node, at both ends
    diag = np.zeros(npts) + (0.0 if raw else c_axis * U)
    steps = [(c_axis, u) for u in np.eye(dims, dtype=int)]
    if c_diag != 0.0:
        steps.append((c_diag, np.ones(dims, dtype=int)))
    strides = pts ** np.arange(dims - 1, -1, -1)
    ends = np.r_[problem.q_min, axis, problem.q_max]
    edges = []
    for coef, u in steps:
        nxt, prv = idx + u, idx - u
        if problem.boundary == "periodic":
            nxt, prv = nxt % pts, prv % pts
        wp = wm = 1.0
        if raw:
            # P vanishes on a wall, so no flux crosses an edge that ends
            # on a node of zero weight; other ends outside are Dirichlet
            wp, wm = (weight_at(coords + 0.5 * h * d)
                      * (weight_at(ends[far + 1]) > 0.0)
                      for d, far in ((u, nxt), (-u, prv)))
        diag = diag + coef * (wp + wm) / h ** 2
        r = np.flatnonzero(np.all(np.diff(nxt, axis=1) > 0, axis=1)
                           & (nxt[:, -1] < pts))
        edges.append((r, np.searchsorted(lattice, nxt[r] @ strides),
                      np.broadcast_to(-coef * wp / h ** 2, npts)[r]))
    r, c, e = (np.concatenate(part) for part in zip(*edges))
    rows = np.concatenate([r, c, np.arange(npts)])
    cols = np.concatenate([c, r, np.arange(npts)])
    vals = np.concatenate([e, e, diag])
    if raw:
        vals = vals / weight[rows]

    # the kinetic part acts alike on every block entry; every node stores
    # one block pattern, the diagonal and the entries nonzero at any node
    bdim = blocks.shape[1]
    bi, bj = np.nonzero(np.any(blocks != 0.0, axis=0)
                        | np.eye(bdim, dtype=bool))
    k = np.arange(bdim)
    node = np.arange(npts)[:, None]
    H = sp.csr_array((
        np.concatenate([np.repeat(vals, bdim), blocks[:, bi, bj].ravel()]),
        (np.concatenate([(rows[:, None] * bdim + k).ravel(),
                         (node * bdim + bi).ravel()]),
         np.concatenate([(cols[:, None] * bdim + k).ravel(),
                         (node * bdim + bj).ravel()]))),
        shape=(npts * bdim,) * 2)

    ds, dj = problem.block_shape
    return ReducedOperator(
        matrix=H, weight=None if weight is None else np.repeat(weight, bdim),
        nodes=coords if full else axis,
        block_shape=(ds, dj) if full else (1, 1),
        block_dim=ds * dj if coordinate == "dilatation" else 1,
        problem=problem, meta={"step": h}, lattice=lattice if full else None,
        floor=floor)


# ---------------------------------------------------------------------------
# eigensolution


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray     # (dim, k), columns normalized
    residuals: np.ndarray
    weight: np.ndarray | None = None
    solver: dict = field(default_factory=dict)   # path, dim, nnz

    def gram_residual(self):
        V = self.eigenvectors
        if self.weight is None:
            G = V.conj().T @ V
        else:
            G = V.conj().T @ (self.weight[:, None] * V)
        return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def _canonical_order(vals, vecs, tol=1e-10):
    """Deterministic handling of degenerate clusters: fix each vector's
    overall phase, then sort cluster members lexicographically."""
    k = vals.size
    for i in range(k):
        v = vecs[:, i]
        lead = np.argmax(np.abs(v) > 1e-8) if np.any(np.abs(v) > 1e-8) else 0
        ph = v[lead]
        if abs(ph) > 0:
            vecs[:, i] = v * (abs(ph) / ph)
    order = np.arange(k)
    scale = max(np.max(np.abs(vals)), 1.0)
    i = 0
    while i < k:
        jj = i
        while jj + 1 < k and abs(vals[jj + 1] - vals[i]) < tol * scale:
            jj += 1
        if jj > i:
            keys = [tuple(np.round(np.real(vecs[:, order[t]]), 8))
                    for t in range(i, jj + 1)]
            sub = sorted(range(i, jj + 1), key=lambda t: keys[t - i])
            order[i:jj + 1] = order[sub]
        i = jj + 1
    return vals[order], vecs[:, order]


def _shift_invert_banded(mat, band, shift):
    """The solve (H - shift I)^-1 x through a banded Cholesky factor of the
    symmetric part of `mat`, whose nonzeros lie within `band` of the
    diagonal; None when the factor fails, which it does unless every level
    of H lies above `shift`."""
    import scipy.linalg
    import scipy.sparse.linalg as spla
    dim = mat.shape[0]
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    offset = np.abs(rows - mat.indices)
    # LAPACK lower band storage: H[i, j] at [i - j, j] for i >= j; an
    # off-diagonal entry and its transpose land on one slot, half each, and
    # stored zeros farther out than `band` are cut off
    size = (band + 1) * dim
    ab = np.bincount(offset * dim + np.minimum(rows, mat.indices),
                     np.where(offset == 0, 1.0, 0.5) * mat.data,
                     minlength=size)[:size].reshape(band + 1, dim)
    ab[0] -= shift
    try:
        factor = scipy.linalg.cholesky_banded(ab, overwrite_ab=True,
                                              lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    return spla.LinearOperator(
        (dim, dim), dtype=float,
        matvec=lambda x: scipy.linalg.cho_solve_banded(
            (factor, True), x, check_finite=False))


def eigensolve(operator, count):
    """Lowest eigenpairs of an assembled operator.

    Weighted operators are symmetrized by the similarity transform
    D^{1/2} H D^{-1/2} with D = diag(weight); eigenvectors are returned in
    the original variables, orthonormal under the weighted product.  An
    unweighted ReducedOperator is assembled exactly symmetric, so the
    sparse path takes it as it is and averages only other operators with
    their adjoints.

    The solver follows the operator's structure, through the bandwidth b,
    the largest |i - j| of a nonzero.  A real sparse operator with b <= 1
    goes to LAPACK bisection and inverse iteration (path "tridiagonal").
    A sparse ReducedOperator with b^2 <= 2 dim, as every n = 2 full grid
    has, goes to ARPACK in shift-invert mode about a shift just below its
    floor, with a banded Cholesky factor of H - shift I as the inverse
    (path "banded"); the factor exists only if the shift lies below every
    level, so its success certifies the shift.  When it fails, and for
    every other sparse operator, ARPACK runs on the lowest algebraic
    levels (path "sparse").  A dense array, or a count ARPACK cannot reach
    (count >= dim - 1), goes to dense eigh (path "dense").  A failure
    raises ConvergenceFailure.  Spectrum.solver records the path,
    dimension and nnz, and on the banded path the bandwidth and shift.
    """
    import scipy.linalg
    import scipy.sparse as sp
    reduced = isinstance(operator, ReducedOperator)
    mat = operator.matrix if reduced else operator
    weight = operator.weight if reduced else None
    symmetric = reduced and weight is None
    dim = mat.shape[0]
    if count < 1 or count > dim:
        raise ConfigError("count must lie in [1, dim]")

    if weight is not None:
        if np.any(weight <= 0.0):
            raise SingularWeight("weight must be positive for eigensolution")
        rw = np.sqrt(weight)
        if sp.issparse(mat):
            mat = sp.diags_array(rw) @ mat @ sp.diags_array(1.0 / rw)
        else:
            mat = rw[:, None] * mat / rw[None, :]

    sparse = sp.issparse(mat)
    if sparse:
        rows, cols = mat.nonzero()
        band = int(np.max(np.abs(rows - cols), initial=0))
    if sparse and band <= 1 and not np.iscomplexobj(mat):
        path = "tridiagonal"
        offdiag = 0.5 * (mat.diagonal(1) + mat.diagonal(-1))
        try:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                mat.diagonal(), offdiag, select="i",
                select_range=(0, count - 1))
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceFailure(
                f"tridiagonal eigensolver failed: {exc}")
    elif sparse and count < dim - 1:
        import scipy.sparse.linalg as spla
        # a fixed start vector: ARPACK's random one makes the run time, and
        # the basis of a degenerate level, differ between identical calls
        start = np.random.default_rng(0).standard_normal(dim)
        inverse = None
        floor = operator.floor if reduced else None
        if floor is not None and band * band <= 2 * dim:
            # just below the floor: a level on it leaves H - shift definite
            shift = floor - 1e-6 * max(abs(floor), 1.0)
            inverse = _shift_invert_banded(mat, band, shift)
        try:
            if inverse is None:
                path = "sparse"
                vals, vecs = spla.eigsh(
                    mat if symmetric else 0.5 * (mat + mat.conj().T),
                    k=count, which="SA", v0=start.astype(mat.dtype))
            else:
                path = "banded"
                vals, vecs = spla.eigsh(
                    mat, k=count, sigma=shift, which="LM", OPinv=inverse,
                    v0=start)
        except spla.ArpackError as exc:
            raise ConvergenceFailure(f"sparse eigensolver failed: {exc}")
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        path = "dense"
        A = mat.toarray() if sparse else np.asarray(mat)
        A = 0.5 * (A + A.conj().T)
        try:
            vals, vecs = scipy.linalg.eigh(A,
                                           subset_by_index=(0, count - 1))
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"dense eigensolver failed: {exc}")

    scale = max(np.max(np.abs(vals)), 1e-30)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0) / scale

    vals = np.real(vals)
    vals, vecs = _canonical_order(vals, vecs)
    if weight is not None:
        vecs = vecs / np.sqrt(weight)[:, None]
        norms = np.sqrt(np.einsum("ik,i,ik->k", vecs.conj(), weight,
                                  vecs).real)
        vecs = vecs / norms[None, :]
    solver = {"path": path, "dim": dim,
              "nnz": int(mat.nnz if sparse else np.count_nonzero(mat))}
    if path == "banded":
        solver.update(bandwidth=band, shift=float(shift))
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=res,
                    weight=weight, solver=solver)
