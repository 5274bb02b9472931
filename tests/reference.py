"""Reference codings kept for the tests to compare the library against.

The library takes H and its gradient from `dynamics.EomKernel`.  The
matrix-form codings here are independent codings of the same formulas, on
skew n x n matrices rather than packed pair vectors: the closed-form
gradients of every model kind, and the explicit lattice form of the AffAff
energy.  The textbook RK4 step and the sequential attitude propagation are
the step-by-step forms of `dynamics.integrate_batch` and
`dynamics.reconstruct_attitudes`.  The full-grid operator is assembled
here the way the library once did, on the whole points^n box with
Kronecker products, keeping every off-wall node of all n! Weyl chambers;
the weighted inner product is a trapezoid-rule coding of the norm that
`quantum.eigensolve` takes by node sums.  The squared norms of rho and tau,
with their gradients, are the conserved quantities of the metric-restricted
kinds, and beta is the pbar coefficient of the free-streaming velocity.
"""

import numpy as np

from affinebody import phase, quantum
from affinebody.dynamics import ORTHOGONALITY_TOL, EomKernel, Trajectory
from affinebody.errors import (ConfigError, ShapeMismatch, StepFailure,
                               UnknownObservable)
from affinebody.phase import _pair_denominators
from affinebody.poisson import FunctionObservable, PhaseGradient


def potential_grad(potential, q):
    """dV/dq of a dilatational potential, batched over leading
    dimensions."""
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    qbar = q.mean(axis=-1)
    return np.broadcast_to(
        (potential.dilatational_slope(qbar) / n)[..., None], q.shape).copy()


def hamiltonian_affaff_lattice(model, potential, state):
    """Second, independent coding of the AffAff energy: the explicit
    lattice form with the 1/(2A) momentum sum and the -B/(2A(A+nB))
    trace correction, instead of the Casimir split."""
    if model.kind != "AffAff":
        raise ConfigError("lattice coding applies to AffAff only")
    q, p, M, N = state.q, state.p, state.M, state.N
    n = q.size
    A, B = model.A, model.B
    ptot = p.sum()
    inv_m, inv_n, _ = _pair_denominators("AffAff", q, M, N)
    value = 0.5 * np.sum(p ** 2) / A \
        - B * ptot ** 2 / (2.0 * A * (A + n * B)) \
        + np.sum(M ** 2 * inv_m - N ** 2 * inv_n) / (32.0 * A)
    return float(value + potential.value(q))


def beta(model, n):
    """beta = -alpha(alpha + nB)/B, so that dq/dt = p/alpha + pbar/beta
    with vanishing couplings; requires B != 0."""
    if model.B == 0.0:
        raise ConfigError("beta undefined at B = 0")
    al = model.alpha
    return -al * (al + n * model.B) / model.B


def squared_norm_observable(tag, n):
    """||rho||^2 or ||tau||^2 = (1/2) sum of squared entries."""
    if tag not in ("rho", "tau"):
        raise UnknownObservable(f"no squared-norm observable for {tag!r}")

    def value(state):
        mat = state.rho if tag == "rho" else state.tau
        return 0.5 * float(np.sum(mat ** 2))

    def grad(state):
        mat = state.rho if tag == "rho" else state.tau
        # d rho_ab / dM_ab = -1/2, d rho_ab / dN_ab = +1/2 and the value
        # counts each independent component once: sum_{a<b} rho_ab^2
        if tag == "rho":
            return PhaseGradient(np.zeros(n), np.zeros(n), -mat, mat)
        return PhaseGradient(np.zeros(n), np.zeros(n), -mat, -mat)

    return FunctionObservable(f"|{tag}|^2", value, grad)


def gradients(model, potential, q, p, M, N):
    """Closed-form gradients (dH/dq, dH/dp, dH/dM, dH/dN).

    dH/dM and dH/dN are skew matrices whose (a, b) entries, a < b, are the
    partials with respect to the independent upper components.  Batched
    over leading dimensions.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.shape[-1]
    kind = model.kind
    x = q[..., :, None] - q[..., None, :]
    off = ~np.eye(n, dtype=bool)

    if kind == "DAlembert":
        I = model.I
        inv_m, inv_n, _ = _pair_denominators(kind, q, M, N)
        GM = M * inv_m / (2.0 * I)
        GN = N * inv_n / (2.0 * I)
        dHdp = p * np.exp(-2.0 * q) / I
        Q = np.exp(q)
        dm = Q[..., :, None] - Q[..., None, :]
        dn = Q[..., :, None] + Q[..., None, :]
        bad = ~off | (inv_m == 0.0)
        cube_m = np.where(bad, 0.0, 1.0 / np.where(bad, 1.0, dm) ** 3)
        cube_n = np.where(off, 1.0 / dn ** 3, 0.0)
        pair_q = -0.5 * Q * np.sum(
            M ** 2 * cube_m + N ** 2 * cube_n, axis=-1) / I
        dHdq = -p ** 2 * np.exp(-2.0 * q) / I + pair_q \
            + potential_grad(potential, q)
        return dHdq, dHdp, GM, GN

    alpha = model.alpha
    inv_m, inv_n, sign_n = _pair_denominators(kind, q, M, N)
    GM = M * inv_m / (8.0 * alpha)
    GN = sign_n * N * inv_n / (8.0 * alpha)

    half = 0.5 * x
    if kind == "TrigUn":
        sm, cm = np.sin(half), np.cos(half)
    else:
        sm, cm = np.sinh(half), np.cosh(half)
    # d/dq_c of 1/sm^2(x/2) = -cm/sm^3 and of 1/cm^2(x/2) = -/+ sm/cm^3
    # (hyperbolic/trigonometric); removable-singularity masks reuse inv_m/inv_n
    grad_m = -cm * sm * inv_m ** 2
    grad_n = sm * cm * inv_n ** 2
    pair_q = np.sum(M ** 2 * grad_m + N ** 2 * grad_n, axis=-1) \
        / (16.0 * alpha)

    ptot = p.sum(axis=-1, keepdims=True)
    dHdp = (p - ptot / n) / alpha + 2.0 * ptot / model.trace_coefficient(n)
    dHdq = pair_q + potential_grad(potential, q)

    if kind == "AffMetr":
        cv = 1.0 / (2.0 * model.mu)
        GM = GM + cv * 0.5 * (M + N)
        GN = GN + cv * 0.5 * (M + N)
    elif kind == "MetrAff":
        cv = 1.0 / (2.0 * model.mu)
        GM = GM + cv * 0.5 * (M - N)
        GN = GN + cv * 0.5 * (N - M)
    elif kind == "MetrMetr":
        GM = GM + 0.25 * (M - N) / model.c + 0.25 * (M + N) / model.d
        GN = GN + 0.25 * (N - M) / model.c + 0.25 * (M + N) / model.d
    return dHdq, dHdp, GM, GN


def rk4_step(fun, y, h):
    k1 = fun(y)
    k2 = fun(y + 0.5 * h * k1)
    k3 = fun(y + 0.5 * h * k2)
    k4 = fun(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _project_rotation(L):
    """The rotation u vt nearest to L = u diag(s) vt, and max |s - 1|,
    how far L has left the rotation group (s is sorted descending)."""
    u, s, vt = np.linalg.svd(L)
    return u @ vt, max(s[0] - 1.0, 1.0 - s[-1])


def reconstruct_attitudes(model, trajectory, L0, R0):
    """Sequential attitude propagation: the reduced state is re-integrated
    from samples[0] jointly with L and R, one RK4 step after another, and
    L, R are re-projected onto the rotation group after every step."""
    n = trajectory.n
    L0 = np.asarray(L0, dtype=float)
    R0 = np.asarray(R0, dtype=float)
    if L0.shape != (n, n) or R0.shape != (n, n):
        raise ShapeMismatch("attitude seeds must be n x n")
    model_ = trajectory.model
    potential = trajectory.potential
    kernel = EomKernel(model_, potential, n)
    skew = kernel.layout.skew
    pairs = kernel.layout.count
    nn = n * n

    def joint_rhs(z):
        dy, g = kernel.flow(z[:-2 * nn])
        chi = skew(g[:pairs] - g[pairs:])
        theta = skew(g[:pairs] + g[pairs:])
        L = z[-2 * nn:-nn].reshape(n, n)
        R = z[-nn:].reshape(n, n)
        return np.concatenate([dy, (L @ chi).ravel(), (R @ theta).ravel()])

    times = trajectory.times
    attitudes = [(L0.copy(), R0.copy())]
    z = np.concatenate([trajectory.samples[0], L0.ravel(), R0.ravel()])
    substeps = max(1, trajectory.control.record_every)
    for k in range(1, len(times)):
        h = (times[k] - times[k - 1]) / substeps
        for _ in range(substeps):
            z = rk4_step(joint_rhs, z, h)
            L, drift_L = _project_rotation(z[-2 * nn:-nn].reshape(n, n))
            R, drift_R = _project_rotation(z[-nn:].reshape(n, n))
            resid = max(drift_L, drift_R)
            if resid > ORTHOGONALITY_TOL:
                raise StepFailure(f"orthogonality residual {resid:g} "
                                  "exceeded during attitude propagation")
            z[-2 * nn:-nn] = L.ravel()
            z[-nn:] = R.ravel()
        attitudes.append((L, R))
    return Trajectory(n=n, model=model_, potential=potential,
                      times=times, samples=trajectory.samples,
                      energy=trajectory.energy, casimir=trajectory.casimir,
                      control=trajectory.control, attitudes=attitudes)


def full_grid_all_chambers(problem):
    """The full-grid operator on every off-wall node of the points^n
    lattice: the box operator with the wall nodes q_a = q_b dropped.

    The ReducedOperator's `lattice` holds the row-major box index of each
    node.  Axis stencils are Kronecker products on the box; the cQ
    term is the flux form -(1/P) d_u (P d_u) along u = (1, ..., 1), with the
    weight taken at the midpoints x +- h u / 2.  The raw form takes that
    weight as 0 on every edge to a wall node, two of whose lattice indices
    are equal: the weight vanishes on the wall, and so does the flux.
    """
    import scipy.sparse as sp
    model = problem.model
    kind = model.kind
    n, pts = problem.n, problem.points
    # the constants of phase.kinetic_energy: cL sum p^2 + cQ (sum p)^2 and
    # cpl over ordered pairs, so 2 cpl over the pairs a < b
    if kind == "DAlembert":
        cL, cQ, cpl = 0.5 / model.I, 0.0, 1.0 / (8.0 * model.I)
    else:
        cL, cpl = 0.5 / model.alpha, 1.0 / (32.0 * model.alpha)
        cQ = 1.0 / model.trace_coefficient(n) - 0.5 / (n * model.alpha)
    hb2 = model.hbar ** 2
    axis, h = quantum._grid_nodes(problem.q_min, problem.q_max, pts,
                                  "dirichlet")
    grids = np.meshgrid(*[axis] * n, indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=-1)
    index = np.indices((pts,) * n).reshape(n, -1).T
    keep = np.flatnonzero(np.all(np.diff(np.sort(index, axis=1), axis=1) > 0,
                                 axis=1))
    coords = box[keep]
    weight_at = quantum.lebesgue_weight if kind == "DAlembert" \
        else quantum.haar_weight
    amended = problem.use_amended_transform
    eye_ax = sp.identity(pts, format="csr")

    def axis_op(mat1d, a):
        parts = [eye_ax] * n
        parts[a] = sp.csr_matrix(mat1d)
        out = parts[0]
        for part in parts[1:]:
            out = sp.kron(out, part, format="csr")
        return out

    def on_wall(ix):
        return np.any(np.diff(np.sort(ix, axis=1), axis=1) == 0, axis=1)

    def flux(u, shift):
        """-(1/P) d (P d) along the lattice step `u`; `shift` moves a node
        by one step on the box (zero rows past its edge)."""
        if amended:
            wp = wm = np.ones(len(box))
        else:
            wp = weight_at(box + 0.5 * h * u) * ~on_wall(index + u)
            wm = weight_at(box - 0.5 * h * u) * ~on_wall(index - u)
        S = sp.diags(wp + wm) - sp.diags(wp) @ shift - shift.T @ sp.diags(wp)
        return S.tocsr()[keep][:, keep] / h ** 2

    up = sp.diags(np.ones(pts - 1), 1)
    node_op = hb2 * cL * sum(
        flux(np.eye(n, dtype=int)[a], axis_op(up, a)) for a in range(n))
    if cQ != 0.0:
        diagonal = up
        for _ in range(n - 1):
            diagonal = sp.kron(diagonal, up, format="csr")
        node_op = node_op + hb2 * cQ * flux(np.ones(n, dtype=int), diagonal)
    if amended:
        node_op = node_op + sp.diags(
            hb2 * cL * quantum._amended_potential_nodes(kind, coords))
        weight = None
    else:
        weight = weight_at(coords)
        node_op = sp.diags(1.0 / weight) @ node_op

    # the pair denominators of the classical kinetic energy
    q = np.log(coords) if kind == "DAlembert" else coords
    zero = np.zeros((len(q), n, n))
    inv_m, inv_n, sign_n = _pair_denominators(kind, q, zero, zero)
    v_nodes = problem.potential.value(q)
    ds, dj = problem.block_shape
    eye_block = sp.identity(ds * dj, format="csr")
    shift_c = quantum.angular_shift(model, n, problem.alpha_label,
                                    problem.beta_label)
    H = sp.kron(node_op, eye_block, format="csr") + sp.kron(
        sp.diags(v_nodes + shift_c), eye_block, format="csr")
    for a, b, (Bm2, Bp2) in zip(*phase.pair_layout(n).iu,
                                quantum._block_couplings(problem)):
        H = H + sp.kron(sp.diags(2.0 * cpl * inv_m[:, a, b]),
                        sp.csr_matrix(Bm2))
        H = H + sp.kron(sp.diags(2.0 * sign_n * cpl * inv_n[:, a, b]),
                        sp.csr_matrix(Bp2))
    weight_out = None if weight is None else np.repeat(weight, ds * dj)
    return quantum.ReducedOperator(
        matrix=sp.csr_matrix(H), weight=weight_out, nodes=coords,
        block_shape=(ds, dj), block_dim=1, problem=problem,
        meta={"step": h}, lattice=keep)


def trig_weight(q):
    """Trigonometric analogue of the Haar weight: |sin| over ordered pairs."""
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    diffs = q[..., :, None] - q[..., None, :]
    off = ~np.eye(n, dtype=bool)
    terms = np.where(off, np.abs(np.sin(diffs)), 1.0)
    return np.prod(terms, axis=(-2, -1))


def _weight_values(weight_kind, coords):
    if weight_kind == "none":
        return np.ones(coords.shape[:-1] if coords.ndim > 1 else
                       coords.shape)
    if coords.ndim == 1:
        # one shear coordinate x corresponds to q = (x/2, -x/2)
        if weight_kind == "haar":
            return np.sinh(coords) ** 2
        if weight_kind == "trig":
            return np.sin(coords) ** 2
        raise ConfigError(f"1-d grids do not support {weight_kind!r}")
    if weight_kind == "haar":
        return quantum.haar_weight(coords)
    if weight_kind == "trig":
        return trig_weight(coords)
    if weight_kind == "lebesgue":
        return quantum.lebesgue_weight(coords)
    raise ConfigError(f"unknown weight kind {weight_kind!r}")


def inner_product(f1, f2, weight_kind, grid):
    """<f1|f2> = (1/(N_s N_j)) integral Tr(f1^+ f2) P, by trapezoid rule.

    grid is either a 1-d array of nodes of a single coordinate, or a
    sequence of axis-node arrays for a tensor grid.  Amplitudes carry the
    grid axes first, optionally followed by the (2s+1, 2j+1) matrix axes.
    """
    f1 = np.asarray(f1)
    f2 = np.asarray(f2)
    if f1.shape != f2.shape:
        raise ShapeMismatch("amplitudes must share a shape")
    if isinstance(grid, np.ndarray) and grid.ndim == 1:
        axes = [np.asarray(grid, dtype=float)]
        coords = axes[0]
    else:
        axes = [np.asarray(ax, dtype=float) for ax in grid]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack(mesh, axis=-1)
    grid_ndim = len(axes)
    grid_shape = tuple(ax.size for ax in axes)
    if f1.shape[:grid_ndim] != grid_shape:
        raise ShapeMismatch(
            f"amplitude grid axes {f1.shape[:grid_ndim]} do not match "
            f"the grid {grid_shape}")
    matrix_axes = f1.shape[grid_ndim:]
    if matrix_axes and len(matrix_axes) != 2:
        raise ShapeMismatch("matrix amplitudes need two trailing axes")
    weight = _weight_values(weight_kind, coords)
    if matrix_axes:
        integrand = np.einsum("...mk,...mk->...", f1.conj(), f2)
        norm = matrix_axes[0] * matrix_axes[1]
    else:
        integrand = f1.conj() * f2
        norm = 1
    integrand = integrand * weight
    trapz = getattr(np, "trapezoid", None) or np.trapz
    for ax in reversed(axes):
        integrand = trapz(integrand, x=ax, axis=grid_ndim - 1)
        grid_ndim -= 1
    return complex(integrand) / norm
