"""Reference codings kept for the tests to compare the library against.

The library takes H and its gradient from `dynamics.EomKernel`.  The
matrix-form codings here are independent codings of the same formulas, on
skew n x n matrices rather than packed pair vectors: the closed-form
gradients of every model kind, and the explicit lattice form of the AffAff
energy.  The textbook RK4 step and the sequential attitude propagation are
the step-by-step forms of `dynamics.integrate_batch` and
`dynamics.reconstruct_attitudes`, and the Dormand-Prince stage loop on
the numpy kernel, with its step-size controller, is the adaptive form of
`dynamics.integrate`; dopri_floats is its attempt in the emitted code's
order of operations, on Python floats.  AllocatingKernel and
integrate_batch are the batch kernel and RK4 loop as they were before
`dynamics` wrote its elementwise results into aligned workspaces: every
result a fresh numpy temporary.
The same operations in the same order, they are the bit-for-bit oracle of
`dynamics.integrate_batch` and `EomKernel.energies`.  The full-grid
operator is assembled
here the way the library once did, on the whole points^n box with
Kronecker products, keeping every off-wall node of all n! Weyl chambers;
the weighted inner product is a trapezoid-rule coding of the norm that
`quantum.eigensolve` takes by node sums, and its amended potential is
summed term by term at every node (amended_potential), where the library
takes the constant it sums to.  The squared norms of rho and tau,
with their gradients, are the conserved quantities of the metric-restricted
kinds, and beta is the pbar coefficient of the free-streaming velocity.
random_configuration is the one-matrix-at-a-time draw that
`checks.random_configurations` stacks.
"""

import numpy as np

from affinebody import dynamics, phase, quantum
from affinebody.dynamics import (_DP_A, _DP_B5, _DP_E, _RK4_B,
                                 ORTHOGONALITY_TOL, EomKernel, Trajectory)
from affinebody.errors import (ConfigError, DegenerateInertia, ShapeMismatch,
                               StepFailure, UnknownObservable)
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


def rk45_step(fun, y, h):
    """Fifth-order step and its error estimate h max|_DP_E @ K|, taken from
    the stages so that it does not cancel against y; seven evaluations of
    fun."""
    ks = np.empty((7, y.size))
    ks[0] = fun(y).ravel()
    for i in range(1, 7):
        ks[i] = fun(y + h * (_DP_A[i, :i] @ ks[:i]).reshape(y.shape)).ravel()
    y5 = y + h * (_DP_B5 @ ks).reshape(y.shape)
    return y5, h * np.max(np.abs(_DP_E @ ks))


def dopri_floats(fun, y, h):
    """The fifth-order result y5 and f(y5) of one Dormand-Prince attempt
    on a list of Python floats, with fun from such lists to such lists:
    each stage input formed as the emitted attempt writes it, y + h * (c0
    * k0 + c1 * k1 + ...) over the nonzero weights of _DP_A (whose last
    row is _DP_B5), summed left to right."""
    ks = [fun(y)]
    for row in _DP_A[1:].tolist():
        terms = [(c, k) for c, k in zip(row, ks) if c]
        x = []
        for j, yj in enumerate(y):
            total = terms[0][0] * terms[0][1][j]
            for c, k in terms[1:]:
                total += c * k[j]
            x.append(yj + h * total)
        ks.append(fun(x))
    return x, ks[-1]


class AllocatingKernel(EomKernel):
    """EomKernel with the allocating _pairs, _gradients, _flow and
    energies it had before the aligned workspaces: every elementwise
    result is a new numpy temporary."""

    def _pairs(self, h, u, Q=None):
        k = self.layout.count
        d = np.empty((2 * k,) + h.shape[1:])
        if self.form == "exp":
            np.matmul(self.Q_map, Q, out=d)
        else:
            self.sm(h, out=d[:k])
            self.cm(h, out=d[k:])
        near = np.abs(d if self.form == "sin" else h) \
            < 0.5 * phase.DEGENERACY_TOL
        if not np.count_nonzero(near):
            return d, self.coef / (d * d)
        if len(near) == k:
            near = np.concatenate([near, np.zeros_like(near)])
        if np.any(near[k:] & (u[k:] != 0.0)):
            raise DegenerateInertia(
                "antipodal invariants q_a - q_b = pi with N coupling")
        if np.any(near[:k] & (u[:k] != 0.0)):
            raise DegenerateInertia(
                "coincident deformation invariants with nonzero M coupling")
        return d, np.where(near, 0.0,
                           self.coef / np.where(near, 1.0, d) ** 2)

    def _gradients(self, q, p, u, dHdp, force):
        k = self.layout.count
        h = self.pair_map @ q
        if self.form == "exp":
            Q = np.exp(q)
            d, weights = self._pairs(h[:k], u, Q)
            g = u * weights
            np.multiply(p / (Q * Q), self.momentum, out=dHdp)
            np.multiply(self.q_weights @ (g * g * d), Q, out=force)
            force += p * dHdp
            if self.slope is not None:
                force -= self.slope(h[k:]) / self.n
            return g
        d, weights = self._pairs(h[:k], u)
        g = u * weights
        v = g * g
        pulls = (v[:k] - v[k:]) * (d[:k] * d[k:])
        if self.slope is not None:
            pulls = np.concatenate([pulls, self.slope(h[k:])])
        np.matmul(self.q_weights, pulls, out=force)
        np.matmul(self.momentum, p, out=dHdp)
        if self.coupling is not None:
            g = g + self.coupling @ u
        return g

    def _flow(self, z, dz=None):
        n, k = self.n, self.layout.count
        u = z[2 * n:]
        if dz is None:
            dz = np.empty(z.shape)
        g = self._gradients(z[:n], z[n:2 * n], u, dz[:n], dz[n:2 * n])
        if self.partners.size:
            tail = z.shape[1:]
            products = u.reshape((2, k, 1) + tail) \
                * g.take(self.partners, axis=0).reshape((k, -1) + tail)
            np.matmul(self.spin_signs, products.reshape((-1,) + tail),
                      out=dz[2 * n:])
        else:
            dz[2 * n:] = 0.0
        return dz, g

    def energies(self, ys):
        n = self.n
        ys = np.asarray(ys, dtype=float)
        z = ys.reshape(-1, ys.shape[-1]).T
        q, p, u = z[:n], z[n:2 * n], z[2 * n:]
        dHdp, force = np.empty((2,) + p.shape)
        g = self._gradients(q, p, u, dHdp, force)
        energy = 0.5 * (np.sum(p * dHdp, axis=0) + np.sum(u * g, axis=0)) \
            + self.potential.dilatational_value(q.mean(axis=0))
        lattice = AllocatingKernel(phase.ModelSpec(kind="AffAff"),
                                   phase.PotentialSpec(), n)
        _, weights = lattice._pairs(lattice.pair_map[:-1] @ q, u)
        dp = self.layout.incidence @ p
        casimir = np.sum(dp * dp, axis=0) / n \
            + np.sum(u * u * weights, axis=0)
        shape = ys.shape[:-1]
        return energy.reshape(shape), casimir.reshape(shape)


def rk4_batch(rhs, y0, h, weights, marks):
    """The RK4 loop of `dynamics.integrate_batch` on a fresh
    component-major copy of the batch, a new state every step."""
    z = y0.reshape(-1, y0.shape[-1]).T.copy()
    stages = np.empty((4,) + z.shape)
    k1, k2, k3, k4 = stages
    flat = stages.reshape(4, -1)
    half = 0.5 * h
    samples = [y0]
    with np.errstate(all="ignore"):
        for start, stop in zip([0, *marks], marks):
            for _ in range(stop - start):
                rhs(z.T, k1)
                rhs((z + half * k1).T, k2)
                rhs((z + half * k2).T, k3)
                rhs((z + h * k3).T, k4)
                z = z + (weights @ flat).reshape(z.shape)
            samples.append(z.T.reshape(y0.shape))
    return samples


def integrate_batch(model, potential, y0, t_end, step, n, record_every=None):
    """`dynamics.integrate_batch` on more than one state, through
    AllocatingKernel and rk4_batch."""
    kernel = AllocatingKernel(model, potential, n)
    nsteps = dynamics.step_count(t_end, step)
    h = t_end / nsteps
    every = record_every or nsteps
    marks = [*range(every, nsteps, every), nsteps]
    y0 = np.asarray(y0, dtype=float)
    samples = rk4_batch(kernel.rhs, y0, h, h * _RK4_B, marks)
    times = h * np.array([0, *marks])
    if record_every is None:
        times[-1] = t_end
    samples = np.array(samples).reshape(times.shape + y0.shape)
    finite = np.isfinite(samples.reshape(len(times), -1)).all(axis=1)
    if not finite.all():
        raise StepFailure("RK4 state turned non-finite at "
                          f"t = {times[np.argmin(finite)]:g}")
    return times, samples


def integrate_rk45(model, potential, state0, t_end, control):
    """The adaptive controller of `dynamics.integrate` on rk45_step and
    the numpy kernel: (times, samples, rejected attempts), before the
    TrigUn angles are wrapped."""
    y = dynamics.pack_state(state0)
    fun = EomKernel(model, potential, state0.n).rhs
    t = 0.0
    times = [t]
    samples = [y]
    rejected = 0
    h = min(control.step, dynamics.MAX_STEP, t_end)
    scale = max(1.0, float(np.max(np.abs(y))))
    while t < t_end - 1e-15 * t_end:
        h = min(h, t_end - t)
        with np.errstate(all="ignore"):
            ynew, err = rk45_step(fun, y, h)
        tol = control.atol + control.rtol * scale
        if err <= tol:
            t += h
            y = ynew
            times.append(t)
            samples.append(y)
            scale = max(1.0, float(np.max(np.abs(y))))
            factor = 2.0 if err == 0.0 else min(
                2.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            h = min(dynamics.MAX_STEP, h * factor)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
        if h < dynamics.MIN_STEP:
            raise StepFailure(
                f"adaptive step underflowed below {dynamics.MIN_STEP:g} "
                f"at t = {t:g}")
    return np.array(times), np.array(samples), rejected


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


def amended_potential(kind, coords):
    """U = (sum_a d_a^2 sqrt(P)) / sqrt(P) at the nodes coords (npts, n),
    summed term by term: with w_a = d_a log sqrt(P), U = sum_a (w_a^2 +
    d_a w_a).  The sums cancel to the constant that
    `quantum.build_reduced_hamiltonian` takes in closed form."""
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
            hb2 * cL * amended_potential(kind, coords))
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


def random_configuration(rng, n, cond_max=1e6):
    """Random orientation-preserving matrix with a bounded condition
    number, drawn and factored one matrix at a time; a raw matrix with a
    zero singular value is drawn again."""
    while True:
        raw = rng.standard_normal((n, n))
        u, s, vt = np.linalg.svd(raw)
        if s[-1] <= 0:
            continue
        # compress the singular-value spread into the allowed range
        log_s = np.log(s)
        spread = log_s[0] - log_s[-1]
        budget = np.log(cond_max) * rng.uniform(0.05, 0.95)
        if spread > budget:
            log_s = log_s[-1] + (log_s - log_s[-1]) * budget / spread
        s = np.exp(log_s + rng.uniform(-1.0, 1.0))
        phi = u @ np.diag(s) @ vt
        if np.linalg.det(phi) < 0:
            u[:, -1] *= -1.0
            phi = u @ np.diag(s) @ vt
        return phi
