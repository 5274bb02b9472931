"""Reference codings kept for the tests to compare the library against.

The library takes H and its gradient from `dynamics.EomKernel`.  The
matrix-form codings here are independent codings of the same formulas, on
skew n x n matrices rather than packed pair vectors: the closed-form
gradients of every model kind, and the explicit lattice form of the AffAff
energy.  The textbook RK4 step and the sequential attitude propagation are
the step-by-step forms of `dynamics.integrate_batch` and
`dynamics.reconstruct_attitudes`.
"""

import numpy as np

from affinebody.dynamics import ORTHOGONALITY_TOL, EomKernel, Trajectory
from affinebody.errors import ConfigError, ShapeMismatch, StepFailure
from affinebody.phase import _pair_denominators


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
