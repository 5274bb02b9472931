"""Matrix-form reference codings of the reduced Hamiltonian, kept for the
tests to compare the library against.

The library takes H and its gradient from `dynamics.EomKernel`.  These
are independent codings of the same formulas, on skew n x n matrices
rather than packed pair vectors: the closed-form gradients of every
model kind, and the explicit lattice form of the AffAff energy.
"""

import numpy as np

from affinebody.errors import ConfigError
from affinebody.phase import _check_trig_domain, _pair_denominators


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
    if kind == "TrigUn":
        _check_trig_domain(q)
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
