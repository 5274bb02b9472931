"""Verification harnesses: random configurations, states and
observables, and the checks of the two-polar decomposition, the reduced
Lie-Poisson bracket and the exact geodesics of the AffAff model.  The
check commands of the CLI and the test suite both run them.
"""

import types

import numpy as np

from . import dynamics, kinematics, phase, poisson

BRACKET_TOL = 1e-9
DECOMP_RECON_TOL = 1e-10
DECOMP_ORTHO_TOL = 1e-12
DECOMP_SV_TOL = 1e-9


def random_configuration(rng, n, cond_max=1e6):
    """Random orientation-preserving matrix with a bounded condition
    number."""
    return random_configurations(rng, [n], cond_max)[n][0]


def random_configurations(rng, dims, cond_max=1e6):
    """Random orientation-preserving matrices with a bounded condition
    number, one n x n matrix for each n of dims in turn, returned as
    {n: (count, n, n) stack} with each stack in draw order.

    The draws are those of random_configuration for each n, in the same
    order; the arithmetic runs on the stacks.  random_configuration draws
    a raw matrix again when its SVD finds a zero singular value.  Here the
    SVDs come after all the draws, so the RNG goes back to its state at
    the start, the draws before that matrix and the matrix itself are
    replayed, and the rest is drawn anew."""
    start = rng.bit_generator.state
    draws = [_draw_configuration(rng, n) for n in dims]
    order = np.asarray(dims)
    stacks = {}
    redraw = len(dims)
    for n in dict.fromkeys(dims):
        members = np.flatnonzero(order == n)
        raw, budget, shift = (np.array(column) for column in
                              zip(*(draws[k] for k in members)))
        u, s, vt = np.linalg.svd(raw)
        redraw = min([redraw, *members[s[:, -1] <= 0]])
        # a member to be redrawn has log 0 = -inf; its result is dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            # compress the singular-value spread into the allowed range
            log_s = np.log(s)
            spread = log_s[:, 0] - log_s[:, -1]
            budget *= np.log(cond_max)
            squeeze = spread > budget
            low = log_s[squeeze, -1:]
            log_s[squeeze] = low + (log_s[squeeze] - low) \
                * budget[squeeze, None] / spread[squeeze, None]
            s = np.exp(log_s + shift[:, None])
            phi = (u * s[:, None, :]) @ vt
            flip = np.linalg.det(phi) < 0
        u[flip, :, -1] *= -1.0
        phi[flip] = (u[flip] * s[flip, None, :]) @ vt[flip]
        stacks[n] = phi
    if redraw == len(dims):
        return stacks
    rng.bit_generator.state = start
    for n in dims[:redraw]:
        _draw_configuration(rng, n)
    rng.standard_normal((dims[redraw],) * 2)
    tail = random_configurations(rng, dims[redraw:], cond_max)
    return {n: np.concatenate([phi[:np.count_nonzero(order[:redraw] == n)],
                               tail.get(n, phi[:0])])
            for n, phi in stacks.items()}


def _draw_configuration(rng, n):
    """The draws of one random configuration: a raw matrix, the share of
    log cond_max its singular values may spread over, and their shift."""
    return (rng.standard_normal((n, n)), rng.uniform(0.05, 0.95),
            rng.uniform(-1.0, 1.0))


def random_state(rng, n, scale=1.0, min_gap=0.05):
    """Random nondegenerate reduced state: q descending in [-1.5, 1.5],
    redrawn until every gap exceeds min_gap, for at most 1000 draws (a draw
    passes with a chance that falls off exponentially in n); after those,
    min_gap plus the spacings of uniform draws over the room left."""
    for _ in range(1000):
        q = np.sort(rng.uniform(-1.5, 1.5, n))[::-1].copy()
        gaps = q[:-1] - q[1:]
        if n == 1 or np.min(gaps) > min_gap:
            break
    else:
        room = max(3.0 - (n - 1) * min_gap, 0.0)
        q = (np.sort(rng.uniform(0.0, room, n)) + min_gap * np.arange(n)
             - 1.5)[::-1].copy()
    p = rng.standard_normal(n) * scale
    M = rng.standard_normal((n, n)) * scale
    N = rng.standard_normal((n, n)) * scale
    return phase.ReducedState(q, p, M=M - M.T, N=N - N.T)


def random_linear_observable(rng, n):
    CM = rng.standard_normal((n, n))
    CN = rng.standard_normal((n, n))
    return poisson.LinearObservable(
        n=n, c0=rng.standard_normal(),
        cq=rng.standard_normal(n), cp=rng.standard_normal(n),
        CM=CM - CM.T, CN=CN - CN.T)


def check_brackets(rng, trials=200, n=3):
    """Antisymmetry, Jacobi, and Leibniz residuals of the reduced bracket
    over random observables and states.  The trials are drawn one after
    another and then stacked, so that each bracket runs once on all of
    them."""
    draws = [(random_linear_observable(rng, n), random_linear_observable(rng, n),
              random_linear_observable(rng, n), random_state(rng, n))
             for _ in range(trials)]
    *observables, states = zip(*draws)
    F, G, H = (_stacked_observable(column) for column in observables)
    state = _stacked_state(states)

    def bracket(A, B):
        return poisson.bracket_values(A, B, state)

    anti = bracket(F, G) + bracket(G, F)
    # inner brackets of linear observables are again linear, so the
    # Jacobi identity can be evaluated without finite differences
    jacobi = (bracket(F, poisson.bracket_observable(G, H))
              + bracket(G, poisson.bracket_observable(H, F))
              + bracket(H, poisson.bracket_observable(F, G)))
    leibniz = bracket(poisson.ProductObservable(F, G), H) - (
        F.value(state) * bracket(G, H) + G.value(state) * bracket(F, H))
    max_anti, max_jacobi, max_leibniz = (
        float(np.max(np.abs(r), initial=0.0)) for r in (anti, jacobi, leibniz))
    worst = max(max_anti, max_jacobi, max_leibniz)
    return {
        "trials": trials, "n": n,
        "max_antisymmetry": max_anti, "max_jacobi": max_jacobi,
        "max_leibniz": max_leibniz, "max_residual": worst,
        "tolerance": BRACKET_TOL,
        "verdict": "PASS" if worst < BRACKET_TOL else "FAIL",
    }


def check_decomposition(rng, trials=1000, dims=(2, 3), cond_max=1e6):
    """Two-polar and polar reconstruction residuals over random
    configurations, with singular values checked against an independent
    eigen-decomposition of phi^T phi.  The configurations are drawn one
    after another and then stacked by n, so that each n takes one
    decomposition of each kind."""
    stacks = random_configurations(
        rng, [dims[k % len(dims)] for k in range(trials)], cond_max)
    max_recon = max_ortho = max_sv = 0.0
    for n, phi in stacks.items():
        scale = _norms(phi)
        tp = kinematics.two_polar(phi)
        pol = kinematics.polar_decompose(phi)
        eye = np.eye(n)
        max_recon = max(max_recon,
                        np.max(_norms(tp.reconstruct() - phi) / scale),
                        np.max(_norms(pol.reconstruct() - phi) / scale))
        max_ortho = max(max_ortho, *(
            np.max(_norms(np.swapaxes(X, -1, -2) @ X - eye))
            for X in (tp.L, tp.R, pol.U)))
        # independent oracle: sqrt of the Green tensor spectrum
        ev = np.linalg.eigvalsh(np.swapaxes(phi, -1, -2) @ phi)
        oracle = np.sqrt(np.sort(ev)[:, ::-1])
        sv = np.sort(np.exp(tp.q))[:, ::-1]
        max_sv = max(max_sv, np.max(np.max(np.abs(sv - oracle), axis=-1)
                                    / np.maximum(oracle[:, 0], 1.0)))
    ok = (max_recon < DECOMP_RECON_TOL and max_ortho < DECOMP_ORTHO_TOL
          and max_sv < DECOMP_SV_TOL)
    return {
        "trials": trials, "dims": list(dims), "cond_max": cond_max,
        "max_reconstruction": max_recon, "max_orthogonality": max_ortho,
        "max_singular_value_error": max_sv,
        "tolerances": {"reconstruction": DECOMP_RECON_TOL,
                       "orthogonality": DECOMP_ORTHO_TOL,
                       "singular_values": DECOMP_SV_TOL},
        "verdict": "PASS" if ok else "FAIL",
    }


def _norms(x):
    """Frobenius norm of each matrix of a stack (..., n, n), taken as
    np.linalg.norm takes it of one matrix: the root of the dot product of
    its flattened entries with themselves."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def _stacked_observable(observables):
    """Linear observables as one, with a leading trial axis on each
    coefficient."""
    return poisson.LinearObservable(observables[0].n, *(
        np.array([getattr(o, a) for o in observables])
        for a in ("c0", "cq", "cp", "CM", "CN")))


def _stacked_state(states):
    """Reduced states as one object with a leading trial axis on each of
    the attributes that observables and brackets read."""
    q, p, m_upper, n_upper = (np.array([getattr(s, a) for s in states])
                              for a in ("q", "p", "m_upper", "n_upper"))
    layout = phase.pair_layout(states[0].n)
    return types.SimpleNamespace(q=q, p=p, m_upper=m_upper, n_upper=n_upper,
                                 M=layout.skew(m_upper), N=layout.skew(n_upper))


def geodesic_cross_check(model, phi0, Omega, t_end, step=1e-3, samples=11):
    """Compare the reduced state along phi(t) = exp(Omega t) phi0 against
    direct integration of the reduced equations of motion."""
    state0, tp0 = dynamics.reduced_state_from_velocity(phi0, Omega, model)
    potential = phase.PotentialSpec.none()
    times = np.linspace(0.0, t_end, samples)
    # record only the compared states when they fall on whole steps
    every, rest = divmod(dynamics.step_count(t_end, step), samples - 1)
    control = dynamics.StepControl(method="rk4", step=step,
                                   record_every=1 if rest else every)
    traj = dynamics.integrate(model, potential, state0, t_end, control)
    max_err = 0.0
    ref = tp0
    for t in times:
        # compare at the integrated time nearest t, which misses t by up
        # to half a step when the samples do not fall on whole steps
        k = int(np.argmin(np.abs(traj.times - t)))
        cfg = dynamics.geodesic_exponential(phi0, Omega, traj.times[k])
        extracted, ref = dynamics.reduced_state_from_velocity(
            cfg.phi, Omega, model, reference=ref)
        max_err = max(max_err, float(np.max(np.abs(
            dynamics.pack_state(extracted) - traj.samples[k]))))
    return {"max_error": max_err, "t_end": t_end, "samples": samples,
            "step": step}
