"""Verification harnesses: random configurations, states and
observables, and the checks of the two-polar decomposition, the reduced
Lie-Poisson bracket and the exact geodesics of the AffAff model.  The
check commands of the CLI and the test suite both run them.
"""

import numpy as np

from . import dynamics, kinematics, phase, poisson

BRACKET_TOL = 1e-9
DECOMP_RECON_TOL = 1e-10
DECOMP_ORTHO_TOL = 1e-12
DECOMP_SV_TOL = 1e-9


def random_configuration(rng, n, cond_max=1e6):
    """Random orientation-preserving matrix with a bounded condition
    number."""
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


def random_state(rng, n, scale=1.0, min_gap=0.05):
    """Random nondegenerate reduced state."""
    while True:
        q = np.sort(rng.uniform(-1.5, 1.5, n))[::-1].copy()
        gaps = q[:-1] - q[1:]
        if n == 1 or np.min(gaps) > min_gap:
            break
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
    over random observables and states."""
    max_anti = 0.0
    max_jacobi = 0.0
    max_leibniz = 0.0
    for _ in range(trials):
        F = random_linear_observable(rng, n)
        G = random_linear_observable(rng, n)
        H = random_linear_observable(rng, n)
        state = random_state(rng, n)
        fg = poisson.poisson_bracket(F, G, state)
        gf = poisson.poisson_bracket(G, F, state)
        max_anti = max(max_anti, abs(fg + gf))
        # inner brackets of linear observables are again linear, so the
        # Jacobi identity can be evaluated without finite differences
        gh = poisson.bracket_observable(G, H)
        hf = poisson.bracket_observable(H, F)
        fg_obs = poisson.bracket_observable(F, G)
        jac = (poisson.poisson_bracket(F, gh, state)
               + poisson.poisson_bracket(G, hf, state)
               + poisson.poisson_bracket(H, fg_obs, state))
        max_jacobi = max(max_jacobi, abs(jac))
        FG = poisson.ProductObservable(F, G)
        lhs = poisson.poisson_bracket(FG, H, state)
        rhs = (F.value(state) * poisson.poisson_bracket(G, H, state)
               + G.value(state) * poisson.poisson_bracket(F, H, state))
        max_leibniz = max(max_leibniz, abs(lhs - rhs))
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
    eigen-decomposition of phi^T phi."""
    max_recon = 0.0
    max_ortho = 0.0
    max_sv = 0.0
    for k in range(trials):
        n = dims[k % len(dims)]
        phi = random_configuration(rng, n, cond_max=cond_max)
        scale = np.linalg.norm(phi)
        tp = kinematics.two_polar(phi)
        max_recon = max(max_recon,
                        np.linalg.norm(tp.reconstruct() - phi) / scale)
        eye = np.eye(n)
        max_ortho = max(
            max_ortho,
            np.linalg.norm(tp.L.T @ tp.L - eye),
            np.linalg.norm(tp.R.T @ tp.R - eye))
        # independent oracle: sqrt of the Green tensor spectrum
        ev = np.linalg.eigvalsh(phi.T @ phi)
        oracle = np.sqrt(np.sort(ev)[::-1])
        sv = np.sort(np.exp(tp.q))[::-1]
        max_sv = max(max_sv,
                     np.max(np.abs(sv - oracle)) / max(oracle[0], 1.0))
        pol = kinematics.polar_decompose(phi)
        max_recon = max(max_recon,
                        np.linalg.norm(pol.reconstruct() - phi) / scale)
        max_ortho = max(max_ortho,
                        np.linalg.norm(pol.U.T @ pol.U - eye))
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
