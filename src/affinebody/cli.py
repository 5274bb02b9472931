"""Config-driven experiment runner.

One JSON config describes one run; flags only select the config, output
directory, seed, and verbosity.  Every command prints a one-line summary
and writes machine-readable artifacts to the output directory.
"""

import argparse
import os
import sys

import numpy as np

from . import dynamics, io, kinematics, phase, poisson, quantum
from .errors import AffineBodyError, ConfigError
from .phase import json_number as _number

BRACKET_TOL = 1e-9
DECOMP_RECON_TOL = 1e-10
DECOMP_ORTHO_TOL = 1e-12
DECOMP_SV_TOL = 1e-9

COMMANDS = ("simulate", "geodesic", "classify", "spectrum",
            "check-brackets", "check-decomp")


def _check_keys(block, required, optional, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{where} missing keys: {missing}")
    unknown = [k for k in block if k not in required and k not in optional]
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")
    return block


def _numbers(value, where):
    """A finite float scalar or array from a config value."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must be finite")
    return arr


def _flag(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _artifact_path(config, output_dir, default):
    out_block = _check_keys(config.get("output", {}), (), ("path",),
                            "output")
    path = out_block.get("path", default)
    if not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    return os.path.join(output_dir, path)


def _state_from_json(block):
    _check_keys(block, ("q", "p"), ("M", "N"), "initial")
    q = _numbers(block["q"], "initial.q")
    p = _numbers(block["p"], "initial.p")
    n = q.size
    M = _numbers(block.get("M", np.zeros((n, n))), "initial.M")
    N = _numbers(block.get("N", np.zeros((n, n))), "initial.N")
    return phase.ReducedState(q, p, M=M, N=N)


def _numerics_from_json(block, optional):
    """The numerics block as keyword values, each of its declared type."""
    _check_keys(block, ("t_end",), optional, "numerics")
    return {key: value if key == "method"
            else _number(value, f"numerics.{key}",
                         int if key in ("record_every", "samples") else float)
            for key, value in block.items()}


# ---------------------------------------------------------------------------
# commands: each returns (artifact writer, artifact, summary line, exit code)


def _cmd_simulate(config):
    _check_keys(config, ("model", "initial", "numerics"),
                ("command", "potential", "output", "seed"), "config")
    model = phase.ModelSpec.from_json(config["model"])
    potential = phase.PotentialSpec.from_json(config.get("potential"))
    state0 = _state_from_json(config["initial"])
    numerics = _numerics_from_json(
        config["numerics"], ("step", "method", "record_every", "rtol", "atol"))
    t_end = numerics.pop("t_end")
    traj = dynamics.integrate(model, potential, state0, t_end,
                              dynamics.StepControl(**numerics))
    return io.write_trajectory_csv, traj, (
        f"simulate: kind={model.kind} samples={len(traj.times)} "
        f"energy_drift={traj.energy_drift:.3e} "
        f"casimir_drift={traj.casimir_drift:.3e}"), 0


def _cmd_geodesic(config):
    _check_keys(config, ("model", "initial", "numerics"),
                ("command", "output", "seed"), "config")
    model = phase.ModelSpec.from_json(config["model"])
    init = _check_keys(config["initial"], ("phi0", "Omega"), (), "initial")
    phi0 = _numbers(init["phi0"], "initial.phi0")
    Omega = _numbers(init["Omega"], "initial.Omega")
    numerics = _numerics_from_json(config["numerics"],
                                   ("step", "samples", "tolerance"))
    tol = numerics.pop("tolerance", 1e-6)
    report = geodesic_cross_check(model, phi0, Omega, **numerics)
    verdict = "PASS" if report["max_error"] < tol else "FAIL"
    report["tolerance"] = tol
    report["verdict"] = verdict
    return io.write_json, report, (
        f"geodesic: max_error={report['max_error']:.3e} "
        f"verdict={verdict}"), 0 if verdict == "PASS" else 1


def _cmd_classify(config):
    _check_keys(config, ("m", "n"),
                ("command", "A", "energy", "output", "seed"), "config")
    m = _number(config["m"], "m")
    n_coupling = _number(config["n"], "n")
    A = _number(config.get("A", 1.0), "A")
    energy = config.get("energy")
    result = dynamics.classify_planar(m, n_coupling, A=A,
                                      energy=None if energy is None
                                      else _number(energy, "energy"))
    report = {
        "verdict": result.verdict, "m": m, "n": n_coupling, "A": A,
        "energy": result.energy, "x_min": result.x_min,
        "turning_points": list(result.turning_points)
        if result.turning_points is not None else None,
        "period": result.period,
    }
    extra = "" if result.period is None else f" period={result.period:.6g}"
    return io.write_json, report, (
        f"classify: verdict={result.verdict} m={m:g} "
        f"n={n_coupling:g}{extra}"), 0


EIGENVECTOR_HEADER = ("level", "node", "m_row", "k_col", "real", "imag")


def _eigenvector_rows(op, spec):
    """One row (level, node, m_row, k_col, real, imag) per amplitude; the
    unknowns of a node are its block entries in row-major order."""
    dim, levels = spec.eigenvectors.shape
    ds, dj = op.block_shape
    level, idx = np.divmod(np.arange(levels * dim), dim)
    node, entry = np.divmod(idx, ds * dj)
    amp = spec.eigenvectors.T.ravel()
    return np.column_stack([level, node, entry // dj, entry % dj,
                            amp.real, amp.imag])


def _cmd_spectrum(config):
    _check_keys(config, ("problem",),
                ("command", "count", "eigenvectors", "output", "seed"),
                "config")
    pb = dict(_check_keys(
        config["problem"], ("n", "model"),
        ("alpha_label", "beta_label", "coordinate", "q_min", "q_max",
         "points", "boundary", "potential", "use_amended_transform",
         "half_integer_labels"), "problem"))
    pb["model"] = phase.ModelSpec.from_json(pb["model"])
    if "potential" in pb:
        pb["potential"] = phase.PotentialSpec.from_json(pb["potential"])
    for key in ("n", "points", "alpha_label", "beta_label", "q_min",
                "q_max"):
        if key in pb:
            pb[key] = _number(pb[key], f"problem.{key}",
                              int if key in ("n", "points") else float)
    for key in ("use_amended_transform", "half_integer_labels"):
        if key in pb:
            pb[key] = _flag(pb[key], f"problem.{key}")
    problem = quantum.SpectralProblem(**pb)
    count = _number(config.get("count", 5), "count", int)
    vectors = _flag(config.get("eigenvectors", False), "eigenvectors")
    op = quantum.build_reduced_hamiltonian(problem)
    spec = quantum.eigensolve(op, count)
    report = {
        "problem": problem.to_json(),
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "residuals": [float(r) for r in spec.residuals],
        "grid": {"q_min": problem.q_min, "q_max": problem.q_max,
                 "points": problem.points},
        "boundary": problem.boundary,
        "solver": spec.solver,
    }

    def write(path, artifact):
        io.write_json(path, artifact)
        if vectors:
            io.write_csv(os.path.splitext(path)[0] + "_vectors.csv",
                         EIGENVECTOR_HEADER, _eigenvector_rows(op, spec))

    shown = ", ".join(f"{v:.9g}" for v in spec.eigenvalues[:5])
    return write, report, (
        f"spectrum: count={count} eigenvalues=[{shown}] "
        f"max_residual={float(np.max(spec.residuals)):.3e}"), 0


def _cmd_check_brackets(config, rng):
    _check_keys(config, (), ("command", "trials", "n", "output", "seed"),
                "config")
    trials = _number(config.get("trials", 200), "trials", int)
    n = _number(config.get("n", 3), "n", int)
    report = check_brackets(rng, trials=trials, n=n)
    return io.write_json, report, (
        f"check-brackets: trials={trials} "
        f"max_residual={report['max_residual']:.3e} "
        f"verdict={report['verdict']}"), int(report["verdict"] != "PASS")


def _cmd_check_decomp(config, rng):
    _check_keys(config, (), ("command", "trials", "dims", "cond_max",
                             "output", "seed"), "config")
    trials = _number(config.get("trials", 1000), "trials", int)
    dims = config.get("dims", [2, 3])
    if not isinstance(dims, list) or not dims:
        raise ConfigError(f"dims must be a nonempty JSON array, got {dims!r}")
    dims = tuple(_number(d, "dims", int) for d in dims)
    cond_max = _number(config.get("cond_max", 1e6), "cond_max")
    report = check_decomposition(rng, trials=trials, dims=dims,
                                 cond_max=cond_max)
    return io.write_json, report, (
        f"check-decomp: trials={trials} "
        f"max_reconstruction={report['max_reconstruction']:.3e} "
        f"max_orthogonality={report['max_orthogonality']:.3e} "
        f"verdict={report['verdict']}"), int(report["verdict"] != "PASS")


# ---------------------------------------------------------------------------
# verification harnesses (shared with the test suite)


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
    control = dynamics.StepControl(method="rk4", step=step)
    traj = dynamics.integrate(model, potential, state0, t_end, control)
    max_err = 0.0
    ref = tp0
    for t in times:
        cfg = dynamics.geodesic_exponential(phi0, Omega, t)
        extracted, ref = dynamics.reduced_state_from_velocity(
            cfg.phi, Omega, model, reference=ref)
        k = int(np.argmin(np.abs(np.asarray(traj.times) - t)))
        integ = traj.state(k)
        for a, b in ((extracted.q, integ.q), (extracted.p, integ.p),
                     (extracted.M, integ.M), (extracted.N, integ.N)):
            max_err = max(max_err, float(np.max(np.abs(a - b))))
    return {"max_error": max_err, "t_end": t_end, "samples": samples,
            "step": step}


# ---------------------------------------------------------------------------
# entry point


# command -> (function, default artifact name); the check commands also
# take the random generator
_DISPATCH = {
    "simulate": (_cmd_simulate, "trajectory.csv"),
    "geodesic": (_cmd_geodesic, "geodesic.json"),
    "classify": (_cmd_classify, "classify.json"),
    "spectrum": (_cmd_spectrum, "spectrum.json"),
    "check-brackets": (_cmd_check_brackets, "brackets.json"),
    "check-decomp": (_cmd_check_decomp, "decomp.json"),
}
RANDOM_COMMANDS = ("check-brackets", "check-decomp")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="affine-body",
        description="affinely-rigid body experiment runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        try:
            config = io.load_json(args.config)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        declared = config.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, "
                f"invoked as {args.command!r}")
        seed = _number(config.get("seed", 0) if args.seed is None
                       else args.seed, "seed", int)
        command, default = _DISPATCH[args.command]
        path = _artifact_path(config, args.output_dir, default)
        extra = (np.random.default_rng(seed),) \
            if args.command in RANDOM_COMMANDS else ()
        os.makedirs(args.output_dir, exist_ok=True)
        write, artifact, summary, code = command(config, *extra)
        write(path, artifact)
        if not args.quiet:
            print(f"{summary} artifact={path}")
        return code
    except AffineBodyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
