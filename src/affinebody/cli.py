"""Config-driven experiment runner.

One JSON config describes one run; flags only select the config, output
directory, seed, and verbosity.  Every command prints a one-line summary
and writes machine-readable artifacts to the output directory.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import dynamics, io, phase, quantum
from .checks import check_brackets, check_decomposition, geodesic_cross_check
from .errors import AffineBodyError, ConfigError
from .schema import ARRAY, Key, table, walk


# ---------------------------------------------------------------------------
# commands: config values in; (artifact writer, artifact, summary, code) out


def _cmd_simulate(model, potential, initial, numerics):
    t_end = numerics.pop("t_end")
    traj = dynamics.integrate(model, potential, initial, t_end,
                              dynamics.StepControl(**numerics))
    return io.write_trajectory_csv, traj, (
        f"simulate: kind={model.kind} samples={len(traj.times)} "
        f"energy_drift={traj.energy_drift:.3e} "
        f"casimir_drift={traj.casimir_drift:.3e}"), 0


def _cmd_geodesic(model, initial, numerics):
    tol = numerics.pop("tolerance")
    report = geodesic_cross_check(model, **initial, **numerics)
    verdict = "PASS" if report["max_error"] < tol else "FAIL"
    report.update(tolerance=tol, verdict=verdict)
    return io.write_json, report, (
        f"geodesic: max_error={report['max_error']:.3e} "
        f"verdict={verdict}"), 0 if verdict == "PASS" else 1


def _cmd_classify(m, n, A, energy):
    result = dynamics.classify_planar(m, n, A=A, energy=energy)
    report = {
        "verdict": result.verdict, "m": m, "n": n, "A": A,
        "energy": result.energy, "x_min": result.x_min,
        "turning_points": list(result.turning_points)
        if result.turning_points is not None else None,
        "period": result.period,
    }
    extra = "" if result.period is None else f" period={result.period:.6g}"
    return io.write_json, report, (
        f"classify: verdict={result.verdict} m={m:g} "
        f"n={n:g}{extra}"), 0


EIGENVECTOR_HEADER = ("level", "node", "m_row", "k_col", "real", "imag")


def _eigenvector_rows(op, spec):
    """One row (level, node, m_row, k_col, real, imag) per amplitude; the
    unknowns of a node are its block entries in row-major order.  A full
    grid's node is its row-major index in the points^n lattice."""
    dim, levels = spec.eigenvectors.shape
    ds, dj = op.block_shape
    level, idx = np.divmod(np.arange(levels * dim), dim)
    node, entry = np.divmod(idx, ds * dj)
    if op.lattice is not None:
        node = op.lattice[node]
    amp = spec.eigenvectors.T.ravel()
    return np.column_stack([level, node, entry // dj, entry % dj,
                            amp.real, amp.imag])


def _cmd_spectrum(problem, count=5, eigenvectors=False):
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
        if eigenvectors:
            io.write_csv(os.path.splitext(path)[0] + "_vectors.csv",
                         EIGENVECTOR_HEADER, _eigenvector_rows(op, spec))

    shown = ", ".join(f"{v:.9g}" for v in spec.eigenvalues[:5])
    return write, report, (
        f"spectrum: count={count} eigenvalues=[{shown}] "
        f"max_residual={float(np.max(spec.residuals)):.3e}"), 0


def _cmd_check_brackets(seed, trials, n):
    report = check_brackets(np.random.default_rng(seed), trials, n)
    return io.write_json, report, (
        f"check-brackets: trials={trials} "
        f"max_residual={report['max_residual']:.3e} "
        f"verdict={report['verdict']}"), int(report["verdict"] != "PASS")


def _cmd_check_decomp(seed, trials, dims, cond_max):
    report = check_decomposition(np.random.default_rng(seed), trials, dims,
                                 cond_max)
    return io.write_json, report, (
        f"check-decomp: trials={trials} "
        f"max_reconstruction={report['max_reconstruction']:.3e} "
        f"max_orthogonality={report['max_orthogonality']:.3e} "
        f"verdict={report['verdict']}"), int(report["verdict"] != "PASS")


# ---------------------------------------------------------------------------
# entry point


def _command(name, function, artifact, target=None, **keys):
    """`function` with its config table: `keys`, defaulting from `target`,
    plus the `command` and `output` keys every config takes."""
    return function, table(
        target, command=Key((name,), None),
        output=Key({"path": Key(str, artifact)}, {}), **keys)


_MODEL = Key(phase.MODEL_KEYS, build=phase.ModelSpec)
_POTENTIAL = Key(phase.POTENTIAL_KEYS, {}, build=phase.PotentialSpec)
_SEED = Key(int, 0, ">= 0")

# one table per command: each key's type, default, range and scope
COMMANDS = {
    "simulate": _command(
        "simulate", _cmd_simulate, "trajectory.csv", model=_MODEL,
        potential=_POTENTIAL,
        initial=Key(table(phase.ReducedState, q=Key(ARRAY), p=Key(ARRAY),
                          M=Key(ARRAY), N=Key(ARRAY)),
                    build=phase.ReducedState),
        numerics=Key(table(
            dynamics.StepControl, t_end=Key(float), step=Key(float),
            method=Key(dynamics.METHODS),
            record_every=Key(int, when=("method", ("rk4",))),
            rtol=Key(float, range="> 0", when=("method", ("rk45",))),
            atol=Key(float, range="> 0", when=("method", ("rk45",)))))),
    # the velocity extraction is coded for AffAff only
    "geodesic": _command(
        "geodesic", _cmd_geodesic, "geodesic.json",
        model=Key(table(phase.ModelSpec, kind=Key(("AffAff",)),
                        A=Key(float), B=Key(float)), build=phase.ModelSpec),
        initial=Key({"phi0": Key(ARRAY), "Omega": Key(ARRAY)}),
        numerics=Key(table(
            geodesic_cross_check, t_end=Key(float), step=Key(float),
            samples=Key(int, range=">= 2"),
            tolerance=Key(float, 1e-6, "> 0")))),
    "classify": _command(
        "classify", _cmd_classify, "classify.json", dynamics.classify_planar,
        m=Key(float), n=Key(float), A=Key(float, range="> 0"),
        energy=Key(float)),
    "spectrum": _command(
        "spectrum", _cmd_spectrum, "spectrum.json", _cmd_spectrum,
        problem=Key(table(
            quantum.SpectralProblem, n=Key(int),
            model=Key(table(phase.ModelSpec, **phase.MODEL_KEYS,
                            hbar=Key(float)), build=phase.ModelSpec),
            alpha_label=Key(float), beta_label=Key(float),
            coordinate=Key(quantum.COORDINATES), q_min=Key(float),
            q_max=Key(float), points=Key(int), potential=_POTENTIAL,
            use_amended_transform=Key(bool)),
            build=quantum.SpectralProblem),
        count=Key(int), eigenvectors=Key(bool)),
    "check-brackets": _command(
        "check-brackets", _cmd_check_brackets, "brackets.json",
        check_brackets, seed=_SEED, trials=Key(int, range=">= 1"),
        n=Key(int, range=">= 1")),
    "check-decomp": _command(
        "check-decomp", _cmd_check_decomp, "decomp.json",
        check_decomposition, seed=_SEED, trials=Key(int, range=">= 1"),
        dims=Key([int], range=">= 1"), cond_max=Key(float, range=">= 1")),
}


@functools.cache
def _parser():
    """The flag parser, built once per process: parsing leaves it as it
    was, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="affine-body",
        description="affinely-rigid body experiment runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        command, keys = COMMANDS[args.command]
        values = walk(keys, io.load_json(args.config), "config")
        if args.seed is not None:
            if "seed" not in keys:
                raise ConfigError(f"'--seed' does not apply to {args.command}"
                                  ": it draws no random numbers")
            values["seed"] = keys["seed"].parse(args.seed, "'--seed'")
        del values["command"]
        path = os.path.join(args.output_dir, values.pop("output")["path"])
        os.makedirs(args.output_dir, exist_ok=True)
        write, artifact, summary, code = command(**values)
        write(path, artifact)
        if not args.quiet:
            print(f"{summary} artifact={path}")
        return code
    except AffineBodyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
