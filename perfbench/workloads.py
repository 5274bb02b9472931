"""Seeded inputs and the operations of the three workloads.

A workload is a list of operations.  One round runs them in order, one
call at a time, and waits for each result before the next (a closed loop
with a single client).  The inputs depend only on the seed and are made
once, before timing, so every round of a run repeats the same work.

Each operation has a `run` that calls the program and a `check` that
verifies the result outside the timed region and returns the work done
(steps, trials, state-steps) for the family figures.
"""

import json
import os
from contextlib import redirect_stderr
from io import StringIO

import numpy as np

from affinebody import cli, dynamics, kinematics, quantum
from affinebody.phase import ModelSpec, PotentialSpec

import checks

WORKLOADS = ("session", "ensemble", "spectra")
KINDS = ("DAlembert", "AffAff", "AffMetr", "MetrAff", "MetrMetr", "TrigUn")
DIMS = (2, 3)
COMMANDS = ("simulate", "geodesic", "classify", "spectrum", "check-brackets",
            "check-decomp")
PROBLEMS = ("dilatation", "metraff_s0", "metraff_s1", "shear_amended",
            "shear_raw", "grid2", "grid3")

# inertial constants, each scaled by the seed within +-5 %
BASE_CONSTANTS = {
    "DAlembert": {"I": 1.3},
    "AffAff": {"A": 1.3, "B": 0.4},
    "AffMetr": {"I": 0.7, "A": 1.1, "B": 0.2},
    "MetrAff": {"I": 1.0, "A": 0.6, "B": 0.1},
    "MetrMetr": {"a": 1.2, "b": 0.9, "c": 1.5, "d": 2.0},
    "TrigUn": {"A": 1.0, "B": 0.2},
}
# (momentum and coupling scale, minimum gap of q, q range) by n: states
# well away from coincident invariants.  Over the horizons below (t = 0.4)
# RK4 conserved energy and C2 to 2e-10 on 96,000 such states at step 0.002;
# over t = 1 some pairs close in and the drift reached 1e-5
# and more.  TrigUn angles stay inside (-pi, pi].
STATE_RANGES = {
    "DAlembert": {2: (0.2, 0.6, 0.6, 2.5), 3: (0.1, 0.7, 0.6, 3.0)},
    "other": {2: (0.2, 0.6, -1.0, 1.0), 3: (0.2, 0.45, -0.3, 1.5)},
}
RK4 = {"t_end": 0.4, "step": 0.001, "record_every": 10}
RK45 = {"t_end": 0.4, "step": 0.05, "method": "rk45"}
# TrigUn angle crossing pi: the Hamiltonian is 2 pi-periodic, but the
# program rejects it with exit 3.  Kept, with inputs fixed, as the one
# operation that fails in every round.
TRIGUN_CROSSING = {
    "model": {"kind": "TrigUn", "A": 1.0},
    "initial": {"q": [2.5, -0.5], "p": [3.0, 0.0]},
    "numerics": {"t_end": 2.0, "step": 0.01},
}
ENSEMBLE_BATCH = 1000
ENSEMBLE_STEP = 0.002
ENSEMBLE_T_END = 0.4
ENSEMBLE_SAMPLE = 16
GEODESIC = {"t_end": 1.0, "step": 0.001, "samples": 11, "tolerance": 1e-6}
ATTITUDE_RECORD = 100
PERIOD_STEPS = 800
ESCAPE_T_END = 30.0
ESCAPE_STEP = 0.02
DECOMP_TRIALS = 300
BRACKET_TRIALS = 40
# six levels: on the n = 3 grid the fifth and sixth lie 0.2 % apart, and
# asking eigsh for five makes its run time vary threefold between calls
SPECTRUM_COUNT = 6


class OpFailed(RuntimeError):
    """The program answered with an error exit code."""


class Op:
    __slots__ = ("family", "label", "run", "check", "expected_failure")

    def __init__(self, family, label, run, check, expected_failure=False):
        self.family = family
        self.label = label
        self.run = run
        self.check = check
        self.expected_failure = expected_failure


class Context:
    """Where a run writes its configs and reads the shipped ones."""

    def __init__(self, root, workdir, seed):
        self.root = root
        self.seed = seed
        self.configs = os.path.join(workdir, "configs")
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.configs, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)

    def write_config(self, name, config):
        path = os.path.join(self.configs, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def shipped(self, name):
        return os.path.join(self.root, "configs", name + ".json")


def build(workload, root, workdir, seed):
    """The operations of one workload, with inputs made from the seed."""
    ctx = Context(root, workdir, seed)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"session": session_ops, "ensemble": ensemble_ops,
            "spectra": spectra_ops}[workload](ctx, rng)


def run_cli(ctx, command, config_path):
    err = StringIO()
    with redirect_stderr(err):
        code = cli.main([command, "--config", config_path,
                         "--output-dir", ctx.out, "--quiet"])
    if code in (2, 3, 4):
        raise OpFailed(f"{command} exit {code}: {err.getvalue().strip()}")
    return code


# ---------------------------------------------------------------------------
# inputs


def model_block(kind, rng):
    block = {"kind": kind}
    for name, value in BASE_CONSTANTS[kind].items():
        block[name] = float(value * rng.uniform(0.95, 1.05))
    return block


def draw_states(rng, kind, n, count):
    """Packed states (count, dim) with sorted, well separated q."""
    scale, gap, qlo, qhi = STATE_RANGES[
        "DAlembert" if kind == "DAlembert" else "other"][n]
    k = n * (n - 1) // 2
    q = np.empty((count, n))
    todo = np.arange(count)
    while todo.size:
        cand = -np.sort(-rng.uniform(qlo, qhi, (todo.size, n)), axis=1)
        ok = np.min(cand[:, :-1] - cand[:, 1:], axis=1) >= gap
        q[todo[ok]] = cand[ok]
        todo = todo[~ok]
    rest = rng.standard_normal((count, n + 2 * k)) * scale
    return np.concatenate([q, rest], axis=1)


def potential_block(n, rng):
    if n == 2:
        return None
    return {"kind": "harmonic_well", "params": [float(0.5 * rng.uniform(0.95, 1.05))]}


def skew(upper, n):
    M = np.zeros((n, n))
    M[np.triu_indices(n, k=1)] = upper
    return (M - M.T).tolist()


def initial_block(y, n):
    k = n * (n - 1) // 2
    return {"q": y[:n].tolist(), "p": y[n:2 * n].tolist(),
            "M": skew(y[2 * n:2 * n + k], n), "N": skew(y[2 * n + k:], n)}


def random_rotation(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def draw_geodesic(rng):
    """(phi0, Omega) whose path exp(Omega t) phi0, t in [0, 1], keeps its
    singular values apart, where the reduced description holds."""
    while True:
        phi0 = (random_rotation(rng, 3) @ np.diag(np.exp(rng.uniform(-0.8, 0.8, 3)))
                @ random_rotation(rng, 3).T)
        Omega = rng.standard_normal((3, 3)) * 0.5
        logs = [np.log(np.linalg.svd(phi, compute_uv=False))
                for phi in checks.geodesic_path(phi0, Omega,
                                                np.linspace(0.0, 1.0, 21))]
        if min(np.min(-np.diff(s)) for s in logs) > 0.2:
            return phi0, Omega


def planar_minimum(m, n):
    x = np.linspace(0.01, 20.0, 20000)
    v = m ** 2 / (16 * np.sinh(0.5 * x) ** 2) - n ** 2 / (16 * np.cosh(0.5 * x) ** 2)
    return float(np.min(v))


def planar_cases(rng):
    """(m, n, energy): two bounded orbits below the escape level and one
    unbounded case."""
    cases = []
    for _ in range(2):
        m, n = rng.uniform(0.4, 0.8), rng.uniform(1.5, 2.2)
        cases.append((float(m), float(n),
                      float(rng.uniform(0.3, 0.7) * planar_minimum(m, n))))
    cases.append((float(rng.uniform(1.5, 2.2)), float(rng.uniform(0.4, 0.8)), None))
    return cases


# ---------------------------------------------------------------------------
# session


def session_ops(ctx, rng):
    ops = []
    for kind in KINDS:
        for n in DIMS:
            for numerics in (RK4, RK45):
                label = f"simulate.{kind}.n{n}.{numerics.get('method', 'rk4')}"
                y0 = draw_states(rng, kind, n, 1)[0]
                config = {"command": "simulate", "model": model_block(kind, rng),
                          "initial": initial_block(y0, n), "numerics": numerics,
                          "output": {"path": label + ".csv"}}
                pot = potential_block(n, rng)
                if pot is not None:
                    config["potential"] = pot
                ops.append(simulate_op(ctx, label, config, y0))
    config = dict(TRIGUN_CROSSING, command="simulate",
                  output={"path": "simulate.TrigUn.crossing.csv"})
    ops.append(simulate_op(ctx, "simulate.TrigUn.crossing", config,
                           np.array(config["initial"]["q"] + config["initial"]["p"]
                                    + [0.0, 0.0]), expected_failure=True))

    model = model_block("AffAff", rng)
    for i in range(2):
        phi0, Omega = draw_geodesic(rng)
        config = {"command": "geodesic", "model": model,
                  "initial": {"phi0": phi0.tolist(), "Omega": Omega.tolist()},
                  "numerics": GEODESIC, "output": {"path": f"geodesic{i}.json"}}
        ops.append(geodesic_op(ctx, f"geodesic.{i}",
                               ctx.write_config(f"geodesic{i}", config),
                               f"geodesic{i}.json"))
        ops.append(attitude_op(f"attitudes.{i}", model, phi0, Omega))
    ops.append(geodesic_op(ctx, "geodesic.shipped", ctx.shipped("geodesic_n3"),
                           "geodesic.json"))

    cases = planar_cases(rng)
    for i, (m, n, energy) in enumerate(cases):
        config = {"command": "classify", "m": m, "n": n,
                  "output": {"path": f"classify{i}.json"}}
        if energy is not None:
            config["energy"] = energy
        ops.append(planar_op(f"planar.{i}", m, n, energy))
        ops.append(classify_op(ctx, f"classify.{i}",
                               ctx.write_config(f"classify{i}", config),
                               f"classify{i}.json", m, n, energy, f"planar.{i}"))
    with open(ctx.shipped("classify_planar")) as fh:
        shipped = json.load(fh)
    ops.append(planar_op("planar.shipped", shipped["m"], shipped["n"],
                         shipped["energy"]))
    ops.append(classify_op(ctx, "classify.shipped", ctx.shipped("classify_planar"),
                           shipped["output"]["path"], shipped["m"], shipped["n"],
                           shipped["energy"], "planar.shipped"))

    ops.append(decomp_op(ctx, rng))
    ops.append(brackets_op(ctx, rng))
    ops.append(spectrum_op(ctx))
    return ops


def simulate_op(ctx, label, config, y0, expected_failure=False):
    path = ctx.write_config(label, config)
    artifact = os.path.join(ctx.out, config["output"]["path"])
    n = len(config["initial"]["q"])
    k = n * (n - 1) // 2
    initial = {"q": y0[:n], "p": y0[n:2 * n], "m_upper": y0[2 * n:2 * n + k],
               "n_upper": y0[2 * n + k:]}
    method = config["numerics"].get("method", "rk4")

    def run():
        return run_cli(ctx, "simulate", path)

    def check(code, shared):
        checks.require(code == 0, f"{label}: exit {code}")
        records = checks.check_trajectory_csv(artifact, config["model"],
                                              config.get("potential"), initial,
                                              method)
        if method == "rk45":
            return records
        return round(config["numerics"]["t_end"] / config["numerics"]["step"])

    return Op("simulate_" + method, label, run, check, expected_failure)


def load_report(ctx, name):
    with open(os.path.join(ctx.out, name)) as fh:
        return json.load(fh)


def geodesic_op(ctx, label, path, artifact):
    def run():
        return run_cli(ctx, "geodesic", path)

    def check(code, shared):
        checks.require(code == 0, f"{label}: exit {code}")
        checks.check_geodesic_report(load_report(ctx, artifact))
        return 1

    return Op("geodesic", label, run, check)


def attitude_op(label, model_json, phi0, Omega):
    model = ModelSpec.from_json(model_json)
    control = dynamics.StepControl(step=GEODESIC["step"], record_every=ATTITUDE_RECORD)

    def run():
        state0, tp0 = dynamics.reduced_state_from_velocity(phi0, Omega, model)
        traj = dynamics.integrate(model, PotentialSpec.none(), state0,
                                  GEODESIC["t_end"], control)
        return dynamics.reconstruct_attitudes(model, traj, tp0.L, tp0.R)

    def check(traj, shared):
        checks.check_attitudes(model_json, phi0, Omega, traj.times,
                               traj.samples, traj.attitudes)
        return (len(traj.times) - 1) * ATTITUDE_RECORD

    return Op("attitudes", label, run, check)


def planar_op(label, m, n, energy):
    """The planar verdict cross-check: classify, then integrate the orbit
    from a turning point for one period, or from x = 1 until it escapes."""
    none = PotentialSpec.none()

    def run():
        res = dynamics.classify_planar(m, n, A=1.0, energy=energy)
        if res.verdict == "Bounded" and res.period is not None:
            model, state = dynamics.planar_state(m, n, res.turning_points[0], 0.0)
            t_end = 1.02 * res.period
            control = dynamics.StepControl(step=res.period / PERIOD_STEPS)
        else:
            model, state = dynamics.planar_state(m, n, 1.0, 0.5)
            t_end = ESCAPE_T_END
            control = dynamics.StepControl(step=ESCAPE_STEP, record_every=10)
        return res, dynamics.integrate(model, none, state, t_end, control)

    def check(result, shared):
        res, traj = result
        checks.require(res.verdict == checks.expected_verdict(m, n),
                       f"{label}: verdict {res.verdict}")
        x = traj.samples[:, 0] - traj.samples[:, 1]
        checks.check_planar_orbit(res.verdict, res.turning_points, res.period,
                                  traj.times, x, traj.samples[:, 2])
        shared[label] = traj.times, x, traj.samples[:, 2]
        return 1

    return Op("planar", label, run, check)


def classify_op(ctx, label, path, artifact, m, n, energy, orbit):
    def run():
        return run_cli(ctx, "classify", path)

    def check(code, shared):
        checks.require(code == 0, f"{label}: exit {code}")
        report = load_report(ctx, artifact)
        checks.check_classify_report(report, m, n, energy)
        if report["verdict"] == "Bounded" and energy is not None:
            # the reported period against the orbit integrated from the
            # inner turning point by the planar cross-check
            times, x, px = shared[orbit]
            checks.check_planar_orbit("Bounded", report["turning_points"],
                                      report["period"], times, x, px)
        return 1

    return Op("classify", label, run, check)


def decomp_op(ctx, rng):
    config = {"command": "check-decomp", "trials": DECOMP_TRIALS,
              "dims": [2, 3], "cond_max": 1e6, "seed": int(ctx.seed),
              "output": {"path": "decomp.json"}}
    path = ctx.write_config("decomp", config)
    sample = []
    for i in range(12):
        n = 2 + i % 2
        s = np.exp(np.sort(rng.uniform(0.0, np.log(1e6), n))[::-1]
                   - rng.uniform(0.0, 7.0))
        sample.append(random_rotation(rng, n) @ np.diag(s) @ random_rotation(rng, n).T)

    def run():
        return run_cli(ctx, "check-decomp", path)

    def check(code, shared):
        checks.require(code == 0, f"check-decomp: exit {code}")
        checks.check_verdict_report("check-decomp", load_report(ctx, "decomp.json"))
        factors = []
        for phi in sample:
            tp = kinematics.two_polar(phi)
            factors.append((tp.L, tp.q, tp.R))
        checks.check_two_polar_sample(sample, factors)
        return DECOMP_TRIALS

    return Op("check_decomp", "check-decomp", run, check)


def brackets_op(ctx, rng):
    config = {"command": "check-brackets", "trials": BRACKET_TRIALS, "n": 3,
              "seed": int(ctx.seed), "output": {"path": "brackets.json"}}
    path = ctx.write_config("brackets", config)
    y = draw_states(rng, "AffAff", 3, 1)[0]
    state = checks.state_from_packed(y, 3)

    def run():
        return run_cli(ctx, "check-brackets", path)

    def check(code, shared):
        checks.require(code == 0, f"check-brackets: exit {code}")
        checks.check_verdict_report("check-brackets",
                                    load_report(ctx, "brackets.json"))
        checks.check_bracket_relations(*checks.bracket_table(state))
        return BRACKET_TRIALS

    return Op("check_brackets", "check-brackets", run, check)


def spectrum_op(ctx):
    path = ctx.shipped("spectrum_box")
    with open(path) as fh:
        config = json.load(fh)
    pb = config["problem"]

    def run():
        return run_cli(ctx, "spectrum", path)

    def check(code, shared):
        checks.require(code == 0, f"spectrum: exit {code}")
        report = load_report(ctx, config["output"]["path"])
        checks.check_box_levels(report["eigenvalues"], pb["n"], pb["model"]["A"],
                                pb["model"]["B"], pb["q_max"] - pb["q_min"],
                                pb["points"])
        return 1

    return Op("spectrum", "spectrum.shipped", run, check)


# ---------------------------------------------------------------------------
# ensemble


def ensemble_ops(ctx, rng):
    ops = []
    for kind in KINDS:
        for n in DIMS:
            model = ModelSpec.from_json(model_block(kind, rng))
            potential = PotentialSpec.from_json(potential_block(n, rng))
            y0 = draw_states(rng, kind, n, ENSEMBLE_BATCH)
            sample = rng.choice(ENSEMBLE_BATCH, ENSEMBLE_SAMPLE, replace=False)
            ops.append(batch_op(f"batch.{kind}.n{n}", model, potential, n, y0,
                                sample))
    return ops


def batch_op(label, model, potential, n, y0, sample):
    steps = int(round(ENSEMBLE_T_END / ENSEMBLE_STEP))
    first = {}

    def run():
        return dynamics.integrate_batch(model, potential, y0, ENSEMBLE_T_END,
                                        ENSEMBLE_STEP, n)[1][-1]

    def check(final, shared):
        singles = {}
        if "final" in first:
            # later rounds repeat the inputs of the first, whose final states
            # were checked in full below
            checks.require(np.array_equal(final, first["final"]),
                           f"{label}: final states differ from the first round")
        else:
            for i in sample[:2]:
                traj = dynamics.integrate(
                    model, potential, checks.state_from_packed(y0[i], n),
                    ENSEMBLE_T_END, dynamics.StepControl(step=ENSEMBLE_STEP))
                singles[int(i)] = traj.samples[-1]
            first["final"] = final
        checks.check_ensemble(model, potential, n, y0, final, sample, singles)
        return steps * len(y0)

    return Op("batch", label, run, check)


# ---------------------------------------------------------------------------
# spectra


def spectra_ops(ctx, rng):
    u = lambda: float(rng.uniform(0.95, 1.05))
    A, B, L = 1.0 * u(), 0.5 * u(), 2.0 * u()
    box = quantum.SpectralProblem(
        n=2, model=ModelSpec(kind="AffAff", A=A, B=B), coordinate="dilatation",
        q_min=-L / 2, q_max=L / 2, points=2000, potential=PotentialSpec.box(L))
    ops = [spectral_op("dilatation", box, lambda op, values, shared:
                       checks.check_box_levels(values, 2, A, B, L, box.points))]

    metraff = ModelSpec(kind="MetrAff", I=0.8 * u(), A=1.1 * u(), B=0.3 * u())
    well = PotentialSpec.harmonic_well(3.0 * u())
    for s, extra in ((0, None), (1, lambda op, values, shared: checks.check_splitting(
            shared["metraff_s0"], values, metraff.mu))):
        pb = quantum.SpectralProblem(
            n=3, model=metraff, alpha_label=s, beta_label=s,
            coordinate="dilatation", q_min=-2.0, q_max=2.0, points=1000,
            potential=well)
        ops.append(spectral_op(f"metraff_s{s}", pb, extra))

    def raw_check(op, values, shared):
        checks.check_weighted_symmetry(op.matrix, op.weight)
        checks.check_shear_pair(shared["shear_amended"], values, op.meta["step"])

    affaff = ModelSpec(kind="AffAff", A=1.3 * u(), B=0.4 * u())
    for name, extra in (("shear_amended", None), ("shear_raw", raw_check)):
        pb = quantum.SpectralProblem(
            n=2, model=affaff, alpha_label=1.0, beta_label=2.0,
            coordinate="shear", q_min=0.1, q_max=4.0, points=1000,
            use_amended_transform=extra is None)
        ops.append(spectral_op(name, pb, extra))

    for name, n, points in (("grid2", 2, 64), ("grid3", 3, 16)):
        pb = quantum.SpectralProblem(
            n=n, model=affaff, alpha_label=1.0, beta_label=0.0,
            coordinate="full", q_min=-2.0, q_max=2.0, points=points)
        ops.append(spectral_op(name, pb, None))
    return ops


def spectral_op(label, problem, extra):
    """Assembly plus eigensolve; `extra(operator, levels, shared)` adds
    the checks particular to the problem."""
    def run():
        op = quantum.build_reduced_hamiltonian(problem)
        return op, quantum.eigensolve(op, SPECTRUM_COUNT)

    def check(result, shared):
        op, spec = result
        if op.weight is None:
            checks.check_exactly_hermitian(op.matrix)
        checks.check_eigenpairs(op.matrix, op.weight, spec.eigenvalues,
                                spec.eigenvectors)
        if extra is not None:
            extra(op, spec.eigenvalues, shared)
        shared[label] = spec.eigenvalues
        return 1

    return Op("spectrum_" + label, label, run, check)
