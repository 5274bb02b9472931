"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every check is shown a right answer, which it must accept, and a
deliberately wrong one (a shifted eigenvalue, a perturbed final state, a
wrong verdict, a wrong period, ...), which it must reject.  Exits 1 if any
check accepts a wrong answer or rejects a right one.
"""

import os
import shutil
import sys
import tempfile

import source

source.use_checkout_source()

import numpy as np

from affinebody import dynamics, io, kinematics, quantum
from affinebody.phase import ModelSpec, PotentialSpec

import checks
import workloads


def expect(accepts, rejects):
    """`accepts` must pass and `rejects` must raise CheckFailed."""
    accepts()
    try:
        rejects()
    except checks.CheckFailed:
        return
    raise AssertionError("the check accepted a wrong answer")


def shifted(values, k, rel):
    out = np.array(values, dtype=float)
    out[k] *= 1.0 + rel
    return out


def case_box_levels(tmp):
    A, B, L, points = 1.0, 0.5, 2.0, 300
    pb = quantum.SpectralProblem(n=2, model=ModelSpec(kind="AffAff", A=A, B=B),
                                 q_min=-L / 2, q_max=L / 2, points=points,
                                 potential=PotentialSpec.box(L))
    ev = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb), 5).eigenvalues
    expect(lambda: checks.check_box_levels(ev, 2, A, B, L, points),
           lambda: checks.check_box_levels(shifted(ev, 2, 1e-6), 2, A, B, L, points))


def metraff_levels(s):
    model = ModelSpec(kind="MetrAff", I=0.8, A=1.1, B=0.3)
    pb = quantum.SpectralProblem(n=3, model=model, alpha_label=s, beta_label=s,
                                 q_min=-2.0, q_max=2.0, points=200,
                                 potential=PotentialSpec.harmonic_well(3.0))
    return model, quantum.eigensolve(quantum.build_reduced_hamiltonian(pb), 5).eigenvalues


def case_splitting(tmp):
    model, e0 = metraff_levels(0.0)
    _, e1 = metraff_levels(1.0)
    expect(lambda: checks.check_splitting(e0, e1, model.mu),
           lambda: checks.check_splitting(e0, shifted(e1, 0, 1e-9), model.mu))


def shear(amended, points=300):
    pb = quantum.SpectralProblem(n=2, model=ModelSpec(kind="AffAff", A=1.3, B=0.4),
                                 alpha_label=1.0, beta_label=2.0, coordinate="shear",
                                 q_min=0.1, q_max=4.0, points=points,
                                 use_amended_transform=amended)
    op = quantum.build_reduced_hamiltonian(pb)
    return op, quantum.eigensolve(op, 5)


def case_shear_pair(tmp):
    op_a, sp_a = shear(True)
    op_r, sp_r = shear(False)
    h = op_r.meta["step"]
    expect(lambda: checks.check_shear_pair(sp_a.eigenvalues, sp_r.eigenvalues, h),
           lambda: checks.check_shear_pair(sp_a.eigenvalues,
                                           shifted(sp_r.eigenvalues, 4, 1e-3), h))
    asym = op_a.matrix.copy()
    asym[0, 1] *= 1.0 + 1e-15
    expect(lambda: checks.check_exactly_hermitian(op_a.matrix),
           lambda: checks.check_exactly_hermitian(asym))
    expect(lambda: checks.check_weighted_symmetry(op_r.matrix, op_r.weight),
           lambda: checks.check_weighted_symmetry(op_r.matrix, shifted(op_r.weight, 7, 1e-6)))
    for op, sp in ((op_a, sp_a), (op_r, sp_r)):
        expect(lambda: checks.check_eigenpairs(op.matrix, op.weight, sp.eigenvalues,
                                               sp.eigenvectors),
               lambda: checks.check_eigenpairs(op.matrix, op.weight,
                                               shifted(sp.eigenvalues, 1, 1e-6),
                                               sp.eigenvectors))


def simulate_csv(tmp, kind, n, method):
    rng = np.random.default_rng(5)
    block = workloads.model_block(kind, rng)
    y0 = workloads.draw_states(rng, kind, n, 1)[0]
    state = checks.state_from_packed(y0, n)
    control = dynamics.StepControl(method=method, step=0.002, record_every=10)
    traj = dynamics.integrate(ModelSpec.from_json(block), PotentialSpec.none(), state,
                              0.5, control)
    path = os.path.join(tmp, f"{kind}{n}{method}.csv")
    io.write_trajectory_csv(path, traj)
    k = n * (n - 1) // 2
    initial = {"q": y0[:n], "p": y0[n:2 * n], "m_upper": y0[2 * n:2 * n + k],
               "n_upper": y0[2 * n + k:]}
    return path, block, initial


def perturbed_csv(path, column, rel):
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = lines[-1].split(",")
    row[column] = repr(float(row[column]) * (1.0 + rel))
    lines[-1] = ",".join(row)
    bad = path + ".bad.csv"
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return bad


def case_trajectory(tmp):
    for kind, n, method, column in (("AffAff", 3, "rk4", 4), ("TrigUn", 2, "rk45", 3),
                                    ("MetrMetr", 2, "rk4", 5)):
        path, block, initial = simulate_csv(tmp, kind, n, method)
        # column 4 of n = 3 is p1, column 3 of n = 2 is p1, column 5 is M_12
        rel = 1e-15 if column == 5 else 1e-6
        bad = perturbed_csv(path, column, rel)
        expect(lambda: checks.check_trajectory_csv(path, block, None, initial, method),
               lambda: checks.check_trajectory_csv(bad, block, None, initial, method))


def case_ensemble(tmp):
    rng = np.random.default_rng(6)
    model = ModelSpec.from_json(workloads.model_block("AffMetr", rng))
    pot = PotentialSpec.harmonic_well(0.5)
    y0 = workloads.draw_states(rng, "AffMetr", 3, 20)
    final = dynamics.integrate_batch(model, pot, y0, 0.1, 0.002, 3)[1][-1]
    single = dynamics.integrate(model, pot, checks.state_from_packed(y0[3], 3), 0.1,
                                dynamics.StepControl(step=0.002)).samples[-1]
    bad = final.copy()
    bad[3, 3] *= 1.0 + 1e-4
    expect(lambda: checks.check_ensemble(model, pot, 3, y0, final, [3], {3: single}),
           lambda: checks.check_ensemble(model, pot, 3, y0, bad, [3], {}))
    slight = final.copy()
    slight[3, 3] *= 1.0 + 1e-9
    expect(lambda: None,
           lambda: checks.check_ensemble(model, pot, 3, y0, slight, [], {3: single}))


def case_planar(tmp):
    m, n, energy = 1.0, 2.0, -0.02
    res = dynamics.classify_planar(m, n, energy=energy)
    model, state = dynamics.planar_state(m, n, res.turning_points[0], 0.0)
    traj = dynamics.integrate(model, PotentialSpec.none(), state, 1.02 * res.period,
                              dynamics.StepControl(step=res.period / 800))
    x = traj.samples[:, 0] - traj.samples[:, 1]
    px = traj.samples[:, 2]
    report = {"verdict": res.verdict, "period": res.period}
    wrong = dict(report, verdict="Unbounded")
    expect(lambda: checks.check_classify_report(report, m, n, energy),
           lambda: checks.check_classify_report(wrong, m, n, energy))
    ok = lambda period: checks.check_planar_orbit(
        "Bounded", res.turning_points, period, traj.times, x, px)
    expect(lambda: ok(res.period), lambda: ok(res.period * (1 + 1e-3)))
    expect(lambda: None, lambda: checks.check_planar_orbit(
        "Unbounded", res.turning_points, res.period, traj.times, x, px))


def case_attitudes(tmp):
    rng = np.random.default_rng(7)
    phi0, Omega = workloads.draw_geodesic(rng)
    block = {"kind": "AffAff", "A": 1.3, "B": 0.4}
    model = ModelSpec.from_json(block)
    state0, tp0 = dynamics.reduced_state_from_velocity(phi0, Omega, model)
    traj = dynamics.integrate(model, PotentialSpec.none(), state0, 0.5,
                              dynamics.StepControl(step=0.001, record_every=100))
    att = dynamics.reconstruct_attitudes(model, traj, tp0.L, tp0.R)
    bad = list(att.attitudes)
    L, R = bad[-1]
    bad[-1] = (L @ np.array([[1, 0, 0], [0, np.cos(1e-5), -np.sin(1e-5)],
                             [0, np.sin(1e-5), np.cos(1e-5)]]), R)
    expect(lambda: checks.check_attitudes(block, phi0, Omega, att.times, att.samples,
                                          att.attitudes),
           lambda: checks.check_attitudes(block, phi0, Omega, att.times, att.samples,
                                          bad))
    expect(lambda: checks.check_geodesic_report({"verdict": "PASS", "max_error": 1e-9}),
           lambda: checks.check_geodesic_report({"verdict": "PASS", "max_error": 2e-6}))


def case_decomposition(tmp):
    rng = np.random.default_rng(8)
    phis = [workloads.random_rotation(rng, 3) @ np.diag([30.0, 2.0, 0.1])
            @ workloads.random_rotation(rng, 3).T]
    tp = kinematics.two_polar(phis[0])
    expect(lambda: checks.check_two_polar_sample(phis, [(tp.L, tp.q, tp.R)]),
           lambda: checks.check_two_polar_sample(phis, [(tp.L, shifted(tp.q, 1, 1e-7),
                                                         tp.R)]))


def case_brackets(tmp):
    rng = np.random.default_rng(9)
    state = checks.state_from_packed(workloads.draw_states(rng, "AffAff", 3, 1)[0], 3)
    got, want = checks.bracket_table(state)
    bad = got.copy()
    bad[-1] += 1e-9
    expect(lambda: checks.check_bracket_relations(got, want),
           lambda: checks.check_bracket_relations(bad, want))


CASES = [case_box_levels, case_splitting, case_shear_pair, case_trajectory,
         case_ensemble, case_planar, case_attitudes, case_decomposition,
         case_brackets]


def main():
    out = os.path.join(source.ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=out)
    failures = 0
    try:
        for case in CASES:
            try:
                case(tmp)
                print(f"PASS {case.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {case.__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
