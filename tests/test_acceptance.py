"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured figure of merit and enforces the stated tolerance and runtime
budget.
"""

import time

import numpy as np
import pytest

from affinebody import checks, dynamics, phase, quantum
from affinebody.dynamics import StepControl
from affinebody.phase import ModelSpec, PotentialSpec, ReducedState


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_decomposition_suite():
    # 1000 random configurations, n in {2, 3}, condition <= 1e6:
    # reconstruction < 1e-10, orthogonality < 1e-12, singular values
    # against the phi^T phi eigen-oracle to 1e-9; under 5 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rep = checks.check_decomposition(rng, trials=1000, dims=(2, 3),
                                     cond_max=1e6)
    elapsed = time.perf_counter() - t0
    ok = (rep["verdict"] == "PASS" and elapsed < 5.0)
    report(1, ok,
           f"recon={rep['max_reconstruction']:.2e} "
           f"ortho={rep['max_orthogonality']:.2e} "
           f"sv={rep['max_singular_value_error']:.2e} "
           f"time={elapsed:.1f}s")


def test_acceptance_2_poisson_algebra_suite():
    # antisymmetry / Jacobi / Leibniz residuals < 1e-9 over 200 random
    # observable triples; under 10 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    rep = checks.check_brackets(rng, trials=200, n=3)
    elapsed = time.perf_counter() - t0
    ok = rep["max_residual"] < 1e-9 and elapsed < 10.0
    report(2, ok,
           f"antisym={rep['max_antisymmetry']:.2e} "
           f"jacobi={rep['max_jacobi']:.2e} "
           f"leibniz={rep['max_leibniz']:.2e} time={elapsed:.1f}s")


def _batch_states(rng, n, count, scale, gap, qlo, qhi):
    ys = []
    for _ in range(count):
        q = np.sort(rng.uniform(qlo, qhi, n))[::-1].copy()
        while np.min(q[:-1] - q[1:]) < gap:
            q = np.sort(rng.uniform(qlo, qhi, n))[::-1].copy()
        p = rng.standard_normal(n) * scale
        M = rng.standard_normal((n, n)) * scale
        N = rng.standard_normal((n, n)) * scale
        ys.append(dynamics.pack_state(ReducedState(q, p, M=M - M.T,
                                                   N=N - N.T)))
    return np.array(ys)


def test_acceptance_3_conservation_suite():
    # RK4, step 1e-3, 1e4 steps, 10 random nondegenerate states per kind:
    # relative energy drift < 1e-8; C2 drift < 1e-8 where applicable
    # (hyperbolic-realization kinds); planar M12, N12 drift < 1e-10;
    # under 60 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    # the scaled-coordinate kind needs configurations away from both the
    # coincidence walls and the origin, so it gets its own state ranges
    cases = [
        ("DAlembert", ModelSpec(kind="DAlembert", I=1.3), False,
         (0.1, 0.7, 0.6, 3.0), (0.2, 0.6, 0.6, 2.5)),
        ("AffAff", ModelSpec(kind="AffAff", A=1.3, B=0.4), True,
         (0.2, 0.35, 0.0, 1.2), (0.3, 0.3, -0.8, 0.8)),
        ("AffMetr", ModelSpec(kind="AffMetr", I=0.7, A=1.1, B=0.2), True,
         (0.2, 0.35, 0.0, 1.2), (0.3, 0.3, -0.8, 0.8)),
        ("MetrAff", ModelSpec(kind="MetrAff", I=0.9, A=0.8, B=0.1), True,
         (0.2, 0.35, 0.0, 1.2), (0.3, 0.3, -0.8, 0.8)),
    ]
    pot = PotentialSpec.none()
    worst_e = worst_c = worst_mn = 0.0
    for name, model, casimir_applies, args3, args2 in cases:
        y0 = _batch_states(rng, 3, 10, *args3)
        _, samples = dynamics.integrate_batch(model, pot, y0, 10.0, 1e-3,
                                              3, record_every=500)
        E, C = dynamics.EomKernel(model, pot, 3).energies(samples)
        worst_e = max(worst_e, float(np.max(
            np.abs(E - E[0]) / np.maximum(np.abs(E[0]), 1.0))))
        if casimir_applies:
            worst_c = max(worst_c, float(np.max(
                np.abs(C - C[0]) / np.maximum(np.abs(C[0]), 1.0))))
        # planar couplings are individually conserved for n = 2
        y2 = _batch_states(rng, 2, 10, *args2)
        _, s2 = dynamics.integrate_batch(model, pot, y2, 10.0, 1e-3, 2,
                                         record_every=500)
        worst_mn = max(worst_mn,
                       float(np.max(np.abs(s2[..., 4] - s2[0, :, 4]))),
                       float(np.max(np.abs(s2[..., 5] - s2[0, :, 5]))))
    elapsed = time.perf_counter() - t0
    ok = (worst_e < 1e-8 and worst_c < 1e-8 and worst_mn < 1e-10
          and elapsed < 60.0)
    report(3, ok,
           f"energy={worst_e:.2e} casimir={worst_c:.2e} "
           f"planarMN={worst_mn:.2e} time={elapsed:.1f}s")


def test_acceptance_4_geodesic_dual_route():
    # reduced state extracted from phi(t) = exp(Omega t) phi0 vs direct
    # integration, max componentwise error < 1e-6, 20 seeds; under 30 s
    t0 = time.perf_counter()
    import scipy.linalg

    from affinebody import kinematics
    model = ModelSpec(kind="AffAff", A=1.3, B=0.4)

    def draw(rng):
        # keep the exact geodesic clear of singular-value coincidences,
        # where the reduced description itself breaks down
        while True:
            phi0 = checks.random_configuration(rng, 3, cond_max=100.0)
            Omega = rng.standard_normal((3, 3)) * 0.5
            margin = min(kinematics.degeneracy_margin(
                kinematics.two_polar(scipy.linalg.expm(Omega * t) @ phi0).q)
                for t in np.linspace(0.0, 1.0, 21))
            if margin > 0.2:
                return phi0, Omega

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        phi0, Omega = draw(rng)
        rep = checks.geodesic_cross_check(model, phi0, Omega, 1.0,
                                          step=1e-3, samples=11)
        worst = max(worst, rep["max_error"])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(4, ok, f"max_error={worst:.2e} seeds=20 time={elapsed:.1f}s")


def test_acceptance_5_planar_threshold():
    # classify_planar vs long-horizon integration over the off-diagonal
    # (m, n) grid in {0.5, 1, 2}^2; under 60 s
    t0 = time.perf_counter()
    agree = True
    details = []
    for m in (0.5, 1.0, 2.0):
        for n in (0.5, 1.0, 2.0):
            if abs(abs(m) - abs(n)) < 1e-12:
                continue
            res = dynamics.classify_planar(m, n, A=1.0)
            if res.verdict == "Bounded":
                vmin = dynamics.planar_effective_potential(m, n, 1.0,
                                                           res.x_min)
                px = np.sqrt(0.5 * abs(vmin))   # energy below escape
                model, st_ = dynamics.planar_state(m, n, res.x_min, px)
                traj = dynamics.integrate(
                    model, PotentialSpec.none(), st_, 100.0,
                    StepControl(step=5e-3, record_every=200))
                x = traj.samples[:, 0] - traj.samples[:, 1]
                bounded = np.max(np.abs(x)) < 50.0
            else:
                model, st_ = dynamics.planar_state(m, n, 1.0, 0.5)
                traj = dynamics.integrate(
                    model, PotentialSpec.none(), st_, 60.0,
                    StepControl(step=5e-3, record_every=200))
                x = traj.samples[:, 0] - traj.samples[:, 1]
                bounded = np.max(np.abs(x)) < 20.0
            match = bounded == (res.verdict == "Bounded")
            agree = agree and match
            details.append(f"({m:g},{n:g})={res.verdict[0]}"
                           f"{'+' if match else '!'}")
    elapsed = time.perf_counter() - t0
    ok = agree and elapsed < 60.0
    report(5, ok, " ".join(details) + f" time={elapsed:.1f}s")


def test_acceptance_6_spin_casimir():
    # Casimir = hbar^2 s(s+1) I to 1e-12 for 2s = 0..8; under 1 s
    t0 = time.perf_counter()
    hbar = 0.9
    worst = 0.0
    for two_s in range(0, 9):
        s = two_s / 2.0
        blk = quantum.spin_matrices(s, hbar=hbar)
        expect = hbar ** 2 * s * (s + 1) * np.eye(blk.dim)
        worst = max(worst, float(np.max(np.abs(blk.casimir() - expect))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(6, ok, f"max_casimir_residual={worst:.2e} time={elapsed:.2f}s")


def test_acceptance_7_spectral_oracle():
    # scalar-sector Dirichlet box spectrum vs hbar^2 pi^2 k^2 /
    # (2n(A+nB) L^2), k = 1..5, within 1% at 512 nodes; 256 -> 512 error
    # ratio in [3.2, 4.8]; under 30 s
    t0 = time.perf_counter()
    model = ModelSpec(kind="AffAff", A=1.0, B=0.5)
    L = 2.0
    n = 2
    oracle = np.array([(np.pi * k / L) ** 2 / (2 * n * (1.0 + n * 0.5))
                       for k in range(1, 6)])

    def errors(points):
        pb = quantum.SpectralProblem(
            n=n, model=model, coordinate="dilatation", q_min=-L / 2,
            q_max=L / 2, points=points, potential=PotentialSpec.box(L))
        ev = quantum.eigensolve(
            quantum.build_reduced_hamiltonian(pb), 5).eigenvalues
        return np.abs(ev - oracle)

    e256, e512 = errors(256), errors(512)
    rel = float(np.max(e512 / oracle))
    ratio = e256 / e512
    elapsed = time.perf_counter() - t0
    ok = (rel < 0.01 and np.all(ratio > 3.2) and np.all(ratio < 4.8)
          and elapsed < 30.0)
    report(7, ok,
           f"rel_err={rel:.2e} ratio=[{ratio.min():.2f},{ratio.max():.2f}]"
           f" time={elapsed:.1f}s")


def test_acceptance_8_angular_splitting():
    # MetrAff s=0 vs s=1 spectra differ by the constant hbar^2/mu across
    # the 5 lowest levels to 1e-10; under 30 s
    t0 = time.perf_counter()
    model = ModelSpec(kind="MetrAff", I=0.8, A=1.1, B=0.3)

    def levels(s):
        pb = quantum.SpectralProblem(
            n=3, model=model, alpha_label=s, beta_label=s,
            coordinate="dilatation", q_min=-2.0, q_max=2.0, points=256,
            potential=PotentialSpec.harmonic_well(3.0))
        return quantum.eigensolve(
            quantum.build_reduced_hamiltonian(pb), 5).eigenvalues

    gap = levels(1.0) - levels(0.0)
    worst = float(np.max(np.abs(gap - 1.0 / model.mu)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    report(8, ok, f"max_gap_deviation={worst:.2e} time={elapsed:.1f}s")


def test_acceptance_9_self_adjointness():
    # amended operators symmetric to machine precision; raw weighted-form
    # residual < 1e-10; under 10 s
    t0 = time.perf_counter()
    model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
    worst_amended = 0.0
    worst_raw = 0.0

    pb = quantum.SpectralProblem(n=2, model=model, alpha_label=1.0,
                                 beta_label=2.0, coordinate="shear",
                                 q_min=0.1, q_max=4.0, points=300)
    H = quantum.build_reduced_hamiltonian(pb).matrix
    worst_amended = max(worst_amended, float(np.max(np.abs(H - H.T))))

    pbf = quantum.SpectralProblem(n=3, model=model, alpha_label=1.0,
                                  beta_label=1.0, coordinate="full",
                                  q_min=-2.0, q_max=2.0, points=16)
    Hf = quantum.build_reduced_hamiltonian(pbf).matrix
    worst_amended = max(worst_amended, float(abs(Hf - Hf.conj().T).max()))

    pbr = quantum.SpectralProblem(n=2, model=model, alpha_label=1.0,
                                  beta_label=2.0, coordinate="shear",
                                  q_min=0.1, q_max=4.0, points=300,
                                  use_amended_transform=False)
    op = quantum.build_reduced_hamiltonian(pbr)
    WH = op.weight[:, None] * op.matrix
    worst_raw = max(worst_raw, float(
        np.max(np.abs(WH - WH.T)) / np.max(np.abs(WH))))

    pbr2 = quantum.SpectralProblem(n=2, model=model, alpha_label=1.0,
                                   beta_label=0.0, coordinate="full",
                                   q_min=-2.0, q_max=2.0, points=24,
                                   use_amended_transform=False)
    op2 = quantum.build_reduced_hamiltonian(pbr2)
    WH2 = op2.matrix.multiply(op2.weight[:, None]).toarray()
    worst_raw = max(worst_raw, float(
        np.max(np.abs(WH2 - WH2.T.conj())) / np.max(np.abs(WH2))))

    elapsed = time.perf_counter() - t0
    ok = worst_amended == 0.0 and worst_raw < 1e-10 and elapsed < 10.0
    report(9, ok,
           f"amended={worst_amended:.1e} raw_weighted={worst_raw:.2e} "
           f"time={elapsed:.1f}s")
