import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from affinebody import quantum
from affinebody.errors import (ConfigError, GridTooCoarse, InvalidLabel,
                               SingularWeight)
from affinebody.phase import ModelSpec, PotentialSpec
from affinebody.quantum import SpectralProblem

import reference
from test_phase import ALL_KINDS

AFFAFF = ModelSpec(kind="AffAff", A=1.0, B=0.5)
FULL_KINDS = [m for m in ALL_KINDS if m.kind != "TrigUn"]


def _full_grid(model, n, labels, amended=True):
    q_min, q_max = (0.2, 3.0) if model.kind == "DAlembert" else (-2.0, 2.0)
    return SpectralProblem(
        n=n, model=model, alpha_label=labels[0], beta_label=labels[1],
        coordinate="full", q_min=q_min, q_max=q_max, points=16,
        potential=PotentialSpec.harmonic_well(1.0),
        use_amended_transform=amended)


CHAMBER_CASES = {
    f"{m.kind}-n{n}-{'amended' if amended else 'raw'}":
        _full_grid(m, n, labels, amended)
    for m in FULL_KINDS for n, labels in ((2, (1.0, 1.0)), (3, (1.0, 0.0)))
    for amended in (True, False)}


class TestSpin:
    def test_s0(self):
        blk = quantum.spin_matrices(0.0)
        assert blk.dim == 1
        for J in blk.matrices:
            assert np.allclose(J, 0.0)
        assert np.allclose(blk.casimir(), 0.0)

    def test_s_half(self):
        blk = quantum.spin_matrices(0.5, hbar=1.0)
        assert np.allclose(blk.matrices[2], 0.5 * np.diag([1.0, -1.0]))
        assert np.allclose(blk.casimir(), 0.75 * np.eye(2))

    def test_s1_casimir_and_commutators(self):
        hbar = 0.7
        blk = quantum.spin_matrices(1.0, hbar=hbar)
        assert np.allclose(blk.casimir(), 2.0 * hbar ** 2 * np.eye(3),
                           atol=1e-14)
        J1, J2, J3 = blk.matrices
        assert np.allclose(J1 @ J2 - J2 @ J1, 1j * hbar * J3, atol=1e-14)
        assert np.allclose(J2 @ J3 - J3 @ J2, 1j * hbar * J1, atol=1e-14)
        assert np.allclose(J3 @ J1 - J1 @ J3, 1j * hbar * J2, atol=1e-14)

    def test_casimir_ladder(self):
        for two_s in range(0, 9):
            s = two_s / 2.0
            blk = quantum.spin_matrices(s, hbar=1.0)
            expect = s * (s + 1) * np.eye(blk.dim)
            assert np.max(np.abs(blk.casimir() - expect)) < 1e-12

    def test_bad_label(self):
        with pytest.raises(InvalidLabel):
            quantum.spin_matrices(0.3)

    def test_skew_generator_mapping(self):
        blk = quantum.spin_matrices(1.0)
        J1, J2, J3 = blk.matrices
        assert np.allclose(quantum.skew_generator(blk, 0, 1), J3)
        assert np.allclose(quantum.skew_generator(blk, 0, 2), -J2)
        assert np.allclose(quantum.skew_generator(blk, 1, 2), J1)
        assert np.allclose(quantum.skew_generator(blk, 1, 0), -J3)


class TestWeights:
    def test_haar_coincident(self):
        assert quantum.haar_weight(np.array([0.3, 0.3])) == 0.0

    def test_haar_reference(self):
        # n=2, q=(1,0): |sh 1| * |sh(-1)| = sh(1)^2
        expect = math.sinh(1.0) ** 2   # = 1.3810978455418155
        assert quantum.haar_weight(np.array([1.0, 0.0])) == pytest.approx(
            expect, rel=1e-15)
        assert expect == pytest.approx(1.3810978455418155, abs=1e-16)

    def test_lebesgue_reference(self):
        # n=2, Q=(2,1): |4-1| * |1-4| = 9
        assert quantum.lebesgue_weight(np.array([2.0, 1.0])) == \
            pytest.approx(9.0, rel=1e-15)


class TestProblemValidation:
    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            SpectralProblem(n=2, model=AFFAFF, points=8)

    def test_half_integer_gate(self):
        # half-integer labels are accepted as they are; other fractions not
        pb = SpectralProblem(n=3, model=AFFAFF, alpha_label=0.5,
                             beta_label=1.5)
        assert pb.block_shape == (2, 4)
        with pytest.raises(InvalidLabel):
            SpectralProblem(n=3, model=AFFAFF, alpha_label=0.3,
                            beta_label=1.3)

    def test_label_difference_must_be_integer(self):
        with pytest.raises(InvalidLabel):
            SpectralProblem(n=3, model=AFFAFF, alpha_label=0.5,
                            beta_label=1.0)

    def test_dalembert_separable_coordinates_rejected(self):
        md = ModelSpec(kind="DAlembert", I=1.0)
        with pytest.raises(ConfigError):
            SpectralProblem(n=2, model=md, coordinate="dilatation")
        with pytest.raises(ConfigError):
            SpectralProblem(n=2, model=md, coordinate="shear")

    def test_dalembert_full_needs_positive_grid(self):
        md = ModelSpec(kind="DAlembert", I=1.0)
        with pytest.raises(ConfigError):
            SpectralProblem(n=2, model=md, coordinate="full",
                            q_min=-1.0, q_max=1.0)

    def test_trig_boundary(self):
        # the kind decides the boundary: TrigUn angles wrap round
        mt = ModelSpec(kind="TrigUn", A=1.0, B=0.0)
        pb = SpectralProblem(n=2, model=mt, coordinate="shear",
                             q_min=-np.pi, q_max=np.pi)
        assert pb.boundary == "periodic"
        assert "boundary" not in pb.to_json()
        for model in FULL_KINDS:
            q_min = 0.5 if model.kind == "DAlembert" else -1.0
            pb = SpectralProblem(n=2, model=model, coordinate="full",
                                 q_min=q_min, q_max=2.0, points=16)
            assert pb.boundary == "dirichlet"

    def test_shear_n3_rejected(self):
        with pytest.raises(ConfigError):
            SpectralProblem(n=3, model=AFFAFF, coordinate="shear")

    @pytest.mark.parametrize("turns, ok", [(1.0, True), (2.0, True),
                                           (0.5, False), (1.0 + 1e-6, False)])
    def test_periodic_grid_spans_whole_periods(self, turns, ok):
        # the wrapped edge joins q_max to q_min
        mt = ModelSpec(kind="TrigUn", A=1.0, B=0.3)
        make = lambda: SpectralProblem(
            n=2, model=mt, coordinate="shear", q_min=0.3,
            q_max=0.3 + turns * 2.0 * np.pi)
        if ok:
            make()
        else:
            with pytest.raises(ConfigError, match="q_min = 0.3, q_max = "):
                make()

    @pytest.mark.parametrize("model, coordinate, grid, width, ok", [
        (AFFAFF, "full", (-2.0, 2.0), 1.0, False),
        (AFFAFF, "full", (-2.0, 2.0), 3.8, True),
        # d'Alembert nodes have qbar = mean log Q in (-log 2, log 2)
        (ModelSpec(kind="DAlembert", I=1.0), "full", (0.5, 2.0), 1.0, False),
        (ModelSpec(kind="DAlembert", I=1.0), "full", (0.5, 2.0), 1.4, True),
        # shear nodes have qbar = 0
        (AFFAFF, "shear", (0.1, 4.0), 0.1, True),
        # a dilatation grid meets the box at its walls: its nodes lie inside
        (AFFAFF, "dilatation", (-1.0, 1.0), 1.9, False),
    ])
    def test_box_meets_node_qbar(self, model, coordinate, grid, width, ok):
        pb = SpectralProblem(n=2, model=model, coordinate=coordinate,
                             q_min=grid[0], q_max=grid[1], points=16,
                             potential=PotentialSpec.box(width))
        if ok:
            quantum.build_reduced_hamiltonian(pb)
        else:
            with pytest.raises(ConfigError, match="box potential narrower"):
                quantum.build_reduced_hamiltonian(pb)


class TestDilatation:
    def test_box_oracle(self):
        # particle in a box with the dilatational mass 2n(A + nB)
        L = 2.0
        pb = SpectralProblem(n=2, model=AFFAFF, coordinate="dilatation",
                             q_min=-L / 2, q_max=L / 2, points=512,
                             potential=PotentialSpec.box(L))
        spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb), 5)
        n = 2
        oracle = np.array([(np.pi * k / L) ** 2
                           / (2 * n * (AFFAFF.A + n * AFFAFF.B))
                           for k in range(1, 6)])
        assert np.max(np.abs(spec.eigenvalues - oracle) / oracle) < 0.01

    def test_convergence_order(self):
        L = 2.0
        n = 2
        oracle = np.array([(np.pi * k / L) ** 2
                           / (2 * n * (AFFAFF.A + n * AFFAFF.B))
                           for k in range(1, 6)])

        def errs(points):
            pb = SpectralProblem(n=2, model=AFFAFF,
                                 coordinate="dilatation", q_min=-L / 2,
                                 q_max=L / 2, points=points,
                                 potential=PotentialSpec.box(L))
            ev = quantum.eigensolve(
                quantum.build_reduced_hamiltonian(pb), 5).eigenvalues
            return np.abs(ev - oracle)

        ratio = errs(256) / errs(512)
        assert np.all(ratio > 3.2) and np.all(ratio < 4.8)

    def test_block_multiplicity_metadata(self):
        pb = SpectralProblem(n=3, model=AFFAFF, alpha_label=1.0,
                             beta_label=2.0, coordinate="dilatation",
                             points=32)
        op = quantum.build_reduced_hamiltonian(pb)
        assert op.block_dim == 3 * 5
        assert op.matrix.shape == (32, 32)


class TestAngularShift:
    def test_affaff_zero(self):
        for n in (2, 3):
            assert quantum.angular_shift(AFFAFF, n, 2.0, 2.0) == 0.0

    def test_metraff_reference(self):
        # s = 1, mu = 1, hbar = 1 -> s(s+1)/(2 mu) * 2 = 2... the shift is
        # hbar^2 s(s+1) / (2 mu) = 1, and the s=1 vs s=0 gap is 1/mu * 1
        model = ModelSpec(kind="MetrAff", I=2.0, A=1.0, B=0.0)
        mu = model.mu
        val = quantum.angular_shift(model, 3, 1.0, 0.0)
        assert val == pytest.approx(1.0 / mu, rel=1e-14)

    def test_metraff_unit_mu(self):
        # shift at s = 1 is hbar^2 s(s+1) / (2 mu); the s=1 vs s=0 gap is
        # therefore hbar^2 / mu
        model = ModelSpec(kind="MetrAff", I=2.0, A=1.0, B=0.0)
        assert model.mu == pytest.approx((4.0 - 1.0) / 2.0)
        val = quantum.angular_shift(model, 3, 1.0, 0.0)
        assert val == pytest.approx(2.0 / (2.0 * model.mu), rel=1e-14)

    def test_metrmetr_reference(self):
        # hbar^2 s(s+1)/(2c) + hbar^2 j(j+1)/(2d) = 3/8 + 3/8
        model = ModelSpec(kind="MetrMetr", a=1.0, b=1.0, c=1.0, d=1.0)
        val = quantum.angular_shift(model, 3, 0.5, 0.5)
        assert val == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("model, labels, value", [
        # hbar^2 s^2 / (2 mu) with mu = 3/2, and hbar = 0.5 quarters it
        (ModelSpec(kind="MetrAff", I=2.0, A=1.0), (1.0, 0.0), 1.0 / 3.0),
        (ModelSpec(kind="MetrAff", I=2.0, A=1.0), (2.0, 1.0), 4.0 / 3.0),
        (ModelSpec(kind="MetrAff", I=2.0, A=1.0, hbar=0.5), (2.0, 1.0),
         1.0 / 3.0),
        # hbar^2 j^2 / (2 mu)
        (ModelSpec(kind="AffMetr", I=2.0, A=1.0), (2.0, 1.0), 1.0 / 3.0),
        # hbar^2 s^2/(2c) + hbar^2 j^2/(2d) = 1/8 + 1/8
        (ModelSpec(kind="MetrMetr", a=1.0, b=1.0, c=1.0, d=1.0), (0.5, 0.5),
         0.25)],
        ids=["MetrAff-10", "MetrAff-21", "MetrAff-21-hbar", "AffMetr-21",
             "MetrMetr-halves"])
    def test_planar_reference(self, model, labels, value):
        # for n = 2, |rho|^2 and |tau|^2 act as the squares of the SO(2)
        # generators hbar s and hbar j, not as SO(3) Casimirs
        val = quantum.angular_shift(model, 2, *labels)
        assert val == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("kind, labels", [
        ("MetrAff", (1.0, 0.0)), ("MetrAff", (2.0, 1.0)),
        ("MetrAff", (1.0, 2.0)), ("AffMetr", (0.0, 2.0)),
        ("AffMetr", (2.0, 1.0)), ("AffMetr", (1.0, 1.0))],
        ids=lambda v: v if isinstance(v, str) else f"{v[0]:g}{v[1]:g}")
    def test_planar_shift_of_full_grid(self, kind, labels):
        # MetrAff and AffMetr share the kinetic constants of AffAff with
        # A = alpha = I + A, save c_rho |rho|^2 or c_tau |tau|^2, and the
        # n = 2 couplings act on the labels through hbar s and hbar j.  So
        # the n = 2 operators differ by the constant hbar^2 s^2 / (2 mu)
        # (MetrAff) or hbar^2 j^2 / (2 mu) (AffMetr) on the diagonal
        model = ModelSpec(kind=kind, I=2.0, A=1.0, B=0.3)
        affaff = ModelSpec(kind="AffAff", A=model.alpha, B=model.B)
        s, j = labels
        label = s if kind == "MetrAff" else j
        expected = label ** 2 / (2.0 * model.mu)
        ops = [quantum.build_reduced_hamiltonian(SpectralProblem(
            n=2, model=m, alpha_label=s, beta_label=j, coordinate="full",
            q_min=-2.0, q_max=2.0, points=24)).matrix for m in (model, affaff)]
        diff = (ops[0] - ops[1]).toarray()
        assert np.max(np.abs(diff - np.diag(np.diag(diff)))) == 0.0
        assert np.allclose(np.diag(diff), expected, rtol=1e-12, atol=0.0)

    def test_uniform_split_across_levels(self):
        model = ModelSpec(kind="MetrAff", I=0.8, A=1.1, B=0.3)

        def levels(s):
            pb = SpectralProblem(n=3, model=model, alpha_label=s,
                                 beta_label=s, coordinate="dilatation",
                                 q_min=-2.0, q_max=2.0, points=160,
                                 potential=PotentialSpec.harmonic_well(3.0))
            return quantum.eigensolve(
                quantum.build_reduced_hamiltonian(pb), 5).eigenvalues

        gap = levels(1.0) - levels(0.0)
        assert np.max(np.abs(gap - 1.0 / model.mu)) < 1e-10


class TestShear:
    def test_scalar_sector_reduces(self):
        # s = j = 0: couplings vanish, amended operator is the plain
        # 1-d kinetic stencil plus the constant curvature term
        pb = SpectralProblem(n=2, model=AFFAFF, coordinate="shear",
                             q_min=0.2, q_max=4.0, points=64)
        op = quantum.build_reduced_hamiltonian(pb)
        cL = 1.0 / (2.0 * AFFAFF.A)
        h = op.meta["step"]
        off = op.matrix.diagonal(1)
        assert np.allclose(off, -2.0 * cL / h ** 2, atol=1e-12)
        diag = op.matrix.diagonal(0)
        assert np.allclose(diag, 2.0 * 2.0 * cL / h ** 2 + 2.0 * cL,
                           atol=1e-12)

    def test_amended_symmetry_exact(self):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=1.0,
                             beta_label=2.0, coordinate="shear",
                             q_min=0.1, q_max=4.0, points=200)
        op = quantum.build_reduced_hamiltonian(pb)
        assert np.max(np.abs(op.matrix - op.matrix.T)) == 0.0

    def test_raw_weighted_symmetry(self):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=1.0,
                             beta_label=2.0, coordinate="shear",
                             q_min=0.1, q_max=4.0, points=200,
                             use_amended_transform=False)
        op = quantum.build_reduced_hamiltonian(pb)
        WH = op.weight[:, None] * op.matrix
        assert np.max(np.abs(WH - WH.T)) / np.max(np.abs(WH)) < 1e-10

    def test_amended_and_raw_spectra_converge_together(self):
        def lowest(amended, points):
            pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=0.0,
                                 beta_label=2.0, coordinate="shear",
                                 q_min=0.05, q_max=6.0, points=points,
                                 use_amended_transform=amended)
            return quantum.eigensolve(
                quantum.build_reduced_hamiltonian(pb), 3).eigenvalues

        coarse = np.abs(lowest(True, 200) - lowest(False, 200))
        fine = np.abs(lowest(True, 400) - lowest(False, 400))
        assert np.all(fine < coarse)
        assert np.max(fine) < 1e-3

    @pytest.mark.parametrize("labels, A, levels, amended", [
        ((2.0, 4.0), 1.0, [0.78685745], True),
        ((2.0, 4.0), 1.7, [0.46285732], True),
        ((4.0, 4.0), 1.0, [-0.60165334, 0.92947553], True),
        ((4.0, 4.0), 1.0, [-0.60165334, 0.92947553], False)],
        ids=["labels0-1.0-levels0", "labels1-1.7-levels1",
             "labels2-1.0-levels2", "labels2-1.0-levels2-raw"])
    def test_poschl_teller_levels(self, labels, A, levels, amended):
        # at B = 0 the shear operator is (hbar^2/A)[-d^2 + 1 +
        # (kappa(kappa - 1)/sh^2(x/2) - lambda(lambda - 1)/ch^2(x/2))/4],
        # kappa(kappa - 1) = (j - s)^2/4 and lambda(lambda - 1) =
        # (j + s)^2/4, whose bound levels are (hbar^2/A)[1 - (lambda -
        # kappa - 1 - 2k)^2/4] (Poschl & Teller, 1933).  The amended grid
        # converges to them at second order (3.87-4.00x per doubling
        # measured), and so does the raw one, whose flux closes on the wall
        # x = 0, where sh^2 x vanishes.  Labels (3, 4) fall only 2.7x:
        # kappa = 1.21 there, and the amplitude goes as x^kappa at the wall
        s, j = labels
        kappa = 0.5 + math.sqrt(0.25 + 0.25 * (j - s) ** 2)
        lam = 0.5 + math.sqrt(0.25 + 0.25 * (j + s) ** 2)
        oracle = [(1.0 - 0.25 * (lam - kappa - 1.0 - 2.0 * k) ** 2) / A
                  for k in range(len(levels))]
        assert np.allclose(oracle, levels, rtol=0.0, atol=1e-8)
        model = ModelSpec(kind="AffAff", A=A, B=0.0)
        errors = []
        for points in (1000, 2000, 4000):
            pb = SpectralProblem(n=2, model=model, alpha_label=s,
                                 beta_label=j, coordinate="shear",
                                 q_min=0.0, q_max=40.0, points=points,
                                 use_amended_transform=amended)
            spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb),
                                      len(levels))
            errors.append(np.max(np.abs(spec.eigenvalues - oracle)))
        assert errors[-1] < 3e-5
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_singular_weight_guard(self):
        # a grid crossing x = 0 with a nonvanishing M-type coupling
        with pytest.raises(SingularWeight):
            pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=0.0,
                                 beta_label=1.0, coordinate="shear",
                                 q_min=-2.0, q_max=2.0, points=31)
            quantum.build_reduced_hamiltonian(pb)

    def test_trig_shear_periodic(self):
        # a node on x = -pi, where cos(x/2) = 0 under a nonvanishing N-type
        # coupling: the operator would carry 1e31 on its diagonal
        mt = ModelSpec(kind="TrigUn", A=1.0, B=0.0)
        pb = SpectralProblem(n=2, model=mt, alpha_label=1.0,
                             beta_label=1.0, coordinate="shear",
                             q_min=-np.pi, q_max=np.pi, points=128)
        with pytest.raises(SingularWeight):
            quantum.build_reduced_hamiltonian(pb)

    def test_trig_shear_periodic_clear_of_antipodes(self):
        mt = ModelSpec(kind="TrigUn", A=1.0, B=0.0)
        pb = SpectralProblem(n=2, model=mt, alpha_label=1.0,
                             beta_label=1.0, coordinate="shear",
                             q_min=-np.pi + 0.01, q_max=np.pi + 0.01,
                             points=128)
        op = quantum.build_reduced_hamiltonian(pb)
        assert np.max(np.abs(op.matrix - op.matrix.T)) == 0.0
        spec = quantum.eigensolve(op, 4)
        assert spec.solver["path"] == "sparse"
        assert np.all(np.isfinite(spec.eigenvalues))
        assert np.max(spec.residuals) < 1e-10
        ref = scipy.linalg.eigvalsh(op.matrix.toarray(),
                                    subset_by_index=(0, 3))
        assert np.allclose(spec.eigenvalues, ref, rtol=1e-8, atol=1e-8)
        assert np.allclose(spec.eigenvalues,
                           [-0.34557, 0.71303, 2.27055, 4.32646], atol=1e-5)


class TestFullGrid:
    def test_amended_hermitian(self):
        pb = SpectralProblem(n=3, model=AFFAFF, alpha_label=1.0,
                             beta_label=1.0, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=16)
        H = quantum.build_reduced_hamiltonian(pb).matrix
        assert abs(H - H.conj().T).max() == 0.0

    def test_raw_weighted_hermitian(self):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=1.0,
                             beta_label=0.0, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=24,
                             use_amended_transform=False)
        op = quantum.build_reduced_hamiltonian(pb)
        WH = op.matrix.multiply(op.weight[:, None]).toarray()
        assert np.max(np.abs(WH - WH.T.conj())) / np.max(np.abs(WH)) \
            < 1e-10

    def test_scalar_full_matches_separated(self):
        # n = 2 amplitudes are scalars.  On the chamber q_1 < q_2 the
        # operator separates into the dilatation qbar and the shear
        # x = q_2 - q_1: a harmonic well binds qbar (omega = 1, so 1/2),
        # and at labels (2, 4) the Poschl-Teller shear well binds x with
        # (hbar^2/A)[1 - ((lambda - kappa - 1)/2)^2], kappa(kappa - 1) =
        # (j - s)^2/4 and lambda(lambda - 1) = (j + s)^2/4.  On [-8, 8]^2
        # the box cuts the bound state off far below the grid error, which
        # falls at second order in h
        kappa = 0.5 + math.sqrt(0.25 + 1.0)
        lam = 0.5 + math.sqrt(0.25 + 9.0)
        oracle = 0.5 + 1.0 - 0.25 * (lam - kappa - 1.0) ** 2
        assert oracle == pytest.approx(1.28685745, abs=1e-8)

        def error(points):
            pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=2.0,
                                 beta_label=4.0, coordinate="full",
                                 q_min=-8.0, q_max=8.0, points=points,
                                 potential=PotentialSpec.harmonic_well(4.0))
            op = quantum.build_reduced_hamiltonian(pb)
            return abs(quantum.eigensolve(op, 1).eigenvalues[0] - oracle)

        coarse, fine = error(63), error(127)
        assert fine < 1e-3
        assert coarse / fine > 3.5

    @pytest.mark.parametrize("n, points", [(3, 16), (2, 64)])
    def test_weyl_group_symmetry(self, n, points):
        # for labels (0, 0) the amended AffAff operator is a function of
        # the unordered invariants.  On every off-wall node of the lattice
        # (all n! chambers) each axis permutation commutes with it to
        # round-off, no entry couples two chambers, and its principal
        # submatrix on the chamber q_1 < ... < q_n is the library's operator
        pb = SpectralProblem(n=n, model=AFFAFF, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=points)
        ref = reference.full_grid_all_chambers(pb)
        H = ref.matrix
        shape = (points,) * n
        index = np.array(np.unravel_index(ref.lattice, shape)).T
        scale = abs(H).max()
        for perm in itertools.permutations(range(n)):
            moved = np.ravel_multi_index(index[:, perm].T, shape)
            idx = np.searchsorted(ref.lattice, moved)
            assert np.array_equal(ref.lattice[idx], moved)
            # P H P^T - H, with P the permutation of the grid nodes
            assert abs(H[idx][:, idx] - H).max() <= 1e-12 * scale
        chamber = np.argsort(index, axis=1) @ n ** np.arange(n)
        rows, cols = H.nonzero()
        assert np.all(chamber[rows] == chamber[cols])
        ordered = np.flatnonzero(np.all(np.diff(index, axis=1) > 0, axis=1))
        op = quantum.build_reduced_hamiltonian(pb)
        assert np.array_equal(ref.lattice[ordered], op.lattice)
        assert abs(H[ordered][:, ordered] - op.matrix).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name", sorted(CHAMBER_CASES))
    def test_chamber_is_principal_submatrix(self, name):
        # the chamber operator of every kind and form is the principal
        # submatrix of the all-chamber box assembly, whose couplings are
        # the pair denominators of the classical kinetic energy
        pb = CHAMBER_CASES[name]
        ref = reference.full_grid_all_chambers(pb)
        op = quantum.build_reduced_hamiltonian(pb)
        index = np.array(np.unravel_index(ref.lattice,
                                          (pb.points,) * pb.n)).T
        ordered = np.flatnonzero(np.all(np.diff(index, axis=1) > 0, axis=1))
        assert np.array_equal(ref.lattice[ordered], op.lattice)
        assert np.array_equal(op.nodes, ref.nodes[ordered])
        bdim = op.block_shape[0] * op.block_shape[1]
        rows = (ordered[:, None] * bdim + np.arange(bdim)).ravel()
        sub = ref.matrix[rows][:, rows]
        assert sub.nnz == op.matrix.nnz
        assert abs(sub - op.matrix).max() <= 1e-12 * abs(sub).max()
        if pb.use_amended_transform:
            assert op.weight is None
        else:
            assert np.allclose(op.weight, ref.weight[rows], rtol=1e-12,
                               atol=0.0)

    @pytest.mark.parametrize("n, grids, oracle", [
        (2, (31, 63, 127), [2.5421, 4.0843, 5.0095, 6.2432]),
        (3, (16, 33), [8.3180, 10.4769])])
    def test_chamber_closed_form(self, n, grids, oracle):
        # labels (0, 0), A = 1, B = 0 on [-2, 2]^n: the amended potential is
        # the constant U = 2 (n = 2) or 8 (n = 3), and the levels are
        # (1/2)[(pi/4)^2 sum_a k_a^2 + U] over strictly increasing k, the
        # determinants of sines that vanish on the walls.  h halves from
        # one grid to the next, and the error falls at second order
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        U = {2: 2.0, 3: 8.0}[n]
        ks = sorted(sum(k * k for k in c)
                    for c in itertools.combinations(range(1, 8), n))
        exact = np.array([0.5 * ((np.pi / 4) ** 2 * k2 + U)
                          for k2 in ks[:len(oracle)]])
        assert np.allclose(exact, oracle, atol=1e-4)
        errors = []
        for points in grids:
            pb = SpectralProblem(n=n, model=model, coordinate="full",
                                 q_min=-2.0, q_max=2.0, points=points)
            vals = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb),
                                      len(oracle)).eigenvalues
            errors.append(np.abs(vals - exact))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios >= 3.5)

    @pytest.mark.parametrize("n, labels, grids", [
        (2, (1.0, 0.0), (31, 63, 127)), (2, (1.0, 1.0), (31, 63, 127)),
        (3, (1.0, 0.0), (16, 33))])
    def test_amended_and_raw_converge_together(self, n, labels, grids):
        # on the chamber the raw weighted form approaches the amended one
        # at second order in h, since its flux closes on the walls where
        # the weight vanishes: the largest gap between their four lowest
        # levels falls more than 3.5-fold each time h halves
        gaps = []
        for points in grids:
            levels = [quantum.eigensolve(quantum.build_reduced_hamiltonian(
                SpectralProblem(n=n, model=AFFAFF, alpha_label=labels[0],
                                beta_label=labels[1], coordinate="full",
                                q_min=-2.0, q_max=2.0, points=points,
                                use_amended_transform=amended)),
                4).eigenvalues for amended in (True, False)]
            gaps.append(np.max(np.abs(levels[0] - levels[1])))
        assert np.all(np.array(gaps[:-1]) / np.array(gaps[1:]) > 3.5)

    @pytest.mark.parametrize("labels, doublets", [
        ((0.0, 0.0), {}),
        ((1.0, 0.0), {0: 6.266513499551, 3: 7.453916339875})])
    def test_weyl_group_doublets(self, labels, doublets):
        # on one Weyl chamber the n = 3 levels at labels (1, 0) still come
        # in exact pairs, while those at labels (0, 0) are simple: the
        # chamber keeps only S_3's sign representation of a scalar
        # amplitude.  doublets maps the index of a pair's first member
        # among the six lowest levels to its value; every other level is
        # simple
        pb = SpectralProblem(n=3, model=ModelSpec(kind="AffAff", A=1.3,
                                                  B=0.4),
                             alpha_label=labels[0], beta_label=labels[1],
                             coordinate="full", q_min=-2.0, q_max=2.0,
                             points=16)
        vals = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb),
                                  6).eigenvalues
        for i, value in doublets.items():
            assert abs(vals[i + 1] - vals[i]) <= 1e-10 * abs(vals[i])
            assert vals[i] == pytest.approx(value, rel=1e-9)
        for i in set(range(5)) - set(doublets):
            assert vals[i + 1] - vals[i] > 1e-3 * vals[i]

    def test_dalembert_full(self):
        md = ModelSpec(kind="DAlembert", I=1.3)
        pb = SpectralProblem(n=2, model=md, alpha_label=1.0,
                             beta_label=1.0, coordinate="full",
                             q_min=0.1, q_max=3.0, points=32,
                             potential=PotentialSpec.harmonic_well(1.0))
        op = quantum.build_reduced_hamiltonian(pb)
        assert abs(op.matrix - op.matrix.conj().T).max() == 0.0
        spec = quantum.eigensolve(op, 3)
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


class TestEigensolve:
    def test_diagonal(self):
        spec = quantum.eigensolve(np.diag([3.0, 1.0]), 2)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0])

    def test_dense_vs_inverse_iteration(self, rng):
        A = rng.standard_normal((200, 200))
        A = 0.5 * (A + A.T)
        spec = quantum.eigensolve(A, 3)
        # independent oracle: shifted inverse iteration per level
        for idx in range(3):
            lam = spec.eigenvalues[idx]
            shift = lam + 1e-3
            v = rng.standard_normal(200)
            B = A - shift * np.eye(200)
            for _ in range(50):
                v = np.linalg.solve(B, v)
                v /= np.linalg.norm(v)
            refined = v @ A @ v
            assert refined == pytest.approx(lam, abs=1e-9)

    def test_residuals_small(self, rng):
        A = rng.standard_normal((150, 150))
        A = 0.5 * (A + A.T)
        spec = quantum.eigensolve(A, 5)
        assert np.max(spec.residuals) < 1e-10

    def test_weighted_orthonormality(self):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=0.0,
                             beta_label=2.0, coordinate="shear",
                             q_min=0.05, q_max=6.0, points=150,
                             use_amended_transform=False)
        spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb), 4)
        assert spec.gram_residual() < 1e-10

    def test_count_bounds(self):
        with pytest.raises(ConfigError):
            quantum.eigensolve(np.eye(3), 4)


def _dense_reference(op, count):
    """Lowest levels of the assembled operator from dense LAPACK: the
    generalized problem (W H) v = lambda W v when the operator is weighted,
    a plain Hermitian eigh otherwise."""
    H = op.matrix.toarray()
    if op.weight is None:
        return scipy.linalg.eigvalsh(H, subset_by_index=(0, count - 1))
    WH = op.weight[:, None] * H
    return scipy.linalg.eigvalsh(0.5 * (WH + WH.conj().T), np.diag(op.weight),
                                 subset_by_index=(0, count - 1))


class TestSolverPaths:
    ONE_D = {
        "dilatation": dict(n=3, model=ModelSpec(kind="MetrAff", I=0.8,
                                                 A=1.1, B=0.3),
                           alpha_label=1.0, beta_label=1.0,
                           coordinate="dilatation", q_min=-2.0, q_max=2.0,
                           points=300,
                           potential=PotentialSpec.harmonic_well(3.0)),
        "shear_amended": dict(n=2, model=AFFAFF, alpha_label=1.0,
                              beta_label=2.0, coordinate="shear",
                              q_min=0.1, q_max=4.0, points=300),
        "shear_raw": dict(n=2, model=AFFAFF, alpha_label=1.0,
                          beta_label=2.0, coordinate="shear", q_min=0.1,
                          q_max=4.0, points=300,
                          use_amended_transform=False),
    }

    @pytest.mark.parametrize("name", sorted(ONE_D))
    def test_tridiagonal_matches_dense(self, name):
        op = quantum.build_reduced_hamiltonian(
            SpectralProblem(**self.ONE_D[name]))
        # elementwise products with the weight need an array, not spmatrix
        assert isinstance(op.matrix, sp.csr_array)
        spec = quantum.eigensolve(op, 6)
        assert spec.solver == {"path": "tridiagonal", "dim": 300,
                               "nnz": op.matrix.nnz}
        ref = _dense_reference(op, 6)
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10
        assert np.max(spec.residuals) < 1e-10
        assert spec.gram_residual() < 1e-10

    @pytest.mark.parametrize("amended", [True, False])
    def test_sparse_matches_dense_full_grid(self, amended):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=1.0,
                             beta_label=0.0, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=24,
                             use_amended_transform=amended)
        op = quantum.build_reduced_hamiltonian(pb)
        spec = quantum.eigensolve(op, 5)
        assert spec.solver["path"] == "banded"
        ref = _dense_reference(op, 5)
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10
        assert spec.gram_residual() < 1e-10

    @pytest.mark.parametrize("model", FULL_KINDS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("amended", [True, False],
                             ids=["amended", "raw"])
    @pytest.mark.parametrize("labels", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
                             ids=["00", "10", "11"])
    def test_banded_matches_dense(self, model, amended, labels):
        # an n = 2 chamber of p points per axis has bandwidth at most
        # p - 1 and p (p - 1) / 2 unknowns, so b^2 <= 2 dim holds on every
        # one; the step (1, 1) of the cQ term sets the bandwidth p - 1
        op = quantum.build_reduced_hamiltonian(
            _full_grid(model, 2, labels, amended))
        spec = quantum.eigensolve(op, 5)
        ref = _dense_reference(op, 5)
        band = 14 if model.kind == "DAlembert" else 15
        assert spec.solver == {"path": "banded", "dim": 120,
                               "nnz": op.matrix.nnz, "bandwidth": band,
                               "shift": spec.solver["shift"]}
        assert spec.solver["shift"] < op.floor <= ref[0]
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10
        assert np.max(spec.residuals) < 1e-10
        assert spec.gram_residual() < 1e-10

    @pytest.mark.parametrize("model", FULL_KINDS, ids=lambda m: m.kind)
    def test_n3_full_grid_is_sparse(self, model):
        # grid3-like chambers are far wider than sqrt(2 dim)
        op = quantum.build_reduced_hamiltonian(
            _full_grid(model, 3, (1.0, 0.0)))
        spec = quantum.eigensolve(op, 5)
        assert spec.solver == {"path": "sparse", "dim": op.dim,
                               "nnz": op.matrix.nnz}
        assert np.max(spec.residuals) < 1e-10
        assert op.floor <= spec.eigenvalues[0]

    def test_plain_matrix_is_sparse(self):
        # a bare matrix carries no floor to certify
        op = quantum.build_reduced_hamiltonian(_full_grid(AFFAFF, 2,
                                                          (1.0, 0.0)))
        spec = quantum.eigensolve(op.matrix, 5)
        assert spec.solver["path"] == "sparse"
        ref = _dense_reference(op, 5)
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10

    @pytest.mark.parametrize("amended", [True, False],
                             ids=["amended", "raw"])
    def test_floor_above_a_level_is_not_used(self, amended):
        # the banded Cholesky factor of H - shift I fails when the shift
        # lies above a level, and the solve falls through to ARPACK "SA"
        op = quantum.build_reduced_hamiltonian(
            _full_grid(AFFAFF, 2, (1.0, 1.0), amended))
        ref = _dense_reference(op, 5)
        raised = dataclasses.replace(op, floor=0.5 * (ref[1] + ref[2]))
        spec = quantum.eigensolve(raised, 5)
        assert spec.solver["path"] == "sparse"
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10
        assert np.max(spec.residuals) < 1e-10

    def test_banded_is_deterministic(self):
        op = quantum.build_reduced_hamiltonian(_full_grid(AFFAFF, 2,
                                                          (1.0, 1.0)))
        first, second = (quantum.eigensolve(op, 5) for _ in range(2))
        assert first.solver["path"] == "banded"
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_solver_keys_of_each_path(self):
        tri = quantum.build_reduced_hamiltonian(
            SpectralProblem(**self.ONE_D["shear_raw"]))
        full2 = quantum.build_reduced_hamiltonian(
            _full_grid(AFFAFF, 2, (1.0, 0.0)))
        full3 = quantum.build_reduced_hamiltonian(
            _full_grid(AFFAFF, 3, (1.0, 0.0)))
        base = {"path", "dim", "nnz"}
        for operator, path, keys in (
                (tri, "tridiagonal", base),
                (full2, "banded", base | {"bandwidth", "shift"}),
                (full3, "sparse", base),
                (np.diag([3.0, 1.0, 2.0]), "dense", base)):
            solver = quantum.eigensolve(operator, 2).solver
            assert solver["path"] == path
            assert set(solver) == keys

    def test_sparse_matches_dense_complex_blocks(self):
        # the assembled n = 3 couplings are real for every label, so the
        # complex Hermitian case is made by a diagonal unitary similarity
        # of an n = 3 block operator, which leaves the levels unchanged;
        # a principal submatrix keeps the dense reference small
        pb = SpectralProblem(n=3, model=AFFAFF, alpha_label=1.0,
                             beta_label=1.0, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=16)
        H = quantum.build_reduced_hamiltonian(pb).matrix[:900, :900]
        phases = np.exp(1j * np.linspace(0.0, 40.0, 900))
        U = sp.diags(phases)
        Hc = sp.csr_matrix(U @ H @ U.conj())
        assert np.max(np.abs(Hc.imag)) > 0.1
        spec = quantum.eigensolve(Hc, 5)
        assert spec.solver["path"] == "sparse"
        ref = scipy.linalg.eigvalsh(H.toarray(), subset_by_index=(0, 4))
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10
        assert np.max(spec.residuals) < 1e-10

    def test_periodic_raw_shear(self):
        # the wrapped corners of the flux stencil keep diag(P) H symmetric
        mt = ModelSpec(kind="TrigUn", A=1.0, B=0.0)
        pb = SpectralProblem(n=2, model=mt, alpha_label=1.0,
                             beta_label=1.0, coordinate="shear",
                             q_min=0.3, q_max=0.3 + 2.0 * np.pi,
                             points=128, use_amended_transform=False)
        op = quantum.build_reduced_hamiltonian(pb)
        WH = op.weight[:, None] * op.matrix
        assert np.max(np.abs(WH - WH.T)) / np.max(np.abs(WH)) < 1e-10
        spec = quantum.eigensolve(op, 4)
        assert spec.solver["path"] == "sparse"
        ref = _dense_reference(op, 4)
        assert np.max(np.abs(spec.eigenvalues - ref) / np.abs(ref)) < 1e-10

    def test_count_equal_to_dim(self):
        # second differences with h = 0.1; the periodic one wraps its
        # corners round
        second = ([-100.0] * 19, [200.0] * 20, [-100.0] * 19)
        dirichlet = sp.diags_array(second, offsets=[-1, 0, 1], format="csr")
        periodic = sp.diags_array(second + ([-100.0], [-100.0]),
                                  offsets=[-1, 0, 1, -19, 19], format="csr")
        for mat, path in ((periodic, "dense"), (dirichlet, "tridiagonal")):
            for count in (19, 20):
                spec = quantum.eigensolve(mat, count)
                assert spec.solver["path"] == path
                ref = scipy.linalg.eigvalsh(mat.toarray())[:count]
                assert np.allclose(spec.eigenvalues, ref, rtol=1e-12,
                                   atol=1e-9)
                assert np.max(spec.residuals) < 1e-12

    def test_64_squared_grid_is_sparse(self):
        pb = SpectralProblem(n=2, model=AFFAFF, alpha_label=1.0,
                             beta_label=0.0, coordinate="full",
                             q_min=-2.0, q_max=2.0, points=64)
        spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(pb), 6)
        assert spec.solver["path"] == "banded"
        assert spec.solver["dim"] == 64 * 63 // 2
        assert spec.solver["bandwidth"] == 63
        assert np.max(spec.residuals) < 1e-10

    def test_dense_input_stays_dense(self):
        spec = quantum.eigensolve(np.diag([3.0, 1.0, 2.0]), 2)
        assert spec.solver == {"path": "dense", "dim": 3, "nnz": 3}


def _unweighted_problems():
    """Every family of unweighted operator: full grids of each kind, the
    periodic TrigUn grids and the amended Dirichlet 1-d grids."""
    for model in FULL_KINDS:
        for n in (2, 3):
            for labels in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
                yield f"{model.kind}-n{n}-{labels[0]:g}{labels[1]:g}", \
                    _full_grid(model, n, labels)
    trig = ModelSpec(kind="TrigUn", A=1.0, B=0.3)
    for coordinate in ("shear", "dilatation"):
        yield f"TrigUn-{coordinate}", SpectralProblem(
            n=2, model=trig, alpha_label=1.0, beta_label=1.0,
            coordinate=coordinate, q_min=0.3, q_max=0.3 + 2.0 * np.pi,
            points=64)
    # the amended Dirichlet 1-d grids, which reach the tridiagonal path
    for name in ("dilatation", "shear_amended"):
        problem = TestSolverPaths.ONE_D[name]
        yield f"{problem['model'].kind}-{name}", SpectralProblem(**problem)


UNWEIGHTED = dict(_unweighted_problems())


@pytest.mark.parametrize("name", UNWEIGHTED)
def test_unweighted_operator_exactly_symmetric(name):
    # eigensolve hands the sparse-path ones to ARPACK without averaging
    # them with their adjoints
    op = quantum.build_reduced_hamiltonian(UNWEIGHTED[name])
    assert isinstance(op.matrix, sp.csr_array)
    assert op.weight is None
    assert abs(op.matrix - op.matrix.T.conj()).max() == 0.0


class TestInnerProduct:
    def test_zero(self):
        x = np.linspace(0.1, 2.0, 40)
        f = np.sin(x)
        assert reference.inner_product(f, np.zeros_like(f), "haar", x) == 0.0

    def test_positivity(self, rng):
        x = np.linspace(0.1, 2.0, 60)
        f = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        val = reference.inner_product(f, f, "haar", x)
        assert abs(val.imag) < 1e-14
        assert val.real >= 0.0

    def test_amended_transform_consistency(self):
        # <f|g>_P with Phi = sqrt(P) Psi turns into the plain product of
        # the amended amplitudes
        x = np.linspace(0.1, 3.0, 400)
        P = np.sinh(x) ** 2
        f = np.exp(-x) * np.sin(2 * x)
        g = np.exp(-0.5 * x)
        weighted = reference.inner_product(f, g, "haar", x)
        plain = reference.inner_product(np.sqrt(P) * f, np.sqrt(P) * g,
                                      "none", x)
        assert weighted == pytest.approx(plain, rel=1e-10)

    def test_matrix_amplitudes_normalized(self):
        x = np.linspace(0.0, 1.0, 50)
        f = np.ones((50, 2, 3))
        val = reference.inner_product(f, f, "none", x)
        # (1/(2*3)) * integral of Tr(f^+ f) = (1/6) * 6 * 1
        assert val == pytest.approx(1.0, rel=1e-12)
