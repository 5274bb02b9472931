import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinebody import checks, phase, poisson
from affinebody.errors import ConfigError, DegenerateInertia, DomainError
from affinebody.phase import ModelSpec, PotentialSpec, ReducedState
from reference import gradients, hamiltonian_affaff_lattice


# the tests' data was drawn with the q_i at least 0.1 apart
random_state = functools.partial(checks.random_state, min_gap=0.1)


ALL_KINDS = [
    ModelSpec(kind="AffAff", A=1.3, B=0.4),
    ModelSpec(kind="AffMetr", I=0.7, A=1.1, B=0.2),
    ModelSpec(kind="MetrAff", I=0.9, A=0.8, B=0.1),
    ModelSpec(kind="MetrMetr", a=1.2, b=2.1, c=0.6, d=1.4),
    ModelSpec(kind="DAlembert", I=1.7),
    ModelSpec(kind="TrigUn", A=1.3, B=0.4),
]


class TestEnergy:
    def test_potential_only(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        pot = PotentialSpec.harmonic_well(2.0)
        st_ = ReducedState(np.array([0.5, -0.1]), np.zeros(2))
        val = phase.hamiltonian(model, pot, st_)
        assert val == pytest.approx(pot.value(st_.q), abs=1e-14)

    def test_effective_potential_reference(self):
        # n=2, A=1, B=0, p=0, M^1_2=4, N=0, x = 2 asinh(1):
        # energy = 16 / (16 sh^2(asinh 1)) = 1
        x = 2.0 * np.arcsinh(1.0)
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        M = np.array([[0.0, 4.0], [-4.0, 0.0]])
        st_ = ReducedState(np.array([0.5 * x, -0.5 * x]), np.zeros(2), M=M)
        val = phase.hamiltonian(model, PotentialSpec.none(), st_)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_casimir_split_identity(self, rng):
        # doubly-invariant energy = C2/(2A) + ptot^2/(2n(A+nB)) + V
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        pot = PotentialSpec.harmonic_well(0.7)
        for _ in range(100):
            st_ = random_state(rng, 3)
            direct = phase.hamiltonian(model, pot, st_)
            split = (phase.casimir_csl2(st_) / (2.0 * model.A)
                     + np.sum(st_.p) ** 2 / model.trace_coefficient(3)
                     + pot.value(st_.q))
            assert direct == pytest.approx(split, rel=1e-10, abs=1e-10)

    def test_lattice_form_agrees(self, rng):
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        pot = PotentialSpec.none()
        for _ in range(20):
            st_ = random_state(rng, 3)
            a = phase.hamiltonian(model, pot, st_)
            b = hamiltonian_affaff_lattice(model, pot, st_)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_trig_domain(self):
        # the TrigUn Hamiltonian is 2 pi-periodic in every angle: an angle
        # outside (-pi, pi] gives the value of its wrapped representative
        model = ModelSpec(kind="TrigUn", A=1.0)
        pot = PotentialSpec.none()
        M = np.array([[0.0, 0.2], [-0.2, 0.0]])
        N = np.array([[0.0, 0.1], [-0.1, 0.0]])
        p = np.array([0.3, 0.1])
        st_ = ReducedState(np.array([4.0, 0.0]), p, M=M, N=N)
        wrapped = ReducedState(phase.wrap_angle(st_.q), p, M=M, N=N)
        value = phase.hamiltonian(model, pot, st_)
        assert wrapped.q[0] == pytest.approx(4.0 - 2.0 * np.pi, abs=1e-15)
        assert value == pytest.approx(phase.hamiltonian(model, pot, wrapped),
                                      rel=1e-14, abs=1e-14)
        assert value == pytest.approx(0.0566326255951838, rel=1e-14,
                                      abs=1e-14)
        observable = poisson.hamiltonian_observable(model, pot)
        assert value == pytest.approx(observable.value(st_), rel=1e-14,
                                      abs=1e-14)

    def test_degenerate_coupling_rejected(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        st_ = ReducedState(np.array([0.2, 0.2]), np.zeros(2), M=M)
        with pytest.raises(DegenerateInertia):
            phase.hamiltonian(model, PotentialSpec.none(), st_)

    def test_degenerate_zero_coupling_ok(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.2, 0.2]), np.array([1.0, 0.0]))
        val = phase.hamiltonian(model, PotentialSpec.none(), st_)
        assert np.isfinite(val)


class TestCasimir:
    def test_uniform_p_zero(self):
        st_ = ReducedState(np.array([1.0, 0.0]), np.array([0.7, 0.7]))
        assert phase.casimir_csl2(st_) == pytest.approx(0.0, abs=1e-14)

    def test_reference_value(self):
        # n=2, p = (1, -1), M = N = 0 -> (1/4) (p1-p2)^2 + (1/4)(p2-p1)^2 = 2
        st_ = ReducedState(np.array([1.0, 0.0]), np.array([1.0, -1.0]))
        assert phase.casimir_csl2(st_) == pytest.approx(2.0, abs=1e-14)

    def test_translation_invariance(self, rng):
        st_ = random_state(rng, 3)
        base = phase.casimir_csl2(st_)
        shifted = ReducedState(st_.q, st_.p + 3.7, M=st_.M, N=st_.N)
        assert phase.casimir_csl2(shifted) == pytest.approx(base, rel=1e-12)


class TestKineticConstants:
    @pytest.mark.parametrize("model", ALL_KINDS,
                             ids=[m.kind for m in ALL_KINDS])
    @pytest.mark.parametrize("n", [2, 3])
    def test_table_rebuilds_oracle(self, model, n, rng):
        # cL sum p^2 + cQ (sum p)^2 + sum_{a<b} (cM M^2/dm^2 + cN N^2/dn^2)
        # + c_rho |rho|^2 + c_tau |tau|^2 is the matrix-form kinetic energy
        cL, cQ, cM, cN, c_rho, c_tau = model.kinetic_constants(n)
        ia, ib = np.triu_indices(n, k=1)
        for _ in range(20):
            st_ = random_state(rng, n)
            q, p = st_.q, st_.p
            if model.kind == "DAlembert":
                Q = np.exp(q)
                p = p / Q
                dm, dn = Q[ia] - Q[ib], Q[ia] + Q[ib]
            else:
                trig = model.kind == "TrigUn"
                x = 0.5 * (q[ia] - q[ib])
                dm, dn = (np.sin(x), np.cos(x)) if trig \
                    else (np.sinh(x), np.cosh(x))
            table = (cL * np.sum(p ** 2) + cQ * np.sum(p) ** 2
                     + np.sum(cM * st_.M[ia, ib] ** 2 / dm ** 2
                              + cN * st_.N[ia, ib] ** 2 / dn ** 2)
                     + c_rho * np.sum(st_.rho[ia, ib] ** 2)
                     + c_tau * np.sum(st_.tau[ia, ib] ** 2))
            oracle = phase.kinetic_energy(model, st_.q, st_.p, st_.M, st_.N)
            assert table == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestGradients:
    @pytest.mark.parametrize("model", ALL_KINDS,
                             ids=[m.kind for m in ALL_KINDS])
    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_difference(self, model, n, rng):
        pot = PotentialSpec.harmonic_well(2.0)
        eps = 1e-6
        for _ in range(3):
            st_ = random_state(rng, n, scale=0.6, min_gap=0.3)
            if model.kind == "TrigUn":
                st_ = ReducedState(0.5 * st_.q, st_.p, M=st_.M, N=st_.N)
            dq, dp, GM, GN = gradients(model, pot, st_.q, st_.p, st_.M,
                                       st_.N)

            def ham(q, p, M, N):
                return phase.hamiltonian(model, pot,
                                         ReducedState(q, p, M=M, N=N))

            for i in range(n):
                e = np.zeros(n)
                e[i] = eps
                num = (ham(st_.q + e, st_.p, st_.M, st_.N)
                       - ham(st_.q - e, st_.p, st_.M, st_.N)) / (2 * eps)
                assert dq[i] == pytest.approx(num, abs=5e-6)
                num = (ham(st_.q, st_.p + e, st_.M, st_.N)
                       - ham(st_.q, st_.p - e, st_.M, st_.N)) / (2 * eps)
                assert dp[i] == pytest.approx(num, abs=5e-6)
            for a in range(n):
                for b in range(a + 1, n):
                    E = np.zeros((n, n))
                    E[a, b] = eps
                    E[b, a] = -eps
                    num = (ham(st_.q, st_.p, st_.M + E, st_.N)
                           - ham(st_.q, st_.p, st_.M - E, st_.N)) / (2 * eps)
                    assert GM[a, b] == pytest.approx(num, abs=5e-6)
                    num = (ham(st_.q, st_.p, st_.M, st_.N + E)
                           - ham(st_.q, st_.p, st_.M, st_.N - E)) / (2 * eps)
                    assert GN[a, b] == pytest.approx(num, abs=5e-6)


class TestSpecs:
    def test_model_roundtrip(self):
        for model in ALL_KINDS:
            again = ModelSpec.from_json(model.to_json())
            assert again == model

    def test_model_unknown_key(self):
        with pytest.raises(ConfigError):
            ModelSpec.from_json({"kind": "AffAff", "bogus": 1})

    def test_model_unknown_kind(self):
        with pytest.raises(ConfigError):
            ModelSpec(kind="Nope")

    def test_metrmetr_requires_constants(self):
        with pytest.raises(ConfigError):
            ModelSpec(kind="MetrMetr", a=1.0)

    def test_potential_roundtrip(self):
        for pot in (PotentialSpec.none(), PotentialSpec.harmonic_well(2.0),
                    PotentialSpec.box(1.5),
                    PotentialSpec.steep_oscillator(1.0, 4)):
            assert PotentialSpec.from_json(pot.to_json()) == pot

    def test_potential_unknown_key(self):
        with pytest.raises(ConfigError):
            PotentialSpec.from_json({"kind": "none", "extra": 2})

    def test_box_slope_rejected(self):
        with pytest.raises(DomainError):
            PotentialSpec.box(1.0).dilatational_slope(0.2)
        with pytest.raises(DomainError):
            PotentialSpec.box(1.0).dilatational_slope(
                np.zeros((3, 1000)), out=np.empty((3, 1000)))

    @pytest.mark.parametrize("pot", [
        PotentialSpec.none(), PotentialSpec.harmonic_well(1.5),
        PotentialSpec.steep_oscillator(0.7, 4)],
        ids=["none", "harmonic_well", "steep_oscillator"])
    def test_slope_into_out(self, pot):
        qbar = np.random.default_rng(3).uniform(-2.0, 2.0, (3, 1000))
        out = np.full((3, 1000), np.nan)
        assert pot.dilatational_slope(qbar, out=out) is out
        assert np.array_equal(out, pot.dilatational_slope(qbar))
        # a float in, a float out, as the emitted single-state code needs
        if not pot.is_trivial:
            assert type(pot.dilatational_slope(0.3)) is float

    def test_steep_oscillator_odd_exponent(self):
        with pytest.raises(ConfigError):
            PotentialSpec.steep_oscillator(1.0, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0,
                     allow_nan=False))
    def test_wrap_angle_range(self, x):
        w = float(phase.wrap_angle(x))
        assert -np.pi < w <= np.pi
        # same angle modulo 2 pi
        assert abs(np.sin(w) - np.sin(x)) < 1e-12
        assert abs(np.cos(w) - np.cos(x)) < 1e-12


class TestReducedState:
    def test_rho_tau_definitions(self, rng):
        st_ = random_state(rng, 3)
        assert np.allclose(st_.rho, 0.5 * (st_.N - st_.M))
        assert np.allclose(st_.tau, -0.5 * (st_.M + st_.N))
        assert np.allclose(st_.M + st_.M.T, 0.0)
        assert np.allclose(st_.N + st_.N.T, 0.0)

    def test_non_skew_rejected(self):
        with pytest.raises(Exception):
            ReducedState(np.array([1.0, 0.0]), np.zeros(2),
                         M=np.array([[0.0, 1.0], [1.0, 0.0]]))
