import numpy as np
import pytest

from affinebody import checks, phase, poisson
from affinebody.checks import random_linear_observable as random_linear
from affinebody.errors import UnknownObservable
from affinebody.phase import ModelSpec, PotentialSpec

from reference import gradients, squared_norm_observable
from test_dynamics import POTENTIALS, kind_state
from test_phase import ALL_KINDS, random_state


class TestCanonicalPairs:
    def test_q_p_pairs(self, rng):
        st_ = random_state(rng, 3)
        q1 = poisson.coordinate_observable("q", 3, 0)
        p1 = poisson.coordinate_observable("p", 3, 0)
        p2 = poisson.coordinate_observable("p", 3, 1)
        assert poisson.poisson_bracket(q1, p1, st_) == pytest.approx(1.0)
        assert poisson.poisson_bracket(q1, p2, st_) == pytest.approx(0.0)

    def test_m_n_same_pair(self, rng):
        # {M_12, N_12}: the delta terms cancel pairwise
        st_ = random_state(rng, 3)
        m12 = poisson.coordinate_observable("M", 3, 0, 1)
        n12 = poisson.coordinate_observable("N", 3, 0, 1)
        assert poisson.poisson_bracket(m12, n12, st_) == pytest.approx(
            0.0, abs=1e-15)

    def test_rho_tau_blocks_commute(self, rng):
        # every {rho_ab, tau_cd} vanishes: the two factors are disjoint
        st_ = random_state(rng, 3)
        for a in range(3):
            for b in range(a + 1, 3):
                rho = poisson.coordinate_observable("rho", 3, a, b)
                for c in range(3):
                    for d in range(c + 1, 3):
                        tau = poisson.coordinate_observable("tau", 3, c, d)
                        val = poisson.poisson_bracket(rho, tau, st_)
                        assert val == pytest.approx(0.0, abs=1e-15)

    def test_unknown_tag(self):
        with pytest.raises(UnknownObservable):
            poisson.coordinate_observable("z", 3, 0)


class TestAlgebra:
    def test_antisymmetry(self, rng):
        for _ in range(50):
            F = random_linear(rng, 3)
            G = random_linear(rng, 3)
            st_ = random_state(rng, 3)
            fg = poisson.poisson_bracket(F, G, st_)
            gf = poisson.poisson_bracket(G, F, st_)
            assert fg == pytest.approx(-gf, abs=1e-12)

    def test_jacobi(self, rng):
        # brackets of linear observables close on linear observables, so
        # the inner brackets are formed exactly and no finite differences
        # enter the identity
        worst = 0.0
        for _ in range(200):
            F = random_linear(rng, 3)
            G = random_linear(rng, 3)
            H = random_linear(rng, 3)
            st_ = random_state(rng, 3)
            total = (poisson.poisson_bracket(
                         F, poisson.bracket_observable(G, H), st_)
                     + poisson.poisson_bracket(
                         G, poisson.bracket_observable(H, F), st_)
                     + poisson.poisson_bracket(
                         H, poisson.bracket_observable(F, G), st_))
            worst = max(worst, abs(total))
        assert worst < 1e-10

    def test_leibniz(self, rng):
        for _ in range(50):
            F = random_linear(rng, 3)
            G = random_linear(rng, 3)
            H = random_linear(rng, 3)
            st_ = random_state(rng, 3)
            FG = poisson.ProductObservable(F, G)
            lhs = poisson.poisson_bracket(FG, H, st_)
            rhs = (F.value(st_) * poisson.poisson_bracket(G, H, st_)
                   + G.value(st_) * poisson.poisson_bracket(F, H, st_))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bracket_observable_matches_pointwise(self, rng, n):
        F = random_linear(rng, n)
        G = random_linear(rng, n)
        closed = poisson.bracket_observable(F, G)
        for _ in range(10):
            st_ = random_state(rng, n)
            assert closed.value(st_) == pytest.approx(
                poisson.poisson_bracket(F, G, st_), rel=1e-12, abs=1e-12)


class TestStacks:
    # as many trials as n at (3, 3): a value per trial times gradients of
    # shape (trials, n) broadcasts along the wrong axis without raising
    @pytest.mark.parametrize("n,trials", [(3, 3), (2, 5), (4, 4), (1, 2)])
    def test_stacked_bracket_matches_each_state(self, rng, n, trials):
        draws = [(random_linear(rng, n), random_linear(rng, n),
                  random_linear(rng, n), checks.random_state(rng, n))
                 for _ in range(trials)]
        *observables, states = zip(*draws)
        F, G, H = (checks._stacked_observable(o) for o in observables)
        state = checks._stacked_state(states)

        def agree(pair):
            got = poisson.bracket_values(*pair(F, G, H), state)
            assert got.shape == (trials,)
            for k, (f, g, h, st_) in enumerate(draws):
                assert got[k] == poisson.poisson_bracket(*pair(f, g, h), st_)

        agree(lambda f, g, h: (f, g))
        agree(lambda f, g, h: (g, f))
        agree(lambda f, g, h: (poisson.ProductObservable(f, g), h))
        agree(lambda f, g, h: (h, poisson.bracket_observable(f, g)))
        values = F.value(state)
        for k, (f, *_, st_) in enumerate(draws):
            assert values[k] == f.value(st_)


class TestConservedObservables:
    def test_casimir_commutes_with_linear(self, rng):
        # C2 brackets to zero against every coordinate observable
        c2 = poisson.FunctionObservable(
            "C2",
            lambda s: phase.casimir_csl2(s),
            None)
        # numeric gradient for the Casimir
        eps = 1e-6

        def grad(s):
            n = s.n
            g = poisson.PhaseGradient.zero(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = eps
                g.dq[i] = (phase.casimir_csl2(
                    phase.ReducedState(s.q + e, s.p, M=s.M, N=s.N))
                    - phase.casimir_csl2(
                    phase.ReducedState(s.q - e, s.p, M=s.M, N=s.N))) \
                    / (2 * eps)
                g.dp[i] = (phase.casimir_csl2(
                    phase.ReducedState(s.q, s.p + e, M=s.M, N=s.N))
                    - phase.casimir_csl2(
                    phase.ReducedState(s.q, s.p - e, M=s.M, N=s.N))) \
                    / (2 * eps)
            for a in range(n):
                for b in range(a + 1, n):
                    E = np.zeros((n, n))
                    E[a, b] = eps
                    E[b, a] = -eps
                    g.dM[a, b] = (phase.casimir_csl2(
                        phase.ReducedState(s.q, s.p, M=s.M + E, N=s.N))
                        - phase.casimir_csl2(
                        phase.ReducedState(s.q, s.p, M=s.M - E, N=s.N))) \
                        / (2 * eps)
                    g.dN[a, b] = (phase.casimir_csl2(
                        phase.ReducedState(s.q, s.p, M=s.M, N=s.N + E))
                        - phase.casimir_csl2(
                        phase.ReducedState(s.q, s.p, M=s.M, N=s.N - E))) \
                        / (2 * eps)
                    g.dM[b, a] = -g.dM[a, b]
                    g.dN[b, a] = -g.dN[a, b]
            return g

        c2.gradient = grad
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        H = poisson.hamiltonian_observable(model, PotentialSpec.none())
        for _ in range(10):
            st_ = random_state(rng, 3)
            val = poisson.poisson_bracket(c2, H, st_)
            assert abs(val) < 1e-5   # finite-difference limited

    def test_squared_norms_commute_with_hamiltonian(self, rng):
        # ||rho||^2 and ||tau||^2 are conserved by the metric-restricted
        # kinds that add them to the energy
        for kind, extra in (("AffMetr", "tau"), ("MetrAff", "rho")):
            model = ModelSpec(kind=kind, I=0.8, A=1.1, B=0.2)
            H = poisson.hamiltonian_observable(model, PotentialSpec.none())
            obs = squared_norm_observable(extra, 3)
            for _ in range(10):
                st_ = random_state(rng, 3)
                val = poisson.poisson_bracket(obs, H, st_)
                assert abs(val) < 1e-10


class TestHamiltonianObservable:
    @pytest.mark.parametrize("model", ALL_KINDS,
                             ids=[m.kind for m in ALL_KINDS])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pot", POTENTIALS,
                             ids=["none", "harmonic_well"])
    def test_matches_reference(self, model, n, pot, rng):
        # value and every gradient block, G_M and G_N compared directly:
        # at n = 2 their commutators vanish, so the flow alone checks
        # neither
        H = poisson.hamiltonian_observable(model, pot)
        for _ in range(5):
            st_ = kind_state(rng, model, n)
            ref = gradients(model, pot, st_.q, st_.p, st_.M, st_.N)
            got = H.gradient(st_)
            for a, b in zip((got.dq, got.dp, got.dM, got.dN), ref):
                assert np.max(np.abs(a - b)) \
                    <= 1e-13 * max(1.0, np.max(np.abs(b)))
            value = phase.hamiltonian(model, pot, st_)
            assert abs(H.value(st_) - value) <= 1e-13 * max(1.0, abs(value))
