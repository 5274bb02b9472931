import json
import math
import pathlib

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings, strategies as st

from affinebody import checks, dynamics, kinematics, phase, poisson
from affinebody.dynamics import StepControl
from affinebody.errors import (ConfigError, DegenerateInertia, DomainError,
                               ShapeMismatch, StepFailure)
from affinebody.phase import ModelSpec, PotentialSpec, ReducedState

import reference
from reference import gradients, rk4_step
from test_phase import ALL_KINDS, random_state

GEODETIC = PotentialSpec.none()
WELL = PotentialSpec.harmonic_well(1.5)
POTENTIALS = [GEODETIC, WELL]
MODELS = {m.kind: m for m in ALL_KINDS}


def kind_state(rng, model, n):
    """Random nondegenerate state; TrigUn angles kept inside (-pi, pi]."""
    st_ = random_state(rng, n, scale=0.6, min_gap=0.3)
    if model.kind == "TrigUn":
        st_ = ReducedState(0.5 * st_.q, st_.p, M=st_.M, N=st_.N)
    return st_


# TrigUn (A = 1.3, B = 0.4) in WELL: q_1 - q_3 climbs to the N-type
# antipodal wall at pi, and RK4 at step 0.0025 steps across it
WALL_CROSSING = ReducedState([0.52026, 0.09401, -0.43017],
                             [0.01544, 0.20154, -0.08683],
                             m_upper=[-1.16971, 1.12425, -0.44865],
                             n_upper=[0.00901, -0.11979, -0.04984])


kinds = pytest.mark.parametrize("model", ALL_KINDS,
                                ids=[m.kind for m in ALL_KINDS])
sizes = pytest.mark.parametrize("n", [2, 3])
potentials = pytest.mark.parametrize("pot", POTENTIALS,
                                     ids=["none", "harmonic_well"])


class TestEomRhs:
    def test_equilibrium(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.5, -0.5]), np.zeros(2))
        rhs = dynamics.eom_rhs(model, GEODETIC, st_)
        assert np.allclose(rhs.q, 0.0)
        assert np.allclose(rhs.p, 0.0)
        assert np.allclose(rhs.M, 0.0)
        assert np.allclose(rhs.N, 0.0)

    def test_free_streaming(self):
        # with vanishing couplings: dq/dt = p/alpha + (pbar/beta) * ones,
        # dp/dt = dM/dt = dN/dt = 0
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        p = np.array([0.7, -0.2, 0.4])
        st_ = ReducedState(np.array([1.0, 0.0, -1.0]), p)
        rhs = dynamics.eom_rhs(model, GEODETIC, st_)
        expected = p / model.alpha + np.sum(p) / reference.beta(model, 3)
        assert np.allclose(rhs.q, expected, atol=1e-14)
        assert np.allclose(rhs.p, 0.0, atol=1e-14)
        assert np.allclose(rhs.M, 0.0)
        assert np.allclose(rhs.N, 0.0)

    def test_bracket_consistency(self, rng):
        # independent oracle: {f, H} with central finite differences on H
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        pot = PotentialSpec.harmonic_well(1.5)
        eps = 1e-6

        def fd_hamiltonian_observable():
            def value(s):
                return phase.hamiltonian(model, pot, s)

            def grad(s):
                n = s.n
                g = poisson.PhaseGradient.zero(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = eps
                    g.dq[i] = (value(ReducedState(s.q + e, s.p, M=s.M,
                                                  N=s.N))
                               - value(ReducedState(s.q - e, s.p, M=s.M,
                                                    N=s.N))) / (2 * eps)
                    g.dp[i] = (value(ReducedState(s.q, s.p + e, M=s.M,
                                                  N=s.N))
                               - value(ReducedState(s.q, s.p - e, M=s.M,
                                                    N=s.N))) / (2 * eps)
                for a in range(n):
                    for b in range(a + 1, n):
                        E = np.zeros((n, n))
                        E[a, b] = eps
                        E[b, a] = -eps
                        g.dM[a, b] = (value(ReducedState(s.q, s.p,
                                                         M=s.M + E, N=s.N))
                                      - value(ReducedState(
                                          s.q, s.p, M=s.M - E, N=s.N))) \
                            / (2 * eps)
                        g.dN[a, b] = (value(ReducedState(s.q, s.p, M=s.M,
                                                         N=s.N + E))
                                      - value(ReducedState(
                                          s.q, s.p, M=s.M, N=s.N - E))) \
                            / (2 * eps)
                        g.dM[b, a] = -g.dM[a, b]
                        g.dN[b, a] = -g.dN[a, b]
                return g

            return poisson.FunctionObservable("H_fd", value, grad)

        H = fd_hamiltonian_observable()
        worst = 0.0
        for _ in range(50):
            st_ = random_state(rng, 3, scale=0.6, min_gap=0.3)
            rhs = dynamics.eom_rhs(model, pot, st_)
            for i in range(3):
                f = poisson.coordinate_observable("q", 3, i)
                worst = max(worst, abs(
                    poisson.poisson_bracket(f, H, st_) - rhs.q[i]))
                f = poisson.coordinate_observable("p", 3, i)
                worst = max(worst, abs(
                    poisson.poisson_bracket(f, H, st_) - rhs.p[i]))
            for a in range(3):
                for b in range(a + 1, 3):
                    f = poisson.coordinate_observable("M", 3, a, b)
                    worst = max(worst, abs(
                        poisson.poisson_bracket(f, H, st_) - rhs.M[a, b]))
                    f = poisson.coordinate_observable("N", 3, a, b)
                    worst = max(worst, abs(
                        poisson.poisson_bracket(f, H, st_) - rhs.N[a, b]))
        assert worst < 1e-7


    @kinds
    @sizes
    @potentials
    def test_matches_phase_gradients(self, model, n, pot, rng):
        # matrix-form oracle: dq = dH/dp, dp = -dH/dq, and the commutators
        # of the skew gradient matrices from the reference gradients
        for _ in range(5):
            st_ = kind_state(rng, model, n)
            dq, dp, GM, GN = gradients(model, pot, st_.q, st_.p, st_.M,
                                       st_.N)
            M, N = st_.M, st_.N
            rhs = dynamics.eom_rhs(model, pot, st_)
            scale = max(1.0, np.max(np.abs(dynamics.pack_state(rhs))))
            assert np.max(np.abs(rhs.q - dp)) < 1e-13 * scale
            assert np.max(np.abs(rhs.p + dq)) < 1e-13 * scale
            dM = M @ GM - GM @ M + N @ GN - GN @ N
            dN = N @ GM - GM @ N + M @ GN - GN @ M
            assert np.max(np.abs(rhs.M - dM)) < 1e-13 * scale
            assert np.max(np.abs(rhs.N - dN)) < 1e-13 * scale

    @kinds
    @sizes
    @potentials
    def test_matches_poisson_bracket(self, model, n, pot, rng):
        # dF/dt = {F, H} for every coordinate observable F
        H = poisson.hamiltonian_observable(model, pot)
        for _ in range(3):
            st_ = kind_state(rng, model, n)
            rhs = dynamics.eom_rhs(model, pot, st_)
            scale = max(1.0, np.max(np.abs(dynamics.pack_state(rhs))))
            for i in range(n):
                for tag, value in (("q", rhs.q[i]), ("p", rhs.p[i])):
                    f = poisson.coordinate_observable(tag, n, i)
                    assert abs(poisson.poisson_bracket(f, H, st_) - value) \
                        < 1e-12 * scale
            for a in range(n):
                for b in range(a + 1, n):
                    for tag, value in (("M", rhs.M[a, b]), ("N", rhs.N[a, b])):
                        f = poisson.coordinate_observable(tag, n, a, b)
                        assert abs(poisson.poisson_bracket(f, H, st_)
                                   - value) < 1e-12 * scale

    @kinds
    @sizes
    @potentials
    def test_batch_matches_single(self, model, n, pot, rng):
        states = [kind_state(rng, model, n) for _ in range(6)]
        ys = np.array([dynamics.pack_state(s) for s in states])
        kernel = dynamics.EomKernel(model, pot, n)
        batched = kernel.rhs(ys.reshape(2, 3, -1)).reshape(6, -1)
        energy, casimir = kernel.energies(ys)
        for k, s in enumerate(states):
            single = dynamics.pack_state(dynamics.eom_rhs(model, pot, s))
            assert np.allclose(batched[k], single, rtol=1e-14, atol=1e-14)
            assert energy[k] == pytest.approx(
                phase.hamiltonian(model, pot, s), rel=1e-12, abs=1e-12)
            assert casimir[k] == pytest.approx(
                phase.casimir_csl2(s), rel=1e-12, abs=1e-12)

    @kinds
    def test_coincident_invariants(self, model):
        q = np.array([0.2, 0.2, -0.3])
        coupled = ReducedState(q, np.ones(3),
                               m_upper=np.array([0.5, 0.0, 0.0]),
                               n_upper=np.array([0.4, 0.1, 0.0]))
        with pytest.raises(DegenerateInertia):
            dynamics.eom_rhs(model, GEODETIC, coupled)
        # with M_12 = 0 the coincidence is removable
        removable = ReducedState(q, np.ones(3),
                                 m_upper=np.array([0.0, 0.3, 0.0]),
                                 n_upper=np.array([0.4, 0.1, 0.0]))
        rhs = dynamics.eom_rhs(model, GEODETIC, removable)
        assert np.all(np.isfinite(dynamics.pack_state(rhs)))
        # one degenerate state poisons the whole batch
        ys = np.array([dynamics.pack_state(removable),
                       dynamics.pack_state(coupled)])
        with pytest.raises(DegenerateInertia):
            dynamics.EomKernel(model, GEODETIC, 3).rhs(ys)

    def test_trig_antipodal_with_n_coupling(self):
        model = ModelSpec(kind="TrigUn", A=1.3, B=0.4)
        q = np.array([0.5 * np.pi, -0.5 * np.pi])
        with pytest.raises(DegenerateInertia):
            dynamics.eom_rhs(model, GEODETIC, ReducedState(
                q, np.zeros(2), m_upper=[0.2], n_upper=[0.3]))
        rhs = dynamics.eom_rhs(model, GEODETIC, ReducedState(
            q, np.zeros(2), m_upper=[0.2], n_upper=[0.0]))
        assert np.all(np.isfinite(dynamics.pack_state(rhs)))

    def test_trig_periodic(self, rng):
        # the TrigUn flow sees the angles only through squares of sin and
        # cos of half the pair differences: shifting one angle by 2 pi,
        # past pi, leaves it unchanged
        model = ModelSpec(kind="TrigUn", A=1.3, B=0.4)
        for n in (2, 3):
            st_ = kind_state(rng, model, n)
            rhs = dynamics.pack_state(dynamics.eom_rhs(model, GEODETIC, st_))
            for a in range(n):
                q = st_.q.copy()
                q[a] += 2.0 * np.pi
                shifted = dynamics.eom_rhs(model, GEODETIC, ReducedState(
                    q, st_.p, m_upper=st_.m_upper, n_upper=st_.n_upper))
                assert np.allclose(dynamics.pack_state(shifted), rhs,
                                   rtol=1e-12, atol=1e-12)


def packed_batch(rng, model, n, count):
    """(count, dim) packed states, q well apart (TrigUn inside (-pi, pi])."""
    spread = np.linspace(0.6 * (n - 1), -0.6 * (n - 1), n)
    q = spread + rng.uniform(-0.1, 0.1, (count, n))
    if model.kind == "TrigUn":
        q *= 0.5
    rest = rng.standard_normal((count, n + n * (n - 1))) * 0.6
    return np.concatenate([q, rest], axis=1)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


def segments(step):
    """The run(y, count) that _rk4_one_state calls, from a one-step
    function."""
    def run(y, count):
        for _ in range(count):
            y = step(y)
        return y
    return run


class TestLayout:
    """Public arrays are (..., dim); the kernel's component-major
    internals give the same numbers for every memory order and rank."""

    @kinds
    @sizes
    @potentials
    def test_rhs_flow_energies_agree_across_layouts(self, model, n, pot,
                                                    rng):
        kernel = dynamics.EomKernel(model, pot, n)
        ys = packed_batch(rng, model, n, 6)
        dim = ys.shape[1]
        singles = [kernel.flow(y) for y in ys]
        dy1 = np.array([dy for dy, _ in singles])
        g1 = np.array([g for _, g in singles])
        e1 = np.array([kernel.energies(y) for y in ys])
        for batch in (np.ascontiguousarray(ys), np.asfortranarray(ys),
                      ys.reshape(2, 3, dim)):
            dy, g = kernel.flow(batch)
            assert dy.shape == batch.shape
            assert g.shape == batch.shape[:-1] + (n * (n - 1),)
            assert rel_err(dy.reshape(6, dim), dy1) <= 1e-14
            assert rel_err(g.reshape(6, -1), g1) <= 1e-14
            assert rel_err(kernel.rhs(batch).reshape(6, dim), dy1) <= 1e-14
            energy, casimir = kernel.energies(batch)
            assert energy.shape == casimir.shape == batch.shape[:-1]
            assert rel_err(energy.ravel(), e1[:, 0]) <= 1e-14
            assert rel_err(casimir.ravel(), e1[:, 1]) <= 1e-14

    @kinds
    @sizes
    def test_integrate_batch_memory_order(self, model, n, rng):
        ys = packed_batch(rng, model, n, 5)
        runs = [dynamics.integrate_batch(model, WELL, y0, 0.05, 0.01, n,
                                         record_every=1)
                for y0 in (np.ascontiguousarray(ys), np.asfortranarray(ys))]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_samples_do_not_alias_integrator_state(self, rng):
        model = MODELS["AffAff"]
        y0 = np.asfortranarray(packed_batch(rng, model, 3, 4))
        before = y0.copy()
        times, samples = dynamics.integrate_batch(
            model, GEODETIC, y0, 0.03, 0.01, 3, record_every=1)
        assert np.array_equal(y0, before)
        assert not np.shares_memory(samples, y0)
        assert np.array_equal(samples[0], before)
        # every record is the state of its own step, not a later one
        for k in range(1, len(times)):
            _, upto = dynamics.integrate_batch(model, GEODETIC, before,
                                               times[k], 0.01, 3)
            assert np.array_equal(samples[k], upto[-1])
            assert not np.array_equal(samples[k], samples[k - 1])

    @kinds
    @potentials
    def test_planar_spin_rows_exactly_zero(self, model, pot, rng):
        # so(2) is abelian: dM/dt = dN/dt = 0 for every n = 2 state
        ys = np.asfortranarray(packed_batch(rng, model, 2, 50))
        kernel = dynamics.EomKernel(model, pot, 2)
        assert np.all(kernel.rhs(ys)[:, 4:] == 0.0)
        assert np.all(kernel.rhs(ys[0])[4:] == 0.0)


class TestRk4Driver:
    @kinds
    @sizes
    def test_matches_textbook_step(self, model, n, rng):
        # the stage buffer and the weight product give the samples of
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), step after step
        ys = packed_batch(rng, model, n, 5)
        times, samples = dynamics.integrate_batch(model, WELL, ys, 0.05,
                                                  0.005, n, record_every=3)
        fun = dynamics.EomKernel(model, WELL, n).rhs
        y = ys
        expected = [y]
        for step in range(1, 11):
            y = rk4_step(fun, y, 0.005)
            if step % 3 == 0 or step == 10:
                expected.append(y)
        assert samples.shape == (len(expected), 5, ys.shape[1])
        for got, want in zip(samples, expected):
            assert rel_err(got, want) <= 1e-14
        assert np.allclose(times, [0.0, 0.015, 0.03, 0.045, 0.05],
                           rtol=0.0, atol=1e-15)

    def test_single_state_shape(self, rng):
        model = MODELS["MetrMetr"]
        y0 = packed_batch(rng, model, 3, 1)[0]
        times, samples = dynamics.integrate_batch(model, WELL, y0, 0.02,
                                                  0.01, 3)
        fun = dynamics.EomKernel(model, WELL, 3).rhs
        assert samples.shape == (2, y0.size)
        assert rel_err(samples[-1],
                       rk4_step(fun, rk4_step(fun, y0, 0.01), 0.01)) <= 1e-14

    def test_rhs_calls(self, monkeypatch, rng):
        # four RHS calls per step from integrate_batch on a batch; one
        # state steps on floats, and the attitudes take the kernel's flow
        # directly: neither calls rhs
        rhs = dynamics.EomKernel.rhs
        calls = []

        def counting(self, y, out=None):
            calls.append(np.shape(y))
            return rhs(self, y, out)

        monkeypatch.setattr(dynamics.EomKernel, "rhs", counting)
        model = MODELS["AffAff"]
        ys = packed_batch(rng, model, 3, 4)
        dynamics.integrate_batch(model, WELL, ys, 0.1, 0.004, 3)
        assert calls == [ys.shape] * (4 * 25)
        st_ = dynamics.unpack_state(ys[0], 3)
        calls.clear()
        traj = dynamics.integrate(model, WELL, st_, 0.1,
                                  StepControl(step=1e-3, record_every=10))
        assert calls == []
        dynamics.reconstruct_attitudes(model, traj, np.eye(3), np.eye(3))
        assert calls == []

    # (t_end, step, record_every): 12 steps, record_every None, 1, a
    # divisor, a non-divisor, 12 and beyond; 17 steps; and t_end < step,
    # which takes one step
    @pytest.mark.parametrize("t_end, step, record_every", [
        (0.12, 0.01, None), (0.12, 0.01, 1), (0.12, 0.01, 4),
        (0.12, 0.01, 5), (0.12, 0.01, 12), (0.12, 0.01, 13),
        (0.05, 0.003, None), (0.05, 0.003, 2), (0.05, 0.003, 17),
        (0.004, 0.01, None), (0.004, 0.01, 1), (0.004, 0.01, 3),
    ])
    def test_record_schedule(self, t_end, step, record_every, rng):
        # a record after every record_every steps and after the last; one
        # state and a batch record at the same times
        model = MODELS["AffMetr"]
        ys = packed_batch(rng, model, 2, 3)
        nsteps = dynamics.step_count(t_end, step)
        h = t_end / nsteps
        every = record_every or nsteps
        marks = [k for k in range(1, nsteps + 1)
                 if k % every == 0 or k == nsteps]
        want = [0.0] + [k * h for k in marks]
        if record_every is None:
            want[-1] = t_end
        t_one, one = dynamics.integrate_batch(model, WELL, ys[0], t_end, step,
                                              2, record_every)
        t_all, batch = dynamics.integrate_batch(model, WELL, ys, t_end, step,
                                                2, record_every)
        assert t_one.tolist() == t_all.tolist() == want
        assert one.shape == (len(want), ys.shape[1])
        assert batch.shape == (len(want),) + ys.shape
        assert rel_err(one, batch[:, 0]) <= 1e-13

    # a negative step, a negative t_end and a zero t_end would otherwise
    # run as one step of h = t_end, as steps backwards in time, and as two
    # records at t = 0
    @pytest.mark.parametrize("t_end, step", [
        (1.0, -0.01), (-1.0, 0.01), (0.0, 0.01)])
    @pytest.mark.parametrize("count", [1, 3])
    def test_nonpositive_step_or_t_end_rejected(self, t_end, step, count,
                                                rng):
        model = MODELS["AffAff"]
        ys = packed_batch(rng, model, 2, count)
        with pytest.raises(ConfigError, match="'t_end' / 'step' = "):
            dynamics.integrate_batch(model, WELL, ys if count > 1 else ys[0],
                                     t_end, step, 2)

    @pytest.mark.parametrize("failure", ["raises", "non-finite"])
    def test_failing_single_state_pads_with_nan(self, failure):
        # 12 steps recorded every 5: records after steps 5, 10 and 12.  The
        # state fails in step 7, and the records after it are nan
        calls = []

        def step(y):
            calls.append(None)
            if len(calls) < 7:
                return [v + 1.0 for v in y]
            if failure == "raises":
                raise OverflowError("math range error")
            return [math.inf] * len(y)

        samples = dynamics._rk4_one_state(segments(step), [0.0, 0.0],
                                          [5, 10, 12])
        assert len(samples) == 4
        assert samples[:2] == [[0.0, 0.0], [5.0, 5.0]]
        if failure == "raises":
            assert len(calls) == 7
            padded = samples[2:]
        else:
            # the non-finite record after step 10 stands
            assert len(calls) == 10 and samples[2] == [math.inf] * 2
            padded = samples[3:]
        assert all(math.isnan(v) for y in padded for v in y)

    def test_single_state_failure_matches_batch(self):
        # 2,000 steps recorded every 7: the single state pads the records
        # after its failure, and both name the record after step 1,561
        model = MODELS["TrigUn"]
        y = dynamics.pack_state(WALL_CROSSING)
        messages = []
        for y0 in (y, np.array([y, y, y])):
            with pytest.raises(StepFailure) as info:
                dynamics.integrate_batch(model, WELL, y0, 5.0, 0.0025, 3,
                                         record_every=7)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == \
            "RK4 state turned non-finite at t = 3.9025"

    @pytest.mark.parametrize("n, shape", [
        (3, (6,)), (3, (5, 6)), (2, (12,)), (2, (5, 12)), (3, (5, 13))])
    def test_wrong_width_rejected(self, n, shape):
        # a packed state has n(n + 1) components; a row of another width
        # is named as such, for one state and for a batch alike
        with pytest.raises(ShapeMismatch, match=rf"= {n * (n + 1)} entries"):
            dynamics.integrate_batch(MODELS["AffAff"], WELL,
                                     np.full(shape, 0.1), 0.01, 0.001, n)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_record_every_below_one_rejected(self, record_every, rng):
        # 0 once read as None, endpoints only, and a negative value gave
        # endpoint records short of t_end
        model = MODELS["AffAff"]
        for y0 in (packed_batch(rng, model, 2, 1)[0],
                   packed_batch(rng, model, 2, 4)):
            with pytest.raises(ConfigError):
                dynamics.integrate_batch(model, WELL, y0, 0.01, 0.001, 2,
                                         record_every=record_every)

    def test_endpoint_memory_flat_in_steps(self, rng):
        # an endpoints-only run keeps two records however many steps it takes
        import tracemalloc
        model = MODELS["AffAff"]
        y0 = packed_batch(rng, model, 2, 1)[0]
        peaks = []
        tracemalloc.start()
        try:
            for t_end in (0.01, 1.0, 4.0):    # the first fills the caches
                tracemalloc.reset_peak()
                dynamics.integrate_batch(model, WELL, y0, t_end, 1e-3, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 8 * 1024


def batch_outcome(integrate, model, pot, y0, n, record_every):
    """(times, samples, energies, Casimirs) of a short RK4 run, or the
    type and text of what it raised."""
    try:
        times, samples = integrate(model, pot, y0, 0.02, 0.005, n,
                                   record_every)
    except (DegenerateInertia, StepFailure) as err:
        return type(err), str(err)
    kernel = (dynamics.EomKernel if integrate is dynamics.integrate_batch
              else reference.AllocatingKernel)(model, pot, n)
    return (times, samples) + kernel.energies(samples)


def same_outcome(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(got, want))


class TestAlignedWorkspace:
    """The batch kernel and RK4 loop write every elementwise result into
    aligned workspaces; tests/reference.py keeps the allocating
    kernel and loop, whose records they reproduce bit for bit."""

    # 15, 16, 17 and 33 sit at the edges of the ufunc buffer rule of
    # _rk4_batch: below 16 columns the buffer is left alone, from there
    # on it is lowered to a multiple of 16 not above the width
    WIDTHS = (2, 7, 8, 9, 15, 16, 17, 33, 1000, 1001)

    @kinds
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @potentials
    @pytest.mark.parametrize("record_every", [None, 3])
    def test_integrate_batch_matches_oracle(self, model, n, pot,
                                            record_every, rng):
        for width in self.WIDTHS:
            y0 = np.asfortranarray(packed_batch(rng, model, n, width))
            runs = [batch_outcome(integrate, model, pot, y0, n, record_every)
                    for integrate in (dynamics.integrate_batch,
                                      reference.integrate_batch)]
            assert len(runs[0]) == 4, runs[0]
            assert same_outcome(*runs), width

    @kinds
    @pytest.mark.parametrize("m_coupling", [0.0, 0.5])
    def test_coincident_pair_matches_oracle(self, model, m_coupling, rng):
        # one state of nine, and of 1000 (under a lowered ufunc buffer),
        # with q_1 = q_2: removable without M coupling, the oracle's
        # DegenerateInertia with it
        for width in (9, 1000):
            ys = packed_batch(rng, model, 3, width)
            ys[4] = dynamics.pack_state(ReducedState(
                np.array([0.2, 0.2, -0.3]), np.array([0.1, -0.2, 0.3]),
                m_upper=[m_coupling, 0.3, 0.0], n_upper=[0.4, 0.1, 0.0]))
            got, want = (batch_outcome(integrate, model, WELL, ys, 3, 3)
                         for integrate in (dynamics.integrate_batch,
                                           reference.integrate_batch))
            assert same_outcome(got, want), width
            if m_coupling:
                assert got == (DegenerateInertia, "coincident deformation "
                               "invariants with nonzero M coupling")
            else:
                assert np.all(np.isfinite(got[1]))

    def test_wall_crossing_failure_matches_oracle(self):
        model = MODELS["TrigUn"]
        y0 = np.array([dynamics.pack_state(WALL_CROSSING)] * 3)
        messages = []
        for integrate in (dynamics.integrate_batch, reference.integrate_batch):
            with pytest.raises(StepFailure) as info:
                integrate(model, WELL, y0, 5.0, 0.0025, 3, record_every=7)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == \
            "RK4 state turned non-finite at t = 3.9025"

    @pytest.mark.parametrize("caller", [8192, 4096])
    @pytest.mark.parametrize("outcome", ["returns", "StepFailure",
                                         "DegenerateInertia"])
    def test_caller_numpy_state_restored(self, caller, outcome, rng):
        # the steps run with warnings off and a buffer no longer than a
        # row; the caller's buffer and error handling come back on every
        # exit
        model, width = MODELS["TrigUn"], 20
        y0 = packed_batch(rng, model, 3, width)
        t_end, error = 0.02, None
        if outcome == "StepFailure":
            y0[:] = dynamics.pack_state(WALL_CROSSING)
            t_end, error = 5.0, StepFailure
        elif outcome == "DegenerateInertia":
            y0[4] = dynamics.pack_state(ReducedState(
                np.array([0.2, 0.2, -0.3]), np.array([0.1, -0.2, 0.3]),
                m_upper=[0.5, 0.3, 0.0], n_upper=[0.4, 0.1, 0.0]))
            error = DegenerateInertia
        with np.errstate(over="raise", divide="warn", invalid="warn"):
            before = np.setbufsize(caller)
            try:
                errors = np.geterr()
                if error is None:
                    dynamics.integrate_batch(model, WELL, y0, t_end, 0.0025,
                                             3)
                else:
                    with pytest.raises(error):
                        dynamics.integrate_batch(model, WELL, y0, t_end,
                                                 0.0025, 3)
                assert np.getbufsize() == caller
                assert np.geterr() == errors
            finally:
                np.setbufsize(before)

    @pytest.mark.parametrize("caller, width, inside", [
        (8192, 1, 8192), (8192, 10, 8192), (8192, 15, 8192), (8192, 16, 16),
        (8192, 33, 32), (8192, 1000, 992), (4096, 1000, 992),
        (512, 1000, 512), (8192, 8200, 8192)])
    def test_ufunc_buffer_lowered_to_a_row(self, caller, width, inside, rng,
                                           monkeypatch):
        # only ever lowered, to the largest multiple of 16 not above the
        # width, and never below 16 columns
        seen = set()
        rhs = dynamics.EomKernel.rhs

        def spy(kernel, y, out=None):
            seen.add(np.getbufsize())
            return rhs(kernel, y, out)

        monkeypatch.setattr(dynamics.EomKernel, "rhs", spy)
        model = MODELS["AffAff"]
        y0 = packed_batch(rng, model, 2, width)
        with np.errstate():
            before = np.setbufsize(caller)
            try:
                dynamics.integrate_batch(model, GEODETIC, y0, 0.002, 0.001, 2)
                assert np.getbufsize() == caller
            finally:
                np.setbufsize(before)
        assert seen == ({inside} if width > 1 else set())

    @kinds
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 1000, 1001])
    def test_rows_start_on_cache_lines(self, model, width):
        # the workspace is (count, B) rows of one C-contiguous block that
        # starts on an ALIGNMENT boundary, and so does every row when 8
        # divides the width
        kernel = dynamics.EomKernel(model, WELL, 3)
        ws = kernel._workspace(width)
        assert kernel._workspace(width) is ws
        buffers = [a for a in vars(ws).values()
                   if isinstance(a, np.ndarray) and a.dtype == float]
        assert min(a.ctypes.data for a in buffers) % dynamics.ALIGNMENT == 0
        stages = dynamics._aligned_empty((4, 12, width))
        assert stages.ctypes.data % dynamics.ALIGNMENT == 0
        for a in buffers + [stages]:
            assert a.shape[-1] == width and a.flags.c_contiguous
            for row in np.ndindex(a.shape[:-1]):
                aligned = a[row].ctypes.data % dynamics.ALIGNMENT == 0
                assert aligned or width % 8, row

    @kinds
    @sizes
    def test_returned_arrays_outlive_later_calls(self, model, n, rng):
        kernel = dynamics.EomKernel(model, WELL, n)
        first, other = (np.asfortranarray(packed_batch(rng, model, n, 9))
                        for _ in range(2))
        results = [kernel.rhs(first), *kernel.flow(first)]
        kept = [a.copy() for a in results]
        kernel.rhs(other)
        kernel.flow(other)
        for a, b in zip(results, kept):
            assert np.array_equal(a, b)

    @kinds
    @sizes
    def test_energies_keep_no_state_in_shared_lattice(self, model, n, rng):
        # C2's pair rows go through the kernel's own workspace, whatever the
        # kind, and match the allocating kernel's over changing widths
        ys = packed_batch(rng, model, n, 9)
        kernel = dynamics.EomKernel(model, WELL, n)
        oracle = reference.AllocatingKernel(model, WELL, n)
        for batch in (ys[:5], ys, ys[:5], ys[0]):
            for got, want in zip(kernel.energies(batch),
                                 oracle.energies(batch)):
                assert np.array_equal(got, want)


class TestDegenerateBatch:
    """One degenerate state among 1000 Fortran-ordered states."""

    def fortran_batch(self, rng, model, state, at=417):
        ys = packed_batch(rng, model, 3, 1000)
        ys[at] = dynamics.pack_state(state)
        return np.asfortranarray(ys)

    @kinds
    def test_coincident_with_coupling_raises(self, model, rng):
        coupled = ReducedState(np.array([0.2, 0.2, -0.3]), np.ones(3),
                               m_upper=np.array([0.5, 0.0, 0.0]),
                               n_upper=np.array([0.4, 0.1, 0.0]))
        ys = self.fortran_batch(rng, model, coupled)
        with pytest.raises(DegenerateInertia):
            dynamics.EomKernel(model, GEODETIC, 3).rhs(ys)

    @kinds
    def test_removable_state_matches_single(self, model, rng):
        removable = ReducedState(np.array([0.2, 0.2, -0.3]), np.ones(3),
                                 m_upper=np.array([0.0, 0.3, 0.0]),
                                 n_upper=np.array([0.4, 0.1, 0.0]))
        ys = self.fortran_batch(rng, model, removable)
        kernel = dynamics.EomKernel(model, WELL, 3)
        batched = kernel.rhs(ys)
        assert np.all(np.isfinite(batched))
        alone = kernel.rhs(dynamics.pack_state(removable))
        assert rel_err(batched[417], alone) <= 1e-14
        assert rel_err(batched[:417], kernel.rhs(ys[:417])) <= 1e-14

    def test_dalembert_exact_test(self, rng):
        model = MODELS["DAlembert"]
        kernel = dynamics.EomKernel(model, GEODETIC, 3)
        # |q_1 - q_2| below tol: degenerate
        q = np.array([0.2, 0.2 - 0.5e-9, -0.3])
        coupled = ReducedState(q, np.ones(3), m_upper=[0.5, 0.0, 0.0],
                               n_upper=[0.4, 0.1, 0.0])
        with pytest.raises(DegenerateInertia):
            kernel.rhs(self.fortran_batch(rng, model, coupled))
        # |q_1 - q_2| above tol: regular
        q = np.array([0.2, 0.2 - 1.5e-9, -0.3])
        near = ReducedState(q, np.ones(3), m_upper=[0.5, 0.0, 0.0],
                            n_upper=[0.4, 0.1, 0.0])
        batched = kernel.rhs(self.fortran_batch(rng, model, near))
        alone = kernel.rhs(dynamics.pack_state(near))
        assert np.all(np.isfinite(batched))
        assert rel_err(batched[417], alone) <= 1e-14

    def test_trig_antipodal_with_n_coupling(self, rng):
        model = MODELS["TrigUn"]
        kernel = dynamics.EomKernel(model, GEODETIC, 3)
        q = np.array([0.5 * np.pi, 0.1, -0.5 * np.pi])
        # pair (1, 3) is antipodal
        coupled = ReducedState(q, np.zeros(3), m_upper=[0.2, 0.1, 0.3],
                               n_upper=[0.1, 0.3, 0.2])
        with pytest.raises(DegenerateInertia):
            kernel.rhs(self.fortran_batch(rng, model, coupled))
        removable = ReducedState(q, np.zeros(3), m_upper=[0.2, 0.1, 0.3],
                                 n_upper=[0.1, 0.0, 0.2])
        batched = kernel.rhs(self.fortran_batch(rng, model, removable))
        assert np.all(np.isfinite(batched))
        assert rel_err(batched[417],
                       kernel.rhs(dynamics.pack_state(removable))) <= 1e-14


STEEP = PotentialSpec.steep_oscillator(0.3, 4)
# states on which math raises where numpy returns inf or nan: sinh or exp
# overflow, an underflowed Q^2 divides by zero, or q runs to inf and
# sin(inf) is a domain error; with the time of the first non-finite record
# of RK4 at step 0.01, every 5th step recorded
OVERFLOWS = {
    "sinh": (MODELS["AffAff"], [711.0, -711.0], [0.0, 0.0], [0.5], [0.0],
             "0.05"),
    "exp": (MODELS["DAlembert"], [720.0, 0.0], [0.1, 0.0], [0.5], [0.2],
            "0.05"),
    "quotient": (MODELS["DAlembert"], [-400.0, -401.0], [0.1, 0.2], [0.5],
                 [0.0], "0.05"),
    "sin": (MODELS["TrigUn"], [0.3, -0.3], [1e308, -1e308], [0.5], [0.2],
            "2.35"),
}


def assert_screen(model, n, seed, wall, potential):
    """On the state packed_batch draws from seed, with wall = (i, half,
    keep_m, keep_n) putting pair i at half difference half and keeping or
    dropping its M and N couplings: float_rhs, emitted or through its
    fallback, gives rhs's derivative or raises its DegenerateInertia, the
    emitted RK4 step is the textbook step of float_rhs, and the emitted
    Dormand-Prince attempt is, bit for bit, reference.dopri_floats on
    float_rhs, which sums the stages in its order."""
    rng = np.random.default_rng(seed)
    y = packed_batch(rng, model, n, 1)[0]
    k = n * (n - 1) // 2
    if wall:
        i, half, keep_m, keep_n = wall
        a, b = (int(j[i]) for j in phase.pair_layout(n).iu)
        y[b] = y[a] - 2.0 * half
        y[2 * n + i] *= keep_m
        y[2 * n + k + i] *= keep_n
    kernel = dynamics.EomKernel(model, potential, n)
    rhs, stepper = kernel.float_rhs(), kernel._bind_floats("stepper")
    run = stepper(1e-3, *(1e-3 * dynamics._RK4_B).tolist())

    def outcome(f, *args):
        with np.errstate(all="ignore"):
            try:
                return np.asarray(f(*args), dtype=float)
            except (DegenerateInertia, ArithmeticError, ValueError) as exc:
                return type(exc), str(exc)

    def agree(got, want, tol=1e-14):
        if isinstance(want, tuple):
            assert got == want
        else:
            scale = max(1.0, np.max(np.abs(want), initial=0.0,
                                    where=np.isfinite(want)))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)

    def bits(result):
        return result if isinstance(result, tuple) else result.tobytes()

    # DAlembert's Q_a - Q_b cancels near the wall: math.exp and np.exp
    # differ by an ulp in about 5 % of arguments, which moves Q_a - Q_b by
    # eps max(Q_a, Q_b) / |Q_a - Q_b| relative, and the derivative, through
    # d^3, by three times that
    cond = 0.0
    if model.kind == "DAlembert" and k:
        Q = np.exp(y[:n])[np.array(phase.pair_layout(n).iu)]
        cond = np.max(Q.max(axis=0) / np.abs(Q[0] - Q[1]))
    agree(outcome(rhs, y.tolist()), outcome(kernel.rhs, y),
          1e-14 + 12 * np.finfo(float).eps * cond)
    agree(outcome(run, y.tolist(), 1), outcome(
        rk4_step, lambda v: np.array(rhs(v.tolist())), y, 1e-3))
    # next to a wall a 1-ulp change of one input can move the attempt by
    # 9e-9 x scale, so only the emitted order of operations is a fair
    # oracle; overflow and nan come at the same place in both
    dopri = kernel._bind_floats("dopri")
    assert bits(outcome(lambda v: dopri(v, rhs(v), 1e-3)[:2], y.tolist())) \
        == bits(outcome(reference.dopri_floats, rhs, y.tolist(), 1e-3))


class TestSingleState:
    """integrate_batch steps one state on Python floats through
    EomKernel.float_rhs, and a batch through EomKernel.rhs; both give the
    same records and raise the same errors.  AffMetr, MetrAff and MetrMetr
    have a nonzero c_tau, c_rho or both, and so a coupling Hessian."""

    @kinds
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("pot", [GEODETIC, WELL, STEEP],
                             ids=["none", "harmonic_well", "steep"])
    def test_matches_batch_row(self, model, n, pot, rng):
        ys = packed_batch(rng, model, n, 3)
        _, batch = dynamics.integrate_batch(model, pot, ys, 0.05, 0.001, n,
                                            record_every=1)
        _, alone = dynamics.integrate_batch(model, pot, ys[1], 0.05, 0.001,
                                            n, record_every=1)
        _, row = dynamics.integrate_batch(model, pot, ys[1:2], 0.05, 0.001,
                                          n, record_every=1)
        assert alone.shape == (51, ys.shape[1])
        assert np.array_equal(row[:, 0], alone)
        assert rel_err(alone[-1], batch[-1, 1]) <= 1e-13
        if n == 2:
            # so(2) is abelian: M_12 and N_12 stay exactly where they began
            assert np.array_equal(alone[:, 4:], np.broadcast_to(
                ys[1, 4:], alone[:, 4:].shape))

    @kinds
    @pytest.mark.parametrize("n", [2, 3])
    def test_float_rhs_matches_rhs(self, model, n, rng):
        ys = packed_batch(rng, model, n, 4)
        for pot in (GEODETIC, WELL, STEEP):
            kernel = dynamics.EomKernel(model, pot, n)
            rhs = kernel.float_rhs()
            dys = kernel.rhs(ys)
            for y, dy in zip(ys, dys):
                assert rel_err(np.array(rhs(y.tolist())), dy) <= 1e-14

    def degenerate_alone(self, rng, model, state, potential=GEODETIC):
        """The batch kernel's error on the state among 1000 others, and
        integrate_batch's on the state alone."""
        ys = TestDegenerateBatch().fortran_batch(rng, model, state)
        with pytest.raises(DegenerateInertia) as batched:
            dynamics.EomKernel(model, potential, 3).rhs(ys)
        with pytest.raises(DegenerateInertia) as alone:
            dynamics.integrate_batch(model, potential,
                                     dynamics.pack_state(state), 0.01,
                                     0.001, 3)
        return [(info.type, str(info.value)) for info in (batched, alone)]

    def removable_alone(self, rng, model, state, potential=WELL):
        ys = TestDegenerateBatch().fortran_batch(rng, model, state)
        kernel = dynamics.EomKernel(model, potential, 3)
        alone = kernel.float_rhs()(dynamics.pack_state(state).tolist())
        assert np.all(np.isfinite(alone))
        return rel_err(np.array(alone), kernel.rhs(ys)[417])

    @kinds
    def test_coincident(self, model, rng):
        coupled = ReducedState(np.array([0.2, 0.2, -0.3]), np.ones(3),
                               m_upper=np.array([0.5, 0.0, 0.0]),
                               n_upper=np.array([0.4, 0.1, 0.0]))
        batched, alone = self.degenerate_alone(rng, model, coupled)
        assert alone == batched == (DegenerateInertia, "coincident "
                                    "deformation invariants with nonzero M "
                                    "coupling")
        removable = ReducedState(np.array([0.2, 0.2, -0.3]), np.ones(3),
                                 m_upper=np.array([0.0, 0.3, 0.0]),
                                 n_upper=np.array([0.4, 0.1, 0.0]))
        assert self.removable_alone(rng, model, removable) <= 1e-14

    def test_dalembert_exact_test(self, rng):
        model = MODELS["DAlembert"]
        q = np.array([0.2, 0.2 - 0.5e-9, -0.3])
        coupled = ReducedState(q, np.ones(3), m_upper=[0.5, 0.0, 0.0],
                               n_upper=[0.4, 0.1, 0.0])
        batched, alone = self.degenerate_alone(rng, model, coupled)
        assert alone == batched
        q = np.array([0.2, 0.2 - 1.5e-9, -0.3])
        near = ReducedState(q, np.ones(3), m_upper=[0.5, 0.0, 0.0],
                            n_upper=[0.4, 0.1, 0.0])
        assert self.removable_alone(rng, model, near, GEODETIC) <= 1e-14

    def test_trig_antipodal(self, rng):
        model = MODELS["TrigUn"]
        q = np.array([0.5 * np.pi, 0.1, -0.5 * np.pi])
        coupled = ReducedState(q, np.zeros(3), m_upper=[0.2, 0.1, 0.3],
                               n_upper=[0.1, 0.3, 0.2])
        batched, alone = self.degenerate_alone(rng, model, coupled)
        assert alone == batched == (DegenerateInertia, "antipodal "
                                    "invariants q_a - q_b = pi with N "
                                    "coupling")
        removable = ReducedState(q, np.zeros(3), m_upper=[0.2, 0.1, 0.3],
                                 n_upper=[0.1, 0.0, 0.2])
        assert self.removable_alone(rng, model, removable,
                                    GEODETIC) <= 1e-14
        # pair (1, 2) coincident with M coupling, pair (1, 3) antipodal
        # with N coupling: the antipodal pair is named, as in a batch
        both = ReducedState([0.5 * np.pi, 0.5 * np.pi, -0.5 * np.pi],
                            np.zeros(3), m_upper=[0.2, 0.0, 0.0],
                            n_upper=[0.0, 0.3, 0.0])
        batched, alone = self.degenerate_alone(rng, model, both)
        assert alone == batched
        assert alone[1].startswith("antipodal")

    def test_emitted_code_shared_by_structure(self, rng):
        # the constants are arguments of the emitted code, not part of its
        # source: two kernels of one structure compile the RHS once and
        # the step once, and each keeps its own constants
        dynamics._emit.cache_clear()
        ys = packed_batch(rng, MODELS["AffAff"], 3, 4)
        for A in (1.3, 0.7):
            kernel = dynamics.EomKernel(ModelSpec(kind="AffAff", A=A, B=0.4),
                                        WELL, 3)
            rhs, stepper = kernel.float_rhs(), kernel._bind_floats("stepper")
            run = stepper(0.01, *(0.01 * dynamics._RK4_B).tolist())
            for y, dy in zip(ys, kernel.rhs(ys)):
                assert rel_err(np.array(rhs(y.tolist())), dy) <= 1e-14
                assert rel_err(np.array(run(y.tolist(), 1)),
                               rk4_step(kernel.rhs, y, 0.01)) <= 1e-14
        assert dynamics._emit.cache_info().misses == 2

    def test_rk4_compiles_no_rhs(self, rng, monkeypatch):
        # single-state RK4 asks _emit for the step alone; the RHS is
        # emitted when float_rhs asks for it
        emitted = []
        emit = dynamics._emit

        def recording(*key):
            emitted.append(key[-1])
            return emit(*key)

        monkeypatch.setattr(dynamics, "_emit", recording)
        model = MODELS["MetrAff"]
        y = packed_batch(rng, model, 3, 1)[0]
        dynamics.integrate_batch(model, WELL, y, 0.01, 0.001, 3)
        assert emitted == ["stepper"]
        dynamics.EomKernel(model, WELL, 3).float_rhs()
        assert emitted == ["stepper", "rhs"]

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from(ALL_KINDS), n=st.integers(1, 4),
           data=st.data())
    def test_screen_boundary(self, model, n, data):
        """A pair whose half difference lies just below or above
        0.5 DEGENERACY_TOL, the rule of _pairs, or for TrigUn whose cosine
        does; the emitted screen is at twice that.  See assert_screen."""
        k = n * (n - 1) // 2
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        wall = None
        if k:
            i = data.draw(st.integers(0, k - 1))
            half = data.draw(st.sampled_from([-1.0, 1.0])) \
                * data.draw(st.floats(0.25, 4.0)) * 0.5 * phase.DEGENERACY_TOL
            if model.kind == "TrigUn" and data.draw(st.booleans()):
                half += 0.5 * np.pi
            wall = i, half, data.draw(st.booleans()), data.draw(st.booleans())
        assert_screen(model, n, seed, wall,
                      data.draw(st.sampled_from(POTENTIALS)))

    def test_screen_boundary_example(self):
        # the pair's M coupling is a cancelled 8e-15 that a 1.8e-8
        # denominator amplifies: numpy's stage loop, in its own summation
        # order, differs from the emitted attempt by 1.3e-10 x scale
        assert_screen(MODELS["DAlembert"], 4, 867,
                      (0, -1.5 * phase.DEGENERACY_TOL, False, False),
                      GEODETIC)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("offset", [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0,
                                        5.0, 10.0, 20.0, 30.0])
    def test_dalembert_raise_boundary(self, n, offset):
        """DAlembert raises DegenerateInertia exactly when the stored
        |q_a - q_b| is below DEGENERACY_TOL, in rhs and float_rhs alike,
        on pairs with M != 0 within 1e-8 to 1e-6 relative of it."""
        tol = phase.DEGENERACY_TOL
        kernel = dynamics.EomKernel(MODELS["DAlembert"], GEODETIC, n)
        rhs = kernel.float_rhs()
        rng = np.random.default_rng([n, int(10 * offset) + 50])
        placed = 0
        for _ in range(40):
            y = rng.standard_normal(n * n + n) * 0.6
            y[:n] = offset + np.arange(n) * 0.5 + rng.uniform(0.0, 0.1)
            y[1] = y[0] + rng.choice([-1.0, 1.0]) * tol * (
                1.0 + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8, -6))
            gap = abs(y[0] - y[1])
            if not 1e-8 <= abs(gap / tol - 1.0) <= 1e-6:
                continue
            placed += 1
            for f, v in ((kernel.rhs, y), (rhs, y.tolist())):
                if gap < tol:
                    with pytest.raises(DegenerateInertia, match="coincident"):
                        f(v)
                else:
                    assert np.isfinite(f(v)).all()
        assert placed

    def test_wall_crossing(self):
        model = MODELS["TrigUn"]
        with pytest.raises(StepFailure, match=r"at t = 3\.9$"):
            dynamics.integrate_batch(model, WELL,
                                     dynamics.pack_state(WALL_CROSSING),
                                     5.0, 0.0025, 3, record_every=10)

    def test_wall_crossing_stops_stepping(self):
        # the state turns non-finite at step 1,556 of 2,000; the stepping
        # stops at the record step after it, the 156th segment of 10
        # steps, and the later records are nan
        h = 0.0025
        kernel = dynamics.EomKernel(MODELS["TrigUn"], WELL, 3)
        run = kernel._bind_floats("stepper")(h, *(h * dynamics._RK4_B)
                                             .tolist())
        calls = []

        def counting(y, count):
            calls.append(count)
            return run(y, count)

        samples = dynamics._rk4_one_state(
            counting, dynamics.pack_state(WALL_CROSSING).tolist(),
            list(range(10, 2001, 10)))
        assert len(calls) == 156 and sum(calls) == 1560
        assert len(samples) == 201
        finite = [all(map(math.isfinite, y)) for y in samples]
        assert finite.index(False) == 156
        assert all(math.isnan(v) for y in samples[157:] for v in y)

    def test_finite_state_near_overflow_keeps_stepping(self):
        # finite components whose sum overflows are not a blow-up
        calls = []

        def step(y):
            calls.append(None)
            return [1e308, 1e308, -1.0]

        samples = dynamics._rk4_one_state(segments(step), [0.0] * 3,
                                          [5, 10, 15, 20])
        assert len(calls) == 20 and len(samples) == 5
        assert samples[1:] == [[1e308, 1e308, -1.0]] * 4

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_overflow_is_step_failure(self, case):
        model, q, p, m, nn, t = OVERFLOWS[case]
        y = dynamics.pack_state(ReducedState(q, p, m_upper=m, n_upper=nn))
        messages = []
        for y0 in (y, np.array([y, y])):
            with pytest.raises(StepFailure) as info:
                dynamics.integrate_batch(model, GEODETIC, y0, 5.0, 0.01, 2,
                                         record_every=5)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == \
            f"RK4 state turned non-finite at t = {t}"


class TestIntegrate:
    @pytest.mark.parametrize("method", dynamics.METHODS)
    def test_one_kernel_per_call(self, method, monkeypatch, rng):
        # the steps and the energies share one kernel
        model = MODELS["MetrAff"]
        st_ = kind_state(rng, model, 3)
        control = StepControl(method=method, step=0.01)
        dynamics.integrate(model, WELL, st_, 0.05, control)  # fills caches
        init = dynamics.EomKernel.__init__
        built = []

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(dynamics.EomKernel, "__init__", counting)
        dynamics.integrate(model, WELL, st_, 0.05, control)
        assert built == [(model, WELL, 3)]

    def test_constant_trajectory(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.4, -0.4]), np.zeros(2))
        traj = dynamics.integrate(model, GEODETIC, st_, 1.0,
                                  StepControl(step=1e-2, record_every=10))
        assert np.allclose(traj.samples, traj.samples[0])
        assert traj.energy_drift == 0.0

    def test_energy_and_casimir_conservation(self, rng):
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = random_state(rng, 3, scale=0.3, min_gap=0.3)
        traj = dynamics.integrate(model, GEODETIC, st_, 10.0,
                                  StepControl(step=1e-3, record_every=500))
        assert traj.energy_drift < 1e-8
        assert traj.casimir_drift < 1e-8

    @pytest.mark.parametrize("kind", ["MetrMetr", "TrigUn"])
    def test_conservation_order(self, kind, rng):
        # RK4's energy error is O(h^4) over a fixed time: at n = 3, ten
        # states clear of the walls, t = 5, the largest relative drift falls
        # at least 16x per halving of the step (28-32x measured), and so
        # does the drift of C2 where it is conserved, which TrigUn's is not
        model = MODELS[kind]
        states = [random_state(rng, 3, scale=0.3, min_gap=0.8)
                  for _ in range(10)]
        if kind == "TrigUn":
            states = [ReducedState(0.5 * s.q, s.p, M=s.M, N=s.N)
                      for s in states]
        y0 = np.array([dynamics.pack_state(s) for s in states])
        kernel = dynamics.EomKernel(model, WELL, 3)
        e0, c0 = kernel.energies(y0)
        drifts = []
        for step in (0.01, 0.005, 0.0025):
            _, samples = dynamics.integrate_batch(model, WELL, y0, 5.0, step,
                                                  3)
            e, c = kernel.energies(samples[-1])
            drifts.append((np.max(np.abs(e - e0) / np.abs(e0)),
                           np.max(np.abs(c - c0) / np.abs(c0))))
        ratios = np.array(drifts[:-1]) / np.array(drifts[1:])
        assert np.all(ratios[:, 0] >= 16.0)
        if kind != "TrigUn":
            assert np.all(ratios[:, 1] >= 16.0)

    def test_nonfinite_state_raises(self, rng):
        # one state of ten turns NaN past the wall: the batch raises at its
        # first non-finite record, and no RuntimeWarning escapes
        model = MODELS["TrigUn"]
        states = [random_state(rng, 3, scale=0.3, min_gap=0.8)
                  for _ in range(9)]
        y0 = np.array([dynamics.pack_state(
            ReducedState(0.5 * s.q, s.p, M=s.M, N=s.N)) for s in states])
        _, samples = dynamics.integrate_batch(model, WELL, y0, 5.0, 0.0025,
                                              3, record_every=10)
        assert np.all(np.isfinite(samples))
        y0 = np.insert(y0, 4, dynamics.pack_state(WALL_CROSSING), axis=0)
        with pytest.raises(StepFailure, match=r"at t = 3\.9$"):
            dynamics.integrate_batch(model, WELL, y0, 5.0, 0.0025, 3,
                                     record_every=10)

    def test_trig_with_potential_not_wrapped(self):
        # V(qbar) is not 2 pi-periodic: wrapping the recorded angles would
        # change the energy of the samples, so q1 runs on past pi
        model = ModelSpec(kind="TrigUn", A=1.0, B=0.2)
        st_ = ReducedState(np.array([2.5, 0.0, -0.5]), np.array([3.0, 0, 0]))
        traj = dynamics.integrate(model, PotentialSpec.harmonic_well(0.5),
                                  st_, 1.0,
                                  StepControl(step=1e-3, record_every=50))
        assert traj.energy_drift <= 1e-12
        q1 = traj.samples[:, 0]
        assert np.max(q1) > np.pi
        assert np.max(np.abs(np.diff(q1))) < 0.5

    def test_rk45_matches_rk4(self, rng):
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = random_state(rng, 3, scale=0.3, min_gap=0.3)
        t4 = dynamics.integrate(model, GEODETIC, st_, 1.0,
                                StepControl(step=1e-3))
        t45 = dynamics.integrate(model, GEODETIC, st_, 1.0,
                                 StepControl(method="rk45", rtol=1e-10,
                                             atol=1e-12))
        assert np.allclose(t4.samples[-1], t45.samples[-1], atol=1e-7)

    def test_rk45_steps_within_max_step(self):
        # a step option above MAX_STEP is clamped from the first step on:
        # this slow state would take a first step of 0.5 within tolerance
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = ReducedState(np.array([0.4, -0.4]), np.array([0.01, -0.01]))
        traj = dynamics.integrate(model, GEODETIC, st_, 1.0,
                                  StepControl(method="rk45", step=0.5))
        assert len(traj.times) > 10
        assert np.max(np.diff(traj.times)) <= dynamics.MAX_STEP * (1 + 1e-12)

    def test_rk45_min_step_failure(self, rng, monkeypatch):
        # a state headed into the repulsive coincidence wall forces the
        # adaptive controller below its minimum step
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        M = np.array([[0.0, 2.0], [-2.0, 0.0]])
        st_ = ReducedState(np.array([0.05, -0.05]),
                           np.array([-3.0, 3.0]), M=M)
        monkeypatch.setattr(dynamics, "MIN_STEP", 1e-2)
        with pytest.raises(StepFailure):
            dynamics.integrate(model, GEODETIC, st_, 5.0,
                               StepControl(method="rk45", rtol=1e-10,
                                           atol=1e-14))

    def test_rk45_error_estimate_without_cancellation(self):
        # y' = lam y: the embedded estimate is |P(z) y|, z = h lam, with P
        # the difference of the Dormand-Prince 5 and 4 stability
        # polynomials.  On entries of order 1e6 with a small rate it lies
        # below one ulp of y, where max|y5 - y4| reads 0.
        lam, h = 1e-2, 0.2
        z = h * lam
        P = -97 / 120000 * z ** 5 + 13 / 40000 * z ** 6 - z ** 7 / 24000
        y = np.array([1e6, -3e6])
        _, err = reference.rk45_step(lambda v: lam * v, y, h)
        assert err == pytest.approx(3e6 * abs(P), rel=1e-2)

    def test_box_potential_rejected(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.4, -0.4]), np.zeros(2))
        with pytest.raises(DomainError):
            dynamics.integrate(model, PotentialSpec.box(1.0), st_, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("step", math.nan), ("step", 0.0), ("step", -1e-3),
        ("rtol", -1.0), ("rtol", math.nan), ("rtol", math.inf),
        ("atol", -1.0), ("atol", math.nan), ("atol", math.inf)])
    def test_step_control_rejected(self, field, value):
        # RK45 looped forever on a nan step, and a negative tolerance made
        # its step factor complex
        with pytest.raises(ConfigError):
            StepControl(method="rk45", **{field: value})

    @pytest.mark.parametrize("method", dynamics.METHODS)
    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, method, t_end):
        # RK45 once returned the one sample at t = 0
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.4, -0.4]), np.zeros(2))
        with pytest.raises(ConfigError):
            dynamics.integrate(model, GEODETIC, st_, t_end,
                               StepControl(method=method))

    def test_csv_roundtrip(self, tmp_path):
        from affinebody import io
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = ReducedState(np.array([0.6, -0.2]), np.array([0.1, -0.3]),
                           M=np.array([[0.0, 0.4], [-0.4, 0.0]]))
        traj = dynamics.integrate(model, GEODETIC, st_, 0.5,
                                  StepControl(step=1e-2, record_every=10))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        header, data = io.read_trajectory_csv(path)
        assert header[0] == "t"
        assert data.shape[0] == len(traj.times)
        assert np.allclose(data[:, 1:-2], traj.samples)


SESSION_RK45 = json.loads(pathlib.Path(__file__).with_name(
    "session_rk45_seed7.json").read_text())


class TestEmittedRk45:
    """integrate's adaptive attempts run through the emitted Dormand-Prince
    step (_emit "dopri") with FSAL; tests/reference.py keeps the numpy
    stage loop and the controller as the oracle."""

    @staticmethod
    def counted(monkeypatch):
        """Calls of the kernels' emitted functions, by function."""
        calls = {"rhs": 0, "dopri": 0}
        bind_floats = dynamics.EomKernel._bind_floats

        def counting(kernel, function):
            emitted = bind_floats(kernel, function)

            def call(*args):
                calls[function] += 1
                return emitted(*args)
            return call if function in calls else emitted

        monkeypatch.setattr(dynamics.EomKernel, "_bind_floats", counting)
        return calls

    def agreement(self, monkeypatch, model, potential, state, t_end,
                  control=StepControl(method="rk45", step=0.05)):
        """Largest relative difference of the records from the oracle's,
        after checking that both make the same attempts, or 0.0 if both
        raise the same StepFailure.  The records cannot agree bit for bit:
        the error estimate is a cancelling sum, whose rounding in another
        order moves the next step size (measured: up to 5.2e-11)."""
        calls = self.counted(monkeypatch)
        try:
            times, samples, rejected = reference.integrate_rk45(
                model, potential, state, t_end, control)
        except StepFailure as exc:
            with pytest.raises(StepFailure) as info:
                dynamics.integrate(model, potential, state, t_end, control)
            assert str(info.value) == str(exc)
            return 0.0
        got = dynamics.integrate(model, potential, state, t_end, control)
        if model.kind == "TrigUn" and potential.is_trivial:
            samples[:, :state.n] = phase.wrap_angle(samples[:, :state.n])
        assert len(got.times) == len(times)
        # f(y0) once, then six stages per attempt: the seventh is the next
        # attempt's first
        assert calls == {"rhs": 1, "dopri": len(times) - 1 + rejected}
        return max(rel_err(got.times, times), rel_err(got.samples, samples))

    @kinds
    @pytest.mark.parametrize("n", [1, 2, 3])
    @potentials
    def test_matches_reference(self, model, n, pot, rng, monkeypatch):
        state = dynamics.unpack_state(packed_batch(rng, model, n, 1)[0], n)
        assert self.agreement(monkeypatch, model, pot, state, 1.0) <= 1e-10

    @pytest.mark.parametrize("config", SESSION_RK45,
                             ids=[c["label"] for c in SESSION_RK45])
    def test_matches_reference_on_bench_configs(self, config, monkeypatch):
        # the RK45 simulate configs of perfbench's session workload, seed 7
        model = ModelSpec.from_json(config["model"])
        potential = PotentialSpec.from_json(config.get("potential"))
        state = ReducedState(**config["initial"])
        assert self.agreement(monkeypatch, model, potential, state,
                              0.4) <= 1e-10

    @kinds
    def test_emitted_error_estimate(self, model, rng):
        h = 0.2
        kernel = dynamics.EomKernel(model, WELL, 3)
        y = packed_batch(rng, model, 3, 1)[0]
        k = kernel.rhs(y)
        y5, k7, err = kernel._bind_floats("dopri")(
            y.tolist(), kernel.float_rhs()(y.tolist()), h)
        want_y5, want_err = reference.rk45_step(kernel.rhs, y, h)
        assert rel_err(np.array(y5), want_y5) <= 1e-14
        assert rel_err(np.array(k7), kernel.rhs(want_y5)) <= 1e-14
        # the estimate is a cancelling sum of the stages: its round-off
        # is relative to h |k|, not to the estimate (measured: 6.4e-17)
        assert want_err > 0.0
        assert abs(err - want_err) <= 1e-15 * h * np.max(np.abs(k))

    # TrigUn angles of order 1e250, whose sines stay finite: the first
    # attempt's last stage is nan in p, M and N alone, and max() over the
    # estimate's components would drop the nan that np.max keeps
    NAN_STAGE = (MODELS["TrigUn"],
                 [1.4724844842081287e+250, 8.89703245623224e+203,
                  0.03263895655060513],
                 [0.007336439601512827, 6.430487440067388e+69,
                  -1.288287868278864],
                 [1.2748425487392708e+16, -0.7659726567101007,
                  -0.8812811010343705],
                 [0.3592963384369897, -0.7720982562724807,
                  -0.3168154170935121], None)

    @pytest.mark.parametrize("case", sorted(OVERFLOWS) + ["nan_stage"])
    def test_overflow_is_rejected_attempt(self, case):
        # an attempt in which math raises, or whose estimate has a nan
        # component, is rejected as one whose numpy error estimate is nan:
        # the same StepFailure results
        model, q, p, m, nn, _ = {**OVERFLOWS, "nan_stage": self.NAN_STAGE}[
            case]
        state = ReducedState(q, p, m_upper=m, n_upper=nn)
        control = StepControl(method="rk45", step=0.01)
        messages = []
        for integrate in (dynamics.integrate, reference.integrate_rk45):
            with pytest.raises(StepFailure) as info:
                integrate(model, GEODETIC, state, 5.0, control)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestAttitudeReconstruction:
    def test_constant(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.4, -0.4]), np.zeros(2))
        traj = dynamics.integrate(model, GEODETIC, st_, 1.0,
                                  StepControl(step=1e-2, record_every=10))
        out = dynamics.reconstruct_attitudes(model, traj, np.eye(2),
                                             np.eye(2))
        for L, R in out.attitudes:
            assert np.allclose(L, np.eye(2), atol=1e-12)
            assert np.allclose(R, np.eye(2), atol=1e-12)

    def test_drift_from_rotation_group_raises(self):
        # the drift is read from the singular values before the projection,
        # which would otherwise erase it: a coarse step fails, a fine one
        # passes
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = ReducedState(np.array([0.8, 0.0, -0.8]),
                           np.array([0.5, -0.3, 0.2]),
                           m_upper=[2.0, -1.2, 1.6], n_upper=[0.8, 1.8, -1.0])

        def attitudes(step):
            traj = dynamics.integrate(model, GEODETIC, st_, 0.5,
                                      StepControl(step=step))
            return dynamics.reconstruct_attitudes(model, traj, np.eye(3),
                                                  np.eye(3))

        with pytest.raises(StepFailure):
            attitudes(0.05)
        attitudes(0.001)

    def test_velocity_consistency(self, rng):
        # rebuild phi(t) = L exp(q) R^T and compare the finite-difference
        # phi-dot phi^{-1} against the model Omega from the gradients
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        st_ = random_state(rng, 3, scale=0.3, min_gap=0.4)
        traj = dynamics.integrate(model, GEODETIC, st_, 0.5,
                                  StepControl(step=1e-4, record_every=10))
        out = dynamics.reconstruct_attitudes(model, traj, np.eye(3),
                                             np.eye(3))

        def phi_at(k):
            L, R = out.attitudes[k]
            s = out.state(k)
            return L @ np.diag(np.exp(s.q)) @ R.T

        k = len(out.times) // 2
        dt = out.times[k + 1] - out.times[k - 1]
        phid = (phi_at(k + 1) - phi_at(k - 1)) / dt
        Omega_fd = phid @ np.linalg.inv(phi_at(k))
        s = out.state(k)
        _, qdot, GM, GN = gradients(model, GEODETIC, s.q, s.p, s.M, s.N)
        L, R = out.attitudes[k]
        chi = GM - GN
        theta = GM + GN
        D = np.diag(np.exp(s.q))
        phi_dot = (L @ chi @ D @ R.T + L @ np.diag(qdot) @ D @ R.T
                   + L @ D @ theta.T @ R.T)
        Omega_model = phi_dot @ np.linalg.inv(phi_at(k))
        assert np.max(np.abs(Omega_fd - Omega_model)) < 1e-6


def attitude_error(traj, phi0, Omega):
    """Largest relative distance of L exp(q) R^T from exp(Omega t) phi0
    over the records."""
    worst = 0.0
    for k, t in enumerate(traj.times):
        L, R = traj.attitudes[k]
        rebuilt = L @ np.diag(np.exp(traj.samples[k, :3])) @ R.T
        exact = dynamics.geodesic_exponential(phi0, Omega, t).phi
        worst = max(worst,
                    np.max(np.abs(rebuilt - exact)) / np.max(np.abs(exact)))
    return worst


def attitude_case(rng, model, n, record_every):
    """A well trajectory of 500 RK4 steps and rotation seeds for it."""
    st_ = dynamics.unpack_state(packed_batch(rng, model, n, 1)[0], n)
    traj = dynamics.integrate(model, WELL, st_, 0.5,
                              StepControl(step=1e-3,
                                          record_every=record_every))
    L0 = kinematics.two_polar(np.eye(n) + 0.4 * rng.standard_normal(
        (n, n))).L
    R0 = np.eye(n)[::-1] * np.r_[-1.0, np.ones(n - 1)][:, None]
    R0 *= np.linalg.det(R0)    # a rotation at every n
    return traj, L0, R0


def assert_sequential(model, traj, L0, R0):
    """reconstruct_attitudes within 1e-12 of the sequential reference."""
    got = dynamics.reconstruct_attitudes(model, traj, L0, R0)
    want = reference.reconstruct_attitudes(model, traj, L0, R0)
    assert len(got.attitudes) == len(want.attitudes) == len(traj.times)
    for (L, R), (Lw, Rw) in zip(got.attitudes, want.attitudes):
        assert np.max(np.abs(L - Lw)) <= 1e-12, model.kind
        assert np.max(np.abs(R - Rw)) <= 1e-12, model.kind


class TestParallelAttitudes:
    """reconstruct_attitudes steps the reduced state of all recorded
    intervals at once and moves the attitudes by closed-form RK4 step
    propagators; tests/reference.py keeps the sequential joint RK4."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("record_every", [1, 7, 100])
    def test_matches_sequential(self, n, record_every, rng):
        # every kind in one case, so that each (record_every, n) keeps
        # its test
        for model in ALL_KINDS:
            assert_sequential(model,
                              *attitude_case(rng, model, n, record_every))

    @pytest.mark.parametrize("record_every", [7, 100])
    def test_short_last_block(self, record_every, monkeypatch, rng):
        # a budget of three steps a block, the last one short: 7 = 3 + 3 +
        # 1 and 100 = 33 x 3 + 1 steps
        model = MODELS["MetrAff"]
        traj, L0, R0 = attitude_case(rng, model, 3, record_every)
        rows = len(traj.times) - 1
        monkeypatch.setattr(dynamics, "_ATTITUDE_BUDGET", 3 * rows + 2)
        polar = dynamics._polar_factors
        blocks = []

        def recording(mats):
            blocks.append(mats.shape)
            return polar(mats)

        monkeypatch.setattr(dynamics, "_polar_factors", recording)
        assert_sequential(model, traj, L0, R0)
        # the seeds, the blocks of propagators, the chain
        assert blocks[0] == (2, 3, 3) and blocks[-1] == (rows, 2, 3, 3)
        assert [shape[0] for shape in blocks[1:-1]] == \
            [3] * (record_every // 3) + [1]
        assert all(shape[1:] == (rows, 2, 3, 3) for shape in blocks[1:-1])

    def test_memory_bounded(self, rng):
        # 20 rows of 1,000 steps: the stage generators of the whole run
        # would take 34 MiB, those of one block take well under 1 MiB
        import tracemalloc
        model = MODELS["AffAff"]
        st_ = dynamics.unpack_state(packed_batch(rng, model, 3, 1)[0], 3)
        traj = dynamics.integrate(model, WELL, st_, 20.0,
                                  StepControl(step=1e-3, record_every=1000))
        assert len(traj.times) == 21
        dynamics.reconstruct_attitudes(model, traj, np.eye(3), np.eye(3))
        tracemalloc.start()
        try:
            dynamics.reconstruct_attitudes(model, traj, np.eye(3), np.eye(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @staticmethod
    def adaptive_geodesic(rng, max_step):
        """A geodesic with stretches e^0.8, 1, e^-0.8 at t = 0, and its
        reduced trajectory on an RK45 time grid."""
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        # -Q is a rotation when the orthogonal Q of odd size is not
        Q1, Q2 = (Q * np.sign(np.linalg.det(Q)) for Q in (
            np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2)))
        phi0 = Q1 @ np.diag(np.exp([0.8, 0.0, -0.8])) @ Q2
        Omega = rng.standard_normal((3, 3)) * 0.3
        state0, tp0 = dynamics.reduced_state_from_velocity(phi0, Omega,
                                                           model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "MAX_STEP", max_step)
            traj = dynamics.integrate(model, GEODETIC, state0, 1.0,
                                      StepControl(method="rk45", step=1e-3))
        # the grid starts at 1e-3 and doubles: the intervals differ
        assert len(np.unique(np.round(np.diff(traj.times), 12))) > 3
        return model, phi0, Omega, tp0, traj

    def test_adaptive_grid_matches_sequential(self, rng):
        # on the RK4 states of an uneven grid, each interval's own step
        # gives the sequential result
        model, _, _, tp0, traj = self.adaptive_geodesic(rng, 0.02)
        fun = dynamics.EomKernel(model, GEODETIC, 3).rhs
        ys = [traj.samples[0]]
        for h in np.diff(traj.times):
            ys.append(rk4_step(fun, ys[-1], h))
        traj.samples = np.array(ys)
        got = dynamics.reconstruct_attitudes(model, traj, tp0.L, tp0.R)
        want = reference.reconstruct_attitudes(model, traj, tp0.L, tp0.R)
        for (L, R), (Lw, Rw) in zip(got.attitudes, want.attitudes):
            assert np.max(np.abs(L - Lw)) <= 1e-12
            assert np.max(np.abs(R - Rw)) <= 1e-12

    def test_adaptive_grid_error(self, rng):
        # on an RK45 trajectory every interval restarts from its recorded
        # state, where the sequential form re-integrates that state with
        # RK4 steps of the grid's size.  Both errors are the propagators'
        # RK4 truncation: fourth order in the step, and within 0.7-1.7x of
        # each other on seven such geodesics (the sequential one is smaller
        # for five of them)
        errors = []
        seed = rng.integers(2 ** 32)
        for max_step in (0.02, 0.01):
            model, phi0, Omega, tp0, traj = self.adaptive_geodesic(
                np.random.default_rng(seed), max_step)
            got = dynamics.reconstruct_attitudes(model, traj, tp0.L, tp0.R)
            want = reference.reconstruct_attitudes(model, traj, tp0.L,
                                                   tp0.R)
            error = attitude_error(got, phi0, Omega)
            assert error <= 2.0 * attitude_error(want, phi0, Omega)
            errors.append(error)
        assert errors[0] < 1e-8
        assert errors[0] / errors[1] > 12.0

    def test_orthogonal_over_many_records(self, rng):
        model = MODELS["MetrMetr"]
        st_ = dynamics.unpack_state(packed_batch(rng, model, 3, 1)[0], 3)
        traj = dynamics.integrate(model, WELL, st_, 2.0,
                                  StepControl(step=1e-3))
        assert len(traj.times) == 2001
        out = dynamics.reconstruct_attitudes(model, traj, np.eye(3),
                                             np.eye(3))
        worst = max(np.max(np.abs(A @ A.T - np.eye(3)))
                    for pair in out.attitudes for A in pair)
        assert worst <= 1e-13
        # the attitudes have moved: the check is not on the identity
        L, R = out.attitudes[-1]
        assert np.max(np.abs(L - np.eye(3))) > 0.1
        assert np.max(np.abs(R - np.eye(3))) > 0.1

    def test_seeds_off_rotation_group_raise(self):
        model = ModelSpec(kind="AffAff", A=1.0, B=0.0)
        st_ = ReducedState(np.array([0.4, -0.4]), np.zeros(2))
        traj = dynamics.integrate(model, GEODETIC, st_, 0.1,
                                  StepControl(step=1e-2))
        with pytest.raises(StepFailure):
            dynamics.reconstruct_attitudes(model, traj, 1.01 * np.eye(2),
                                           np.eye(2))

    @sizes
    @pytest.mark.parametrize("side", ["L", "R"])
    def test_reflection_seeds_raise(self, n, side, rng):
        # orthogonal with det = -1 passes the orthogonality test, but is
        # no rotation: two_polar keeps L and R in SO(n)
        model = MODELS["AffAff"]
        st_ = dynamics.unpack_state(packed_batch(rng, model, n, 1)[0], n)
        traj = dynamics.integrate(model, WELL, st_, 0.1,
                                  StepControl(step=1e-2))
        flip = np.diag(np.r_[np.ones(n - 1), -1.0])
        seeds = (flip, np.eye(n)) if side == "L" else (np.eye(n), flip)
        with pytest.raises(StepFailure, match="determinant -1 "):
            dynamics.reconstruct_attitudes(model, traj, *seeds)


class TestGeodesics:
    def test_omega_zero(self):
        phi0 = np.diag([2.0, 1.0])
        cfg = dynamics.geodesic_exponential(phi0, np.zeros((2, 2)), 3.0)
        assert np.allclose(cfg.phi, phi0)

    def test_rotation(self):
        w = 0.7
        Omega = np.array([[0.0, -w], [w, 0.0]])
        t = 0.9
        cfg = dynamics.geodesic_exponential(np.eye(2), Omega, t)
        c, s = np.cos(w * t), np.sin(w * t)
        assert np.allclose(cfg.phi, [[c, -s], [s, c]], atol=1e-14)

    def test_expm_matches_scipy(self, rng):
        # scaling and squaring of a degree-18 Taylor series against
        # scipy's Pade approximant, up to norms of about 60
        import scipy.linalg
        for _ in range(200):
            n = int(rng.integers(2, 5))
            X = rng.standard_normal((n, n)) * rng.uniform(0.0, 20.0)
            want = scipy.linalg.expm(X)
            got = dynamics._expm(X)
            assert rel_err(got / np.max(np.abs(want)),
                           want / np.max(np.abs(want))) <= 2e-11
        assert np.array_equal(dynamics._expm(np.zeros((3, 3))), np.eye(3))

    def test_dual_route(self, rng):
        model = ModelSpec(kind="AffAff", A=1.3, B=0.4)
        for _ in range(3):
            phi0 = checks.random_configuration(rng, 3, cond_max=50.0)
            Omega = rng.standard_normal((3, 3)) * 0.5
            report = checks.geodesic_cross_check(model, phi0, Omega, 1.0,
                                                 step=1e-3, samples=11)
            assert report["max_error"] < 1e-6


class TestStationary:
    def test_skew(self):
        Om = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, res = dynamics.stationary_check(Om)
        assert ok and res < 1e-14

    def test_symmetric(self):
        Om = np.array([[0.3, 1.0], [1.0, -0.2]])
        ok, res = dynamics.stationary_check(Om)
        assert ok

    def test_shear_fails(self):
        Om = np.array([[0.0, 1.0], [0.0, 0.0]])
        ok, res = dynamics.stationary_check(Om)
        assert not ok
        assert res == pytest.approx(np.sqrt(2.0), rel=1e-12)


# the planar orbits checked against root search and quadrature: m/n from
# 0.007 to 0.83 and 0, A = 1 and 1.7, and E from 1 % to 99 % of the depth
# of the well, V_eff(x_min)
planar_orbits = pytest.mark.parametrize("m,n,A,depth", [
    (ratio * 2.0, 2.0, A, depth)
    for ratio in (0.007, 0.1, 0.5, 0.83, 0.0)
    for A in (1.0, 1.7)
    for depth in (0.01, 0.5, 0.99)])


def planar_orbit(m, n, A, depth):
    """E at the fraction depth of V_eff(x_min), and the classification of
    the orbit at that energy."""
    x_min = dynamics.classify_planar(m, n, A=A).x_min
    E = depth * dynamics.planar_effective_potential(m, n, A, x_min)
    return E, dynamics.classify_planar(m, n, A=A, energy=E)


class TestPlanar:
    def test_zero_couplings(self):
        xs = np.linspace(0.5, 3.0, 7)
        vals = dynamics.planar_effective_potential(0.0, 0.0, 1.0, xs)
        assert np.allclose(vals, 0.0)

    def test_reference_value(self):
        x = 2.0 * np.arcsinh(1.0)
        val = dynamics.planar_effective_potential(4.0, 0.0, 1.0, x)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_parity(self, rng):
        for _ in range(10):
            m, n, A = rng.uniform(0.2, 3.0, 3)
            x = rng.uniform(0.3, 4.0)
            left = dynamics.planar_effective_potential(m, n, A, -x)
            right = dynamics.planar_effective_potential(m, n, A, x)
            assert left == pytest.approx(right, rel=1e-12)

    def test_singular_origin(self):
        with pytest.raises(DegenerateInertia):
            dynamics.planar_effective_potential(1.0, 0.0, 1.0, 0.0)

    def test_verdicts(self):
        assert dynamics.classify_planar(1.0, 2.0).verdict == "Bounded"
        assert dynamics.classify_planar(2.0, 1.0).verdict == "Unbounded"
        assert dynamics.classify_planar(1.0, 1.0).verdict == "Threshold"

    @pytest.mark.parametrize("m,n", [(1.0, 2.0), (0.1, 3.0), (-0.5, 0.6),
                                     (2.0, -7.0), (0.0, 1.5)])
    def test_x_min_closed_form(self, m, n):
        # V_eff' = 0 where tanh^4(x/2) = (m/n)^2
        x_min = dynamics.classify_planar(m, n, A=1.3).x_min
        expected = 2.0 * np.arctanh(np.sqrt(abs(m / n)))
        assert x_min == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert np.tanh(0.5 * x_min) ** 4 == pytest.approx((m / n) ** 2,
                                                          rel=1e-14)
        for step in (1e-4, -1e-4):
            assert dynamics.planar_effective_potential(m, n, 1.3, x_min) \
                < dynamics.planar_effective_potential(m, n, 1.3,
                                                      x_min + step)

    @pytest.mark.parametrize("A", [0.0, -1.0, float("nan")])
    def test_nonpositive_A_rejected(self, A):
        with pytest.raises(ConfigError):
            dynamics.classify_planar(1.0, 2.0, A=A)

    @planar_orbits
    def test_turning_points_bracket_energy(self, m, n, A, depth):
        E, res = planar_orbit(m, n, A, depth)
        x1, x2 = res.turning_points
        assert x1 < res.x_min < x2

        def gap(x):
            return dynamics.planar_effective_potential(m, n, A, x) - E

        hi = 2.0 * res.x_min + 1.0
        while gap(hi) < 0.0:
            hi *= 2.0
        outer = scipy.optimize.brentq(gap, res.x_min, hi, xtol=1e-15)
        inner = scipy.optimize.brentq(gap, 1e-10, res.x_min, xtol=1e-15) \
            if m else -outer
        assert (x1, x2) == pytest.approx((inner, outer), rel=1e-14, abs=0.0)
        for x in (x1, x2):
            assert abs(gap(x)) <= 1e-12 * abs(E)
            v = dynamics.planar_effective_potential(m, n, A, x)
            assert v == pytest.approx(E, abs=1e-9)
        assert res.period > 0

    @pytest.mark.parametrize("m", [1.0, 0.0])
    def test_no_turning_points_at_or_above_escape(self, m):
        below = dynamics.classify_planar(m, 2.0, energy=None)
        # the bottom of the well: V_eff(x_min), and V_eff(0) for m = 0
        bottom = dynamics.planar_effective_potential(m, 2.0, 1.0,
                                                     below.x_min)
        for energy in (0.0, 0.02, 1e3, bottom,
                       np.nextafter(bottom, -np.inf), 1.5 * bottom):
            res = dynamics.classify_planar(m, 2.0, energy=energy)
            assert res.verdict == below.verdict == "Bounded"
            assert res.x_min == below.x_min
            assert res.turning_points is None
            assert res.period is None

    def test_well_bottom_closed_form(self):
        # at 0 < |m|/|n| < 2.5e-25 x_min lies below the x = 0 guard of
        # V_eff, and the bottom -(|n| - |m|)^2 / (16 A) needs no V_eff there
        res = dynamics.classify_planar(1e-26, 1.0, energy=-0.01)
        assert res.verdict == "Bounded"
        x1, x2 = res.turning_points
        assert 0.0 < x1 < res.x_min < x2
        assert res.period == pytest.approx(10.0 * np.pi, rel=1e-14)
        for m, n, A in [(1.0, 2.0, 1.0), (0.0, 2.0, 1.0), (0.5, 1.5, 1.3),
                        (2.0, 3.5, 1.3)]:
            x_min = dynamics.classify_planar(m, n, A=A).x_min
            assert dynamics.planar_effective_potential(m, n, A, x_min) == \
                pytest.approx(-(n - m) ** 2 / (16.0 * A), rel=1e-15)

    @staticmethod
    def quadrature_period(m, n, A, E, turning):
        """T = integral dx sqrt(A / (E - V_eff(x))) between the turning
        points, with x = mid + half sin(theta) to remove the endpoint
        singularities."""
        x1, x2 = turning
        mid, half = 0.5 * (x1 + x2), 0.5 * (x2 - x1)

        def integrand(theta):
            x = mid + half * np.sin(theta)
            gap = E - dynamics.planar_effective_potential(m, n, A, x)
            return half * np.cos(theta) * np.sqrt(A / max(gap, 1e-300))

        return scipy.integrate.quad(integrand, -0.5 * np.pi, 0.5 * np.pi,
                                    epsabs=0.0, epsrel=1e-12, limit=200)[0]

    @planar_orbits
    def test_period_against_quadrature(self, m, n, A, depth):
        E, res = planar_orbit(m, n, A, depth)
        period = self.quadrature_period(m, n, A, E, res.turning_points)
        assert res.period == pytest.approx(period, rel=1e-10)

    def test_period_is_isochronous(self):
        # at one A and E the period is the same for every m/n whose well
        # reaches below E, and twice that for m = 0, where x crosses 0
        A, E = 1.3, -0.01
        periods = []
        for m, n in [(0.1, 2.0), (0.5, 1.5), (1.0, 2.0), (2.0, 3.5),
                     (0.0, 1.0)]:
            res = dynamics.classify_planar(m, n, A=A, energy=E)
            period = self.quadrature_period(m, n, A, E, res.turning_points)
            assert res.period == pytest.approx(period, rel=1e-10)
            periods.append(period / (2.0 if m == 0.0 else 1.0))
        assert periods == pytest.approx([np.pi * np.sqrt(A / -E)] * 5,
                                        rel=1e-10)

    def test_period_against_integration(self):
        # launch at the inner turning point and watch the oscillation
        res0 = dynamics.classify_planar(1.0, 2.0, A=1.0)
        vmin = dynamics.planar_effective_potential(1.0, 2.0, 1.0,
                                                   res0.x_min)
        E = 0.5 * vmin
        res = dynamics.classify_planar(1.0, 2.0, A=1.0, energy=E)
        model, st_ = dynamics.planar_state(1.0, 2.0, res.turning_points[0],
                                           0.0, A=1.0)
        traj = dynamics.integrate(model, GEODETIC, st_, 2.2 * res.period,
                                  StepControl(step=1e-3, record_every=5))
        x = traj.samples[:, 0] - traj.samples[:, 1]
        # find the first return to the inner turning point with the same
        # approach direction via the local minima of x(t)
        interior = (x[1:-1] < x[:-2]) & (x[1:-1] < x[2:])
        idx = np.where(interior)[0] + 1
        assert idx.size >= 2
        measured = traj.times[idx[1]] - traj.times[idx[0]]
        assert measured == pytest.approx(res.period, rel=1e-3)

    def test_planar_state_energy_matches_effective(self):
        model, st_ = dynamics.planar_state(1.0, 2.0, 1.4, 0.3, A=1.0)
        total = phase.hamiltonian(model, GEODETIC, st_)
        expected = 0.3 ** 2 / 1.0 + dynamics.planar_effective_potential(
            1.0, 2.0, 1.0, 1.4)
        assert total == pytest.approx(expected, rel=1e-12)
