import numpy as np
import pytest

from affinebody import checks

import reference


class Doomed:
    """A generator whose standard_normal returns zeros, a matrix the SVD
    finds singular, when drawn from one of the stream positions in
    doomed; it consumes the stream as a plain draw does."""

    def __init__(self, seed, doomed=()):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.doomed = set(doomed)
        self.positions = []

    def standard_normal(self, shape):
        position = self.bit_generator.state["state"]["state"]
        self.positions.append(position)
        raw = self.rng.standard_normal(shape)
        return np.zeros(shape) if position in self.doomed else raw

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


def by_dimension(dims, matrices):
    return {n: np.array([m for d, m in zip(dims, matrices) if d == n])
            for n in dict.fromkeys(dims)}


def assert_same_stacks(got, want):
    assert list(got) == list(want)
    for n in want:
        assert np.array_equal(got[n], want[n])


class TestRandomConfigurations:
    DIMS = [2, 3, 1, 3, 4, 2, 2, 3]

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_stacked_draw_is_the_loop(self, seed):
        rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = checks.random_configurations(rng, self.DIMS, cond_max=1e4)
        want = [reference.random_configuration(loop, n, cond_max=1e4)
                for n in self.DIMS]
        assert_same_stacks(got, by_dimension(self.DIMS, want))
        assert rng.bit_generator.state == loop.bit_generator.state
        assert np.array_equal(
            checks.random_configuration(rng, 3),
            reference.random_configuration(loop, 3))

    @pytest.mark.parametrize("calls", [(0,), (1,), (7,), (1, 2, 6)],
                             ids=["first", "second", "last", "three"])
    def test_redraw_is_the_loop(self, calls):
        # doom the raw matrix that the loop draws at each of these calls,
        # one after another: (1, 2, 6) dooms trial 1's redraw as well
        doomed = set()
        for call in calls:
            probe = Doomed(5, doomed)
            for n in self.DIMS:
                reference.random_configuration(probe, n)
            doomed.add(probe.positions[call])
        loop = Doomed(5, doomed)
        want = [reference.random_configuration(loop, n) for n in self.DIMS]
        assert sum(p in doomed for p in loop.positions) == len(calls)
        rng = Doomed(5, doomed)
        got = checks.random_configurations(rng, self.DIMS)
        assert_same_stacks(got, by_dimension(self.DIMS, want))
        assert rng.bit_generator.state == loop.bit_generator.state
