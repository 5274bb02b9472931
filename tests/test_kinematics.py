import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinebody import kinematics
from affinebody.errors import SingularConfiguration

from conftest import random_spd_configuration


def rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestPolar:
    def test_identity(self):
        pol = kinematics.polar_decompose(np.eye(3))
        assert np.allclose(pol.U, np.eye(3))
        assert np.allclose(pol.A, np.eye(3))

    def test_diagonal_positive(self):
        phi = np.diag([2.0, 0.5])
        pol = kinematics.polar_decompose(phi)
        assert np.allclose(pol.U, np.eye(2), atol=1e-14)
        assert np.allclose(pol.A, phi, atol=1e-14)

    def test_random_reconstruction(self, rng):
        for _ in range(30):
            phi = random_spd_configuration(rng, 3)
            pol = kinematics.polar_decompose(phi)
            assert np.linalg.norm(pol.U.T @ pol.U - np.eye(3)) < 1e-12
            assert np.linalg.norm(pol.reconstruct() - phi) < 1e-12
            # symmetric positive-definite factor
            assert np.allclose(pol.A, pol.A.T)
            assert np.all(np.linalg.eigvalsh(pol.A) > 0)


class TestTwoPolar:
    def test_diagonal_descending(self):
        phi = np.diag([2.0, 0.5])
        tp = kinematics.two_polar(phi)
        assert np.allclose(tp.L, np.eye(2), atol=1e-14)
        assert np.allclose(tp.R, np.eye(2), atol=1e-14)
        assert np.allclose(tp.q, [np.log(2.0), -np.log(2.0)])

    def test_rotation_degenerate_gauge(self):
        # an isometry has fully degenerate deformation: only L R^{-1} is
        # meaningful and the canonical gauge puts the rotation into L
        phi = rotation2(0.5 * np.pi)
        tp = kinematics.two_polar(phi)
        assert np.allclose(tp.q, [0.0, 0.0], atol=1e-14)
        assert np.allclose(tp.R, np.eye(2), atol=1e-14)
        assert np.allclose(tp.L, phi, atol=1e-14)

    def test_random_reconstruction_and_eigen_oracle(self, rng):
        for _ in range(50):
            phi = random_spd_configuration(rng, 3)
            tp = kinematics.two_polar(phi)
            assert np.linalg.norm(tp.reconstruct() - phi) \
                / np.linalg.norm(phi) < 1e-10
            assert np.linalg.norm(tp.L.T @ tp.L - np.eye(3)) < 1e-12
            assert np.linalg.norm(tp.R.T @ tp.R - np.eye(3)) < 1e-12
            assert np.linalg.det(tp.L) > 0
            assert np.linalg.det(tp.R) > 0
            # independent oracle: the Green tensor G = phi^T phi has
            # eigenvalues exp(2 q)
            ev = np.sort(np.linalg.eigvalsh(phi.T @ phi))[::-1]
            assert np.allclose(np.exp(2 * np.sort(tp.q)[::-1]), ev,
                               rtol=1e-9)
            # q is sorted descending by convention
            assert np.all(np.diff(tp.q) <= 1e-12)

    def test_align_preserves_product(self, rng):
        phi = random_spd_configuration(rng, 3)
        tp = kinematics.two_polar(phi)
        ref = kinematics.two_polar(
            phi + 1e-3 * rng.standard_normal((3, 3)))
        aligned = kinematics.align_two_polar(tp, ref)
        assert np.linalg.norm(aligned.reconstruct() - phi) < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularConfiguration):
            kinematics.two_polar(np.diag([1.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        phi = random_spd_configuration(rng, n)
        tp = kinematics.two_polar(phi)
        assert np.linalg.norm(tp.reconstruct() - phi) \
            / max(np.linalg.norm(phi), 1.0) < 1e-10


class TestDegeneracyMargin:
    def test_simple(self):
        assert kinematics.degeneracy_margin(
            np.array([1.0, 0.0, -1.0])) == pytest.approx(1.0)

    def test_degenerate(self):
        assert kinematics.degeneracy_margin(
            np.array([0.3, 0.3])) == pytest.approx(0.0)

    def test_min_gap(self):
        q = np.array([np.log(2.0), 0.0, -np.log(2.0)])
        assert kinematics.degeneracy_margin(q) == pytest.approx(
            np.log(2.0), abs=1e-12)


def stack_of_configurations(rng, n, count):
    """count configurations of det > 0 with a scaled rotation first; for
    n >= 2 some members have det u < 0 in their SVD, so their factors
    need the gauge flip."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q[:, 0] *= np.sign(np.linalg.det(Q))
    members = [2.5 * Q]
    while len(members) < count:
        members.append(random_spd_configuration(rng, n))
    phi = np.array(members)
    if n >= 2:
        assert np.any(np.linalg.det(np.linalg.svd(phi)[0]) < 0.0)
    return phi


def first_error(matrices):
    """The exception a loop of two_polar calls meets first."""
    for phi in matrices:
        try:
            kinematics.two_polar(phi)
        except SingularConfiguration as exc:
            return str(exc)
    raise AssertionError("no member fails")


class TestStacks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_single_calls(self, rng, n):
        phi = stack_of_configurations(rng, n, 12)
        tp = kinematics.two_polar(phi)
        pol = kinematics.polar_decompose(phi)
        # the scaled rotation takes the fully degenerate gauge
        assert np.array_equal(tp.R[0], np.eye(n))
        for k, member in enumerate(phi):
            one = kinematics.two_polar(member)
            for got, want in ((tp.L, one.L), (tp.R, one.R), (tp.q, one.q)):
                assert np.array_equal(got[k], want)
            one = kinematics.polar_decompose(member)
            assert np.array_equal(pol.U[k], one.U)
            assert np.array_equal(pol.A[k], one.A)
        # more leading axes than one
        tp2 = kinematics.two_polar(phi.reshape(3, 4, n, n))
        assert np.array_equal(tp2.L.reshape(tp.L.shape), tp.L)
        assert np.array_equal(tp2.q.reshape(tp.q.shape), tp.q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruct(self, rng, n):
        # as many members as n: a transpose of the whole stack would give
        # a square stack of the wrong matrices instead of failing
        phi = stack_of_configurations(rng, n, n)
        for factors in (kinematics.two_polar(phi),
                        kinematics.polar_decompose(phi)):
            whole = factors.reconstruct()
            assert whole.shape == phi.shape
            for k, member in enumerate(phi):
                one = type(factors)(*(np.asarray(f)[k] for f in
                                      vars(factors).values()))
                assert np.array_equal(whole[k], one.reconstruct())
            assert np.max(np.abs(whole - phi)) <= 1e-12 * np.max(np.abs(phi))

    @pytest.mark.parametrize("bad", [
        [np.diag([1.0, 0.0])],
        [np.diag([-1.0, 1.0]), np.diag([1.0, 1e-13])],
        [np.diag([1.0, 1e-13]), np.diag([-1.0, 1.0])],
        [np.diag([1.0, 0.0]), np.diag([np.nan, 1.0])],
        [np.diag([np.inf, 1.0]), np.diag([-1.0, 1.0])],
    ], ids=["singular", "det-then-floor", "floor-then-det",
            "singular-then-nan", "inf-then-det"])
    def test_first_failing_member_raises(self, rng, bad):
        good = [random_spd_configuration(rng, 2) for _ in range(3)]
        matrices = np.array(good[:2] + bad + good[2:])
        # the same members after good ones, held as a (2, 3) stack: the
        # first failing member sits in its second row
        front = [random_spd_configuration(rng, 2)
                 for _ in range(6 - len(matrices))]
        grid = np.concatenate([front, matrices]).reshape(2, 3, 2, 2)
        for stack in (matrices, grid):
            expected = first_error(stack.reshape(-1, 2, 2))
            for decompose in (kinematics.two_polar,
                              kinematics.polar_decompose):
                with pytest.raises(SingularConfiguration) as info:
                    decompose(stack)
                assert str(info.value) == expected
