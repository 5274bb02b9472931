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
