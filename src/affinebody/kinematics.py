"""Configuration kinematics of an affinely-rigid body.

The internal configuration is an n x n real matrix phi with positive
determinant.  The two-polar factorisation phi = L diag(exp q) R^T with
L, R special orthogonal separates rigid attitude from pure deformation;
everything downstream (reduced dynamics, quantisation) lives on the
deformation exponents q and the attitude pair (L, R).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularConfiguration

# smallest/largest singular value ratio below this is treated as singular
CONDITION_FLOOR = 1e-12

# relative spread below which the singular spectrum counts as fully degenerate
FULL_DEGENERACY_TOL = 1e-14


def _check_configuration(phi, floor=None):
    """phi as a float array of n x n matrices (..., n, n), one matrix
    being a stack with no leading axes, and its SVD (u, s, vt), or None
    when no floor is given.  Each member is checked to be finite, of
    positive determinant and, given a floor, of smallest/largest singular
    value ratio at least floor; the first member in stack order that
    fails a test raises that test's error."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim < 2 or phi.shape[-1] != phi.shape[-2]:
        raise ShapeMismatch(f"phi must be square, got shape {phi.shape}")
    # the whole stack is tested at once; members are told apart only
    # when it fails
    finite = np.isfinite(phi).all()
    if finite:
        positive = np.linalg.det(phi) > 0.0
        factors = None
        passed = positive
        if floor is not None:
            factors = np.linalg.svd(phi)
            s = factors[1]
            # det > 0 already rules out s[..., 0] == 0
            passed = positive & (s[..., -1] >= floor * s[..., 0])
        if passed.all():
            return phi, factors
    if phi.ndim > 2:
        # each member in stack order: the first that fails raises
        for member in phi.reshape(-1, *phi.shape[-2:]):
            _check_configuration(member, floor)
    if not finite:
        raise SingularConfiguration("phi contains non-finite entries")
    if not positive:
        raise SingularConfiguration(
            "configuration must have positive determinant")
    raise SingularConfiguration(
        f"singular value ratio {s[-1] / s[0]:.3e} "
        f"below condition floor {floor:.0e}")


@dataclass(frozen=True)
class Configuration:
    """Internal configuration phi."""

    phi: np.ndarray

    def __post_init__(self):
        if np.ndim(self.phi) != 2:
            raise ShapeMismatch(
                f"phi must be square, got shape {np.shape(self.phi)}")
        phi, _ = _check_configuration(self.phi)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self):
        return self.phi.shape[0]


@dataclass(frozen=True)
class PolarDecomposition:
    """phi = U A with U special orthogonal, A symmetric positive definite."""

    U: np.ndarray
    A: np.ndarray

    def reconstruct(self):
        return self.U @ self.A


@dataclass(frozen=True)
class TwoPolar:
    """phi = L diag(Q) R^T, L and R special orthogonal, Q = exp(q).

    Gauge: q is sorted non-increasing and det L = det R = +1.  When the
    deformation spectrum is degenerate the factors are one valid choice
    among many; ``degeneracy_margin(q)`` tells the caller how much gauge
    freedom remains.  The factors of a stack (..., n, n) carry its
    leading axes.
    """

    L: np.ndarray
    R: np.ndarray
    q: np.ndarray

    def reconstruct(self):
        return (self.L * np.exp(self.q)[..., None, :]) \
            @ np.swapaxes(self.R, -1, -2)


def polar_decompose(phi):
    """Left polar factorisation phi = U A of one n x n matrix, or of each
    member of a stack (..., n, n).

    U is the closest special orthogonal matrix to phi, A = U^T phi is
    symmetric positive definite.
    """
    _, (u, s, vt) = _check_configuration(phi, CONDITION_FLOOR)
    # det(phi) > 0 ensures det(u vt) = +1, so U is already a rotation
    U = u @ vt
    A = vt.swapaxes(-1, -2) @ (s[..., :, None] * vt)
    A = 0.5 * (A + A.swapaxes(-1, -2))
    return PolarDecomposition(U=U, A=A)


def two_polar(phi):
    """Two-polar (singular value) factorisation phi = L diag(exp q) R^T of
    one n x n matrix, or of each member of a stack (..., n, n)."""
    phi, (L, s, vt) = _check_configuration(phi, CONDITION_FLOOR)
    R = vt.swapaxes(-1, -2).copy()
    q = np.log(s)
    # joint sign flip of a matched column pair leaves phi invariant and
    # fixes both determinants to +1
    sign = np.sign(np.linalg.det(L))[..., None]
    L[..., -1] *= sign
    R[..., -1] *= sign
    spread = (s[..., 0] - s[..., -1]) / s[..., 0]
    degenerate = spread <= FULL_DEGENERACY_TOL
    if np.count_nonzero(degenerate):
        # fully degenerate spectrum: phi is a multiple of a rotation, pick
        # the gauge R = identity so rotations factor as themselves
        scale = np.mean(s[degenerate], axis=-1)
        # re-project to the orthogonal group to kill rounding drift
        lu, _, lvt = np.linalg.svd(phi[degenerate] / scale[:, None, None])
        L[degenerate] = lu @ lvt
        R[degenerate] = np.eye(s.shape[-1])
        q[degenerate] = np.log(scale)[:, None]
    return TwoPolar(L=L, R=R, q=q)


def align_two_polar(tp, reference):
    """Re-gauge a TwoPolar factorisation to follow a nearby reference.

    Flips matched column-sign pairs (an even number of flips, so both
    determinants stay +1) to maximise agreement with ``reference.L``.
    Useful for keeping factors continuous along a sampled path.
    """
    L = tp.L.copy()
    R = tp.R.copy()
    overlap = np.einsum("ia,ia->a", reference.L, L)
    flip = overlap < 0.0
    if flip.sum() % 2 == 1:
        # keep determinants at +1: un-flip the column with the weakest vote
        idx = np.where(flip)[0]
        weakest = idx[np.argmax(overlap[idx])]
        flip[weakest] = False
    L[:, flip] = -L[:, flip]
    R[:, flip] = -R[:, flip]
    return TwoPolar(L=L, R=R, q=tp.q)


def degeneracy_margin(q):
    """Smallest pairwise gap of the deformation exponents.

    Zero margin means the two-polar gauge is not unique.
    """
    q = np.asarray(q, dtype=float)
    if q.size < 2:
        return np.inf
    # the smallest gap lies between neighbours in sorted order
    return float(np.min(np.diff(np.sort(q))))
