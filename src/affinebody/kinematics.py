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


def _check_configuration(phi):
    """phi as a float array, checked to be square, finite and of positive
    determinant."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ShapeMismatch(f"phi must be square, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise SingularConfiguration("phi contains non-finite entries")
    if np.linalg.det(phi) <= 0.0:
        raise SingularConfiguration(
            "configuration must have positive determinant")
    return phi


@dataclass(frozen=True)
class Configuration:
    """Internal configuration phi."""

    phi: np.ndarray

    def __post_init__(self):
        phi = _check_configuration(self.phi)
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
    freedom remains.
    """

    L: np.ndarray
    R: np.ndarray
    q: np.ndarray

    def reconstruct(self):
        return (self.L * np.exp(self.q)) @ self.R.T


def _guarded_svd(phi):
    phi = _check_configuration(phi)
    u, s, vt = np.linalg.svd(phi)
    if s[0] == 0.0 or s[-1] < CONDITION_FLOOR * s[0]:
        raise SingularConfiguration(
            f"singular value ratio {s[-1] / s[0] if s[0] else 0.0:.3e} "
            f"below condition floor {CONDITION_FLOOR:.0e}")
    return u, s, vt


def polar_decompose(phi):
    """Left polar factorisation phi = U A.

    U is the closest special orthogonal matrix to phi, A = U^T phi is
    symmetric positive definite.
    """
    u, s, vt = _guarded_svd(phi)
    # det(phi) > 0 ensures det(u vt) = +1, so U is already a rotation
    U = u @ vt
    A = vt.T @ (s[:, None] * vt)
    A = 0.5 * (A + A.T)
    return PolarDecomposition(U=U, A=A)


def two_polar(phi):
    """Two-polar (singular value) factorisation phi = L diag(exp q) R^T."""
    u, s, vt = _guarded_svd(phi)
    n = len(s)
    spread = (s[0] - s[-1]) / s[0]
    if spread <= FULL_DEGENERACY_TOL:
        # fully degenerate spectrum: phi is a multiple of a rotation, pick
        # the gauge R = identity so rotations factor as themselves
        scale = float(np.mean(s))
        L = np.asarray(phi, dtype=float) / scale
        # re-project to the orthogonal group to kill rounding drift
        lu, _, lvt = np.linalg.svd(L)
        L = lu @ lvt
        return TwoPolar(L=L, R=np.eye(n), q=np.full(n, np.log(scale)))
    L = u.copy()
    R = vt.T.copy()
    # joint sign flip of a matched column pair leaves phi invariant and
    # fixes both determinants to +1
    if np.linalg.det(L) < 0.0:
        L[:, -1] = -L[:, -1]
        R[:, -1] = -R[:, -1]
    return TwoPolar(L=L, R=R, q=np.log(s))


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
    diffs = np.abs(q[:, None] - q[None, :])
    iu = np.triu_indices(q.size, k=1)
    return float(diffs[iu].min())
