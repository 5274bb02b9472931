"""Classical time evolution of the reduced variables.

The packed state vector layout matches the trajectory CSV columns:
[q (n), p (n), upper(M), upper(N)].  The right-hand side is

    dq/dt = dH/dp,  dp/dt = -dH/dq,
    dM/dt = [M, G_M] + [N, G_N],  dN/dt = [N, G_M] + [M, G_N],

with G_M = dH/dM, G_N = dH/dN the skew gradient matrices.  Conservation
of energy and the quadratic Casimir is monitored, never enforced.

Layout contract: every public array of packed states is (..., dim), one
state per trailing row, a single state being (dim,).  The kernel itself
works component-major, on the transpose (dim, B) of the states flattened
to (B, dim).  A Fortran-ordered (B, dim) batch is the fast path: its
transpose is a free view in which each component is one contiguous row.
integrate_batch holds its state that way.  Any other input gives the same
numbers and is read through strides or a copy.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.optimize
from scipy.linalg import expm

from .errors import (ConfigError, DegenerateInertia, DomainError,
                     ShapeMismatch, StepFailure)
from . import phase
from .kinematics import Configuration, align_two_polar, two_polar
from .phase import ReducedState

ORTHOGONALITY_TOL = 1e-9
STATIONARY_TOL = 1e-10
THRESHOLD_TOL = 1e-12
# turning points near the steep wall at x = 0 miss V_eff = E by up to 4e-13
# with brentq's default xtol of 2e-12, and stay near round-off with this
TURNING_XTOL = 1e-15
METHODS = ("rk4", "rk45")


@dataclass(frozen=True)
class StepControl:
    method: str = "rk4"          # "rk4" fixed step or "rk45" adaptive
    step: float = 1e-3
    record_every: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10
    min_step: float = 1e-12
    max_step: float = 0.1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown integrator {self.method!r}")
        if self.step <= 0 or self.record_every < 1:
            raise ConfigError("step must be positive, record_every >= 1")


def pack_state(state):
    return np.concatenate([state.q, state.p, state.m_upper, state.n_upper])


def unpack_state(y, n):
    nu = n * (n - 1) // 2
    return ReducedState(y[:n], y[n:2 * n],
                        m_upper=y[2 * n:2 * n + nu],
                        n_upper=y[2 * n + nu:])


@functools.lru_cache(maxsize=None)
def _commutator_terms(n):
    """(partners, signs) with signs @ (u[:, :, None] * g[partners]).ravel()
    equal to the upper parts of ([M, G_M] + [N, G_N], [N, G_M] + [M, G_N]),
    where u (2, k) holds upper(M), upper(N) and g (2k,) stacks upper(G_M),
    upper(G_N).  Row i of partners picks the elements of both blocks of g
    that do not commute with E_i: one product per nonzero structure
    constant of so(n), none for the abelian so(2)."""
    layout = phase.pair_layout(n)
    k = layout.count
    basis = layout.skew(np.eye(k))
    # structure constants of so(n): [E_i, E_j] = sum_l C[i, j, l] E_l
    C = layout.upper(basis[:, None] @ basis[None, :]
                     - basis[None, :] @ basis[:, None])
    # E_ab fails to commute with the T = 2 (n - 2) elements sharing one
    # index with it
    T = 2 * max(n - 2, 0)
    partners = np.nonzero(C.any(axis=-1))[1].reshape(k, T)
    constants = C[np.arange(k)[:, None], partners].transpose(2, 0, 1)
    # signs[output block, l, u block, i, g block, t]: M G_M and N G_N
    # feed dM, N G_M and M G_N feed dN
    signs = np.zeros((2, k, 2, k, 2, T))
    for ub in (0, 1):
        for gb in (0, 1):
            signs[ub ^ gb, :, ub, :, gb] = constants
    return np.concatenate([partners, k + partners], axis=1), \
        signs.reshape(2 * k, 4 * k * T)


class EomKernel:
    """Reduced equations of motion of one model and potential at size n.

    Takes and returns packed states (..., dim) and works on their
    component-major transpose (dim, B), one row per component (see the
    module docstring).  Each pair's sinh/cosh (sin/cos for TrigUn, exp for
    DAlembert) is evaluated once per call, the commutators are summed over
    the nonzero so(n) structure constants, and every constant of the model
    is computed once, at construction.
    """

    def __init__(self, model, potential, n):
        layout = phase.pair_layout(n)
        k = layout.count
        inc = layout.incidence
        self.n = n
        self.kind = model.kind
        self.layout = layout
        self.potential = potential
        self.slope = None if potential.is_trivial \
            else potential.dilatational_slope
        self.partners, self.spin_signs = _commutator_terms(n)
        self.coupling = None
        if self.kind == "DAlembert":
            # pair denominators (Q_a - Q_b, Q_a + Q_b) with Q = exp(q)
            self.pair_map = np.concatenate([inc, np.abs(inc)])
            self.coef = np.full((2 * k, 1), 0.5 / model.I)
            self.q_weights = 2.0 * model.I * self.pair_map.T
            self.inv_inertia = 1.0 / model.I
            return
        alpha = model.alpha
        trig = self.kind == "TrigUn"
        # pair denominators (sm, cm) of half the pair difference
        self.pair_map = 0.5 * inc
        self.sm, self.cm = (np.sin, np.cos) if trig else (np.sinh, np.cosh)
        self.coef = np.repeat([1.0, 1.0 if trig else -1.0], k)[:, None] \
            / (8.0 * alpha)
        self.q_weights = 4.0 * alpha * inc.T
        self.momentum = np.eye(n) / alpha + (
            2.0 / model.trace_coefficient(n) - 1.0 / (n * alpha))
        # metric parts of the kinetic energy, |tau|^2 and |rho|^2 terms,
        # as the Hessian in u of a quadratic form
        plus = minus = 0.0
        if self.kind == "AffMetr":
            plus = 0.25 / model.mu
        elif self.kind == "MetrAff":
            minus = 0.25 / model.mu
        elif self.kind == "MetrMetr":
            plus, minus = 0.25 / model.d, 0.25 / model.c
        if plus or minus:
            diag = (plus + minus) * np.eye(k)
            off = (plus - minus) * np.eye(k)
            self.coupling = np.block([[diag, off], [off, diag]])

    def _pairs(self, x, u):
        """Pair denominators d (2k, B) and the weights coef/d^2 with which
        u enters dH/du, the removable terms of vanishing coupling set to
        zero.  x is Q = exp(q) for DAlembert and q otherwise, (n, B)."""
        k = self.layout.count
        tol = phase.DEGENERACY_TOL
        d = np.empty((2 * k,) + x.shape[1:])
        if self.kind == "DAlembert":
            np.matmul(self.pair_map, x, out=d)
            # Q_a + Q_b >= max(Q_a, Q_b): a screen for the exact test below
            near = np.abs(d[:k]) < tol * d[k:]
        else:
            h = self.pair_map @ x
            self.sm(h, out=d[:k])
            self.cm(h, out=d[k:])
            # sinh(h) == h below 2^-28, so for the hyperbolic kinds this is
            # exactly |q_a - q_b| < tol; cosh never triggers it
            near = np.abs(d if self.kind == "TrigUn" else d[:k]) < 0.5 * tol
        if not np.count_nonzero(near):
            return d, self.coef / (d * d)
        if self.kind == "DAlembert":
            ia, ib = self.layout.iu
            near = np.abs(d[:k]) < tol * np.maximum(x[ia], x[ib])
        if len(near) == k:
            near = np.concatenate([near, np.zeros_like(near)])
        if np.any(near[k:] & (u[k:] != 0.0)):
            raise DegenerateInertia(
                "antipodal invariants q_a - q_b = pi with N coupling")
        if np.any(near[:k] & (u[:k] != 0.0)):
            raise DegenerateInertia(
                "coincident deformation invariants with nonzero M coupling")
        return d, np.where(near, 0.0,
                           self.coef / np.where(near, 1.0, d) ** 2)

    def _gradients(self, q, p, u, dHdp, force):
        """Kinetic energy gradients, component-major: writes dH/dp and
        -dH/dq into dHdp and force, (n, B) like q and p, and returns dH/du,
        (2k, B) like u."""
        k = self.layout.count
        if self.kind == "DAlembert":
            Q = np.exp(q)
            d, weights = self._pairs(Q, u)
            g = u * weights
            np.multiply(p / (Q * Q), self.inv_inertia, out=dHdp)
            np.multiply(self.q_weights @ (g * g * d), Q, out=force)
            force += p * dHdp
            return g
        d, weights = self._pairs(q, u)
        g = u * weights
        v = g * g
        np.matmul(self.q_weights, (v[:k] - v[k:]) * (d[:k] * d[k:]),
                  out=force)
        np.matmul(self.momentum, p, out=dHdp)
        if self.coupling is not None:
            g = g + self.coupling @ u
        return g

    def _flow(self, z):
        """Time derivative dz of component-major states z (dim, B) and
        the stacked upper components of G_M and G_N, (2k, B)."""
        n, k = self.n, self.layout.count
        q, u = z[:n], z[2 * n:]
        dz = np.empty(z.shape)
        g = self._gradients(q, z[n:2 * n], u, dz[:n], dz[n:2 * n])
        if self.slope is not None:
            dz[n:2 * n] -= self.slope(q.sum(axis=0) / n) / n
        if self.partners.size:
            tail = z.shape[1:]
            products = u.reshape((2, k, 1) + tail) * g[self.partners]
            np.matmul(self.spin_signs, products.reshape((-1,) + tail),
                      out=dz[2 * n:])
        else:
            dz[2 * n:] = 0.0
        return dz, g

    def flow(self, y):
        """Time derivative of packed states y (..., dim), together with
        the stacked upper components of G_M = dH/dM and G_N = dH/dN."""
        y = np.asarray(y, dtype=float)
        dz, g = self._flow(y.reshape(-1, y.shape[-1]).T)
        return dz.T.reshape(y.shape), g.T.reshape(y.shape[:-1] + (-1,))

    def rhs(self, y):
        y = np.asarray(y, dtype=float)
        return self._flow(y.reshape(-1, y.shape[-1]).T)[0].T.reshape(y.shape)

    def energies(self, ys):
        """Energy H and quadratic Casimir C2 of packed states (..., dim)."""
        n = self.n
        ys = np.asarray(ys, dtype=float)
        z = ys.reshape(-1, ys.shape[-1]).T
        q, p, u = z[:n], z[n:2 * n], z[2 * n:]
        dHdp, force = np.empty((2,) + p.shape)
        g = self._gradients(q, p, u, dHdp, force)
        # the kinetic energy is quadratic in (p, u): T = (p.dT/dp + u.dT/du)/2
        energy = 0.5 * (np.sum(p * dHdp, axis=0) + np.sum(u * g, axis=0)) \
            + self.potential.dilatational_value(q.mean(axis=0))
        # the coupling part of C2 is u.dH/du of the hyperbolic lattice
        # with A = 1, whatever the model kind
        _, weights = _casimir_kernel(n)._pairs(q, u)
        dp = self.layout.incidence @ p
        casimir = np.sum(dp * dp, axis=0) / n \
            + np.sum(u * u * weights, axis=0)
        shape = ys.shape[:-1]
        return energy.reshape(shape), casimir.reshape(shape)


@functools.lru_cache(maxsize=None)
def _casimir_kernel(n):
    """Hyperbolic lattice kernel with A = 1, whose pair weights give the
    coupling part of C2 for every model kind."""
    return EomKernel(phase.ModelSpec(kind="AffAff"), phase.PotentialSpec(), n)


def eom_rhs(model, potential, state):
    """Time derivative of a reduced state, returned in state layout."""
    dy = EomKernel(model, potential, state.n).rhs(pack_state(state))
    return unpack_state(dy, state.n)


@dataclass
class Trajectory:
    n: int
    model: object
    potential: object
    times: np.ndarray
    samples: np.ndarray          # (len, dim) packed states
    energy: np.ndarray
    casimir: np.ndarray
    control: StepControl
    attitudes: list | None = None

    def state(self, k):
        return unpack_state(self.samples[k], self.n)

    @property
    def energy_drift(self):
        scale = max(abs(self.energy[0]), 1.0)
        return float(np.max(np.abs(self.energy - self.energy[0])) / scale)

    @property
    def casimir_drift(self):
        scale = max(abs(self.casimir[0]), 1.0)
        return float(np.max(np.abs(self.casimir - self.casimir[0])) / scale)


def _energies(model, potential, ys, n):
    return EomKernel(model, potential, n).energies(ys)


def _rk4_step(fun, y, h):
    k1 = fun(y)
    k2 = fun(y + 0.5 * h * k1)
    k3 = fun(y + 0.5 * h * k2)
    k4 = fun(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) embedded pair: row i of _DP_A weighs the earlier
# stages that form the input of stage i
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192,
                   -2187 / 6784, 11 / 84, 0.0])
# difference of the fifth- and fourth-order weights: y5 - y4 = h _DP_E @ K
_DP_E = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                           -92097 / 339200, 187 / 2100, 1 / 40])


def _rk45_step(fun, y, h):
    """Fifth-order step and its error estimate h max|_DP_E @ K|, taken from
    the stages so that it does not cancel against y."""
    ks = np.empty((7, y.size))
    ks[0] = fun(y).ravel()
    for i in range(1, 7):
        ks[i] = fun(y + h * (_DP_A[i, :i] @ ks[:i]).reshape(y.shape)).ravel()
    y5 = y + h * (_DP_B5 @ ks).reshape(y.shape)
    return y5, h * np.max(np.abs(_DP_E @ ks))


def integrate(model, potential, state0, t_end, control=StepControl()):
    """Integrate the reduced equations of motion up to t_end."""
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if potential.kind == "box":
        raise DomainError("box potential walls are not integrable; "
                          "use a steep oscillator classically")
    n = state0.n
    y = pack_state(state0)
    if control.method == "rk4":
        times, samples = integrate_batch(model, potential, y[None], t_end,
                                         control.step, n,
                                         record_every=control.record_every)
        samples = samples[:, 0]
    else:
        fun = EomKernel(model, potential, n).rhs
        t = 0.0
        times = [t]
        samples = [y]
        h = min(control.step, t_end)
        scale = max(1.0, float(np.max(np.abs(y))))
        while t < t_end - 1e-15 * t_end:
            h = min(h, t_end - t)
            ynew, err = _rk45_step(fun, y, h)
            tol = control.atol + control.rtol * scale
            if err <= tol:
                t += h
                y = ynew
                times.append(t)
                samples.append(y)
                scale = max(1.0, float(np.max(np.abs(y))))
                factor = 2.0 if err == 0.0 else min(
                    2.0, max(0.2, 0.9 * (tol / err) ** 0.2))
                h = min(control.max_step, h * factor)
            else:
                h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            if h < control.min_step:
                raise StepFailure(
                    f"adaptive step underflowed below {control.min_step:g} "
                    f"at t = {t:g}")
        times = np.array(times)
        samples = np.array(samples)
    if model.kind == "TrigUn":
        # the flow is 2 pi-periodic in every angle; record the (-pi, pi]
        # representative, the domain of the matrix-form Hamiltonian
        samples[:, :n] = phase.wrap_angle(samples[:, :n])
    energy, casimir = _energies(model, potential, samples, n)
    return Trajectory(n=n, model=model, potential=potential,
                      times=times, samples=samples,
                      energy=energy, casimir=casimir, control=control)


def integrate_batch(model, potential, y0, t_end, step, n, record_every=None):
    """Fixed-step RK4 over a batch of packed states; records only the
    endpoints unless record_every is given.  Returns (times, samples) with
    samples shaped (records, batch, dim).  The state is held
    Fortran-ordered, so each RHS call reads it through a free transpose."""
    fun = EomKernel(model, potential, n).rhs
    nsteps = max(1, int(round(t_end / step)))
    h = t_end / nsteps
    y0 = np.asarray(y0, dtype=float)
    y = np.asfortranarray(y0)
    times = [0.0]
    samples = [y0]
    for k in range(nsteps):
        y = _rk4_step(fun, y, h)
        if record_every is not None and ((k + 1) % record_every == 0
                                         or k == nsteps - 1):
            times.append((k + 1) * h)
            samples.append(y)
    if record_every is None:
        times.append(t_end)
        samples.append(y)
    return np.array(times), np.array(samples)


def _project_rotation(L):
    u, _, vt = np.linalg.svd(L)
    return u @ vt


def reconstruct_attitudes(model, trajectory, L0, R0):
    """Propagate the attitude pair along a trajectory.

    The co-moving angular velocities chi = L^T dL/dt = G_M - G_N and
    theta = R^T dR/dt = G_M + G_N drive dL/dt = L chi, dR/dt = R theta
    (checked against exact exponential geodesics, where rebuilding
    L exp(q) R^T recovers exp(Omega t) phi0).  The reduced state is
    re-integrated
    jointly so the rotational velocities are available at the interior
    Runge-Kutta stages; L, R are re-projected onto the rotation group
    after every step.
    """
    n = trajectory.n
    L0 = np.asarray(L0, dtype=float)
    R0 = np.asarray(R0, dtype=float)
    if L0.shape != (n, n) or R0.shape != (n, n):
        raise ShapeMismatch("attitude seeds must be n x n")
    model_ = trajectory.model
    potential = trajectory.potential
    kernel = EomKernel(model_, potential, n)
    skew = kernel.layout.skew
    pairs = kernel.layout.count
    nn = n * n

    def joint_rhs(z):
        dy, g = kernel.flow(z[:-2 * nn])
        chi = skew(g[:pairs] - g[pairs:])
        theta = skew(g[:pairs] + g[pairs:])
        L = z[-2 * nn:-nn].reshape(n, n)
        R = z[-nn:].reshape(n, n)
        return np.concatenate([dy, (L @ chi).ravel(), (R @ theta).ravel()])

    times = trajectory.times
    attitudes = [(L0.copy(), R0.copy())]
    z = np.concatenate([trajectory.samples[0], L0.ravel(), R0.ravel()])
    substeps = max(1, trajectory.control.record_every)
    for k in range(1, len(times)):
        h = (times[k] - times[k - 1]) / substeps
        for _ in range(substeps):
            z = _rk4_step(joint_rhs, z, h)
            L = _project_rotation(z[-2 * n * n:-n * n].reshape(n, n))
            R = _project_rotation(z[-n * n:].reshape(n, n))
            z[-2 * n * n:-n * n] = L.ravel()
            z[-n * n:] = R.ravel()
        attitudes.append((L, R))
        resid = max(np.max(np.abs(L.T @ L - np.eye(n))),
                    np.max(np.abs(R.T @ R - np.eye(n))))
        if resid > ORTHOGONALITY_TOL:
            raise StepFailure(f"orthogonality residual {resid:g} "
                              "exceeded during attitude propagation")
    return Trajectory(n=n, model=model_, potential=potential,
                      times=times, samples=trajectory.samples,
                      energy=trajectory.energy, casimir=trajectory.casimir,
                      control=trajectory.control, attitudes=attitudes)


def geodesic_exponential(phi0, Omega, t):
    """Geodesic of the doubly affinely-invariant model:
    phi(t) = exp(Omega t) phi0."""
    phi0 = np.asarray(phi0, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if phi0.shape != Omega.shape:
        raise ShapeMismatch("phi0 and Omega must have matching shapes")
    return Configuration(phi=expm(Omega * t) @ phi0)


def reduced_state_from_velocity(phi, Omega, model, reference=None):
    """Reduced state (q, p, M, N) matching a configuration-velocity pair
    for the affinely-invariant model.

    The affine spin is Sigma = A Omega + B Tr(Omega) I; transported to the
    two-polar co-moving axes it yields the momenta and couplings.  Passing
    the previous decomposition as reference keeps the sign gauge of the
    two-polar factors continuous along a path.
    """
    if model.kind != "AffAff":
        raise ConfigError("velocity extraction implemented for AffAff")
    phi = np.asarray(phi, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if Omega.shape != phi.shape:
        raise ShapeMismatch("phi and Omega must have matching shapes")
    tp = two_polar(phi)
    n = phi.shape[0]
    if reference is not None:
        tp = align_two_polar(tp, reference)
    Sigma = model.A * Omega + model.B * np.trace(Omega) * np.eye(n)
    Sp = tp.L.T @ Sigma @ tp.L
    p = np.diag(Sp).copy()
    rho = Sp - Sp.T
    Q = np.exp(tp.q)
    tau = (Q[:, None] * Sp.T / Q[None, :]) - (Sp * Q[None, :]) / Q[:, None]
    M = -rho - tau
    N = rho - tau
    return ReducedState(tp.q, p, M=0.5 * (M - M.T), N=0.5 * (N - N.T)), tp


def stationary_check(X):
    """Residual of the stationary-solution condition [X, X^T] = 0.

    Pass Omega-hat for affine-metric models and Omega for metric-affine
    ones; the test is the same normality condition either way.
    """
    X = np.asarray(X, dtype=float)
    comm = X @ X.T - X.T @ X
    residual = float(np.linalg.norm(comm))
    return residual < STATIONARY_TOL, residual


# ---------------------------------------------------------------------------
# planar (n = 2) analytics


@dataclass(frozen=True)
class PlanarClassification:
    verdict: str                 # Bounded | Unbounded | Threshold
    m: float
    n_coupling: float
    turning_points: tuple | None = None
    x_min: float | None = None
    energy: float | None = None
    period: float | None = None


def planar_effective_potential(m, n_coupling, A, x):
    """V_eff(x) = m^2/(16 A sh^2(x/2)) - n^2/(16 A ch^2(x/2))."""
    if A == 0.0:
        raise ConfigError("A must be nonzero")
    x = np.asarray(x, dtype=float)
    if m != 0.0 and np.any(np.abs(x) < DEG_X_TOL):
        raise DegenerateInertia("x = 0 with m != 0 is singular")
    sh2 = np.sinh(0.5 * x) ** 2
    ch2 = np.cosh(0.5 * x) ** 2
    with np.errstate(divide="ignore"):
        rep = np.where(sh2 > 0.0, m ** 2 / (16.0 * A * np.where(
            sh2 > 0.0, sh2, 1.0)), 0.0)
    val = rep - n_coupling ** 2 / (16.0 * A * ch2)
    return val if val.ndim else float(val)


DEG_X_TOL = 1e-12


def classify_planar(m, n_coupling, A=1.0, energy=None):
    """Boundedness verdict for the planar shape motion.

    |m| < |n| gives bounded vibrations, |m| > |n| pure repulsion; the
    threshold |m| = |n| (to 1e-12) separates them.  A bounded V_eff has
    its minimum where tanh^4(x/2) = (m/n)^2.  With an energy below the
    escape level 0 the turning points are found by Brent's method.
    """
    if not A > 0.0:
        raise ConfigError(f"A must be positive, got {A!r}")
    am, an = abs(m), abs(n_coupling)
    if abs(am - an) <= THRESHOLD_TOL * max(am, an, 1.0):
        verdict = "Threshold"
    elif am < an:
        verdict = "Bounded"
    else:
        verdict = "Unbounded"
    turning = None
    period = None
    x_star = 2.0 * float(np.arctanh(np.sqrt(am / an))) \
        if verdict == "Bounded" else None
    # V_eff rises to 0 from below as |x| grows: at E >= 0 the motion has
    # no outer turning point, and so no period
    if energy is not None and verdict == "Bounded" and energy < 0.0:
        v = lambda x: planar_effective_potential(m, n_coupling, A, x) - energy
        if m != 0.0:
            # repulsive wall at 0+, minimum, rise to 0-: bracket both roots
            if v(x_star) < 0.0:
                inner = scipy.optimize.brentq(v, 1e-10, x_star,
                                              xtol=TURNING_XTOL)
                hi = x_star
                while v(hi) < 0.0 and hi < 1e3:
                    hi *= 2.0
                if v(hi) >= 0.0:
                    outer = scipy.optimize.brentq(v, x_star, hi,
                                                  xtol=TURNING_XTOL)
                    turning = (inner, outer)
        else:
            if v(0.0) < 0.0:
                hi = 1.0
                while v(hi) < 0.0 and hi < 1e3:
                    hi *= 2.0
                if v(hi) >= 0.0:
                    x_t = scipy.optimize.brentq(v, 0.0, hi,
                                                xtol=TURNING_XTOL)
                    turning = (-x_t, x_t)
        if turning is not None:
            period = _planar_period(m, n_coupling, A, energy, turning)
    return PlanarClassification(verdict=verdict, m=float(m),
                                n_coupling=float(n_coupling),
                                turning_points=turning, x_min=x_star,
                                energy=energy, period=period)


def _planar_period(m, n_coupling, A, energy, turning):
    """Oscillation period T = integral dx sqrt(A / (E - V_eff(x)))
    between the turning points."""
    x1, x2 = turning
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)

    # substitute x = mid + half sin(theta) to remove the endpoint
    # singularities of the integrand
    def integrand(theta):
        x = mid + half * np.sin(theta)
        gap = energy - planar_effective_potential(m, n_coupling, A, x)
        gap = max(gap, 1e-300)
        return half * np.cos(theta) * np.sqrt(A / gap)

    val, _ = scipy.integrate.quad(integrand, -0.5 * np.pi, 0.5 * np.pi,
                                  limit=200)
    return float(val)


def planar_state(m, n_coupling, x0, px, A=1.0, B=0.0):
    """Reduced AffAff state realizing the planar shape system
    H_x = p_x^2/A + V_eff(x) with x = q1 - q2."""
    model = phase.ModelSpec(kind="AffAff", A=A, B=B)
    q = np.array([0.5 * x0, -0.5 * x0])
    p = np.array([px, -px])
    M = np.array([[0.0, m], [-m, 0.0]])
    N = np.array([[0.0, n_coupling], [-n_coupling, 0.0]])
    return model, ReducedState(q, p, M=M, N=N)
