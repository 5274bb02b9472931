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
integrate_batch and reconstruct_attitudes hold their states component-major
and pass such views.  Any other input gives the same numbers and is read
through strides or a copy.  The one exception is a single state in
integrate_batch, which steps as a list of Python floats (float_rhs).
"""

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (ConfigError, DegenerateInertia, DomainError,
                     ShapeMismatch, StepFailure)
from . import phase
from .kinematics import Configuration, align_two_polar, two_polar
from .phase import ReducedState

ORTHOGONALITY_TOL = 1e-9
STATIONARY_TOL = 1e-10
THRESHOLD_TOL = 1e-12
METHODS = ("rk4", "rk45")
MIN_STEP, MAX_STEP = 1e-12, 0.1    # the RK45 controller's step range


@dataclass(frozen=True)
class StepControl:
    method: str = "rk4"          # "rk4" fixed step or "rk45" adaptive
    step: float = 1e-3
    record_every: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10

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


def _check_coupling(antipodal, coincident):
    """Raise DegenerateInertia for a nonzero coupling on a vanishing pair
    denominator; an antipodal N coupling is named before a coincident M
    one."""
    if antipodal:
        raise DegenerateInertia(
            "antipodal invariants q_a - q_b = pi with N coupling")
    if coincident:
        raise DegenerateInertia(
            "coincident deformation invariants with nonzero M coupling")


class EomKernel:
    """Reduced equations of motion of one model and potential at size n.

    Takes and returns packed states (..., dim) and works on their
    component-major transpose (dim, B), one row per component (see the
    module docstring).  Each pair's sinh/cosh (sin/cos for TrigUn, exp for
    DAlembert) is evaluated once per call, the commutators are summed over
    the nonzero so(n) structure constants, and every constant of the model
    is computed once, at construction.  float_rhs evaluates the same
    equations for one state on Python floats.
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
        partners, self.spin_signs = _commutator_terms(n)
        self.partners = partners.ravel()
        self.coupling = None
        cL, cQ, cM, cN, c_rho, c_tau = model.kinetic_constants(n)
        # dH/du = coef u / d^2 for u = (M, N) upper components
        self.coef = 2.0 * np.repeat([cM, cN], k)[:, None]
        if self.kind == "DAlembert":
            # pair denominators (Q_a - Q_b, Q_a + Q_b) with Q = exp(q)
            self.pair_map = np.concatenate([inc, np.abs(inc)])
            self.q_weights = self.pair_map.T / (2.0 * cM)
            self.inv_inertia = 2.0 * cL
            return
        trig = self.kind == "TrigUn"
        # half the pair differences, whose sm and cm are the pair
        # denominators, and qbar in the last row
        self.pair_map = np.vstack([0.5 * inc, np.full((1, n), 1.0 / n)])
        self.sm, self.cm = (np.sin, np.cos) if trig else (np.sinh, np.cosh)
        # -dH/dq from the M and N terms alike, as cN = -cM (cN = cM for
        # the trigonometric sm, cm) makes both pull with weight 1/(4 cM)
        self.q_weights = inc.T / (4.0 * cM)
        if self.slope is not None:
            # V(qbar) pulls every q_a with -V'(qbar)/n: one more column
            self.q_weights = np.hstack([self.q_weights,
                                        np.full((n, 1), -1.0 / n)])
        self.momentum = 2.0 * (cL * np.eye(n) + cQ)
        # c_rho |rho|^2 + c_tau |tau|^2, with rho = (N - M)/2 and
        # tau = -(M + N)/2, as the Hessian in u of a quadratic form
        if c_rho or c_tau:
            diag = 0.5 * (c_tau + c_rho) * np.eye(k)
            off = 0.5 * (c_tau - c_rho) * np.eye(k)
            self.coupling = np.block([[diag, off], [off, diag]])

    def _pairs(self, x, u):
        """Pair denominators d (2k, B) and the weights coef/d^2 with which
        u enters dH/du, the removable terms of vanishing coupling set to
        zero.  x is Q = exp(q), (n, B), for DAlembert and half the pair
        differences, (k, B), otherwise."""
        k = self.layout.count
        tol = phase.DEGENERACY_TOL
        d = np.empty((2 * k,) + x.shape[1:])
        if self.kind == "DAlembert":
            np.matmul(self.pair_map, x, out=d)
            # Q_a + Q_b >= max(Q_a, Q_b): a screen for the exact test below
            near = np.abs(d[:k]) < tol * d[k:]
        else:
            self.sm(x, out=d[:k])
            self.cm(x, out=d[k:])
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
        _check_coupling(np.any(near[k:] & (u[k:] != 0.0)),
                        np.any(near[:k] & (u[:k] != 0.0)))
        return d, np.where(near, 0.0,
                           self.coef / np.where(near, 1.0, d) ** 2)

    def _gradients(self, q, p, u, dHdp, force):
        """Energy gradients, component-major: writes dH/dp and -dH/dq into
        dHdp and force, (n, B) like q and p, and returns dH/du, (2k, B)
        like u."""
        k = self.layout.count
        if self.kind == "DAlembert":
            Q = np.exp(q)
            d, weights = self._pairs(Q, u)
            g = u * weights
            np.multiply(p / (Q * Q), self.inv_inertia, out=dHdp)
            np.multiply(self.q_weights @ (g * g * d), Q, out=force)
            force += p * dHdp
            if self.slope is not None:
                force -= self.slope(q.sum(axis=0) / self.n) / self.n
            return g
        h = self.pair_map @ q
        d, weights = self._pairs(h[:k], u)
        g = u * weights
        v = g * g
        pulls = (v[:k] - v[k:]) * (d[:k] * d[k:])
        if self.slope is not None:
            pulls = np.concatenate([pulls, self.slope(h[k:])])
        np.matmul(self.q_weights, pulls, out=force)
        np.matmul(self.momentum, p, out=dHdp)
        if self.coupling is not None:
            g = g + self.coupling @ u
        return g

    def _flow(self, z, dz=None):
        """Time derivative dz of component-major states z (dim, B), written
        into dz if given, and the stacked upper components of G_M and G_N,
        (2k, B)."""
        n, k = self.n, self.layout.count
        u = z[2 * n:]
        if dz is None:
            dz = np.empty(z.shape)
        g = self._gradients(z[:n], z[n:2 * n], u, dz[:n], dz[n:2 * n])
        if self.partners.size:
            tail = z.shape[1:]
            products = u.reshape((2, k, 1) + tail) \
                * g.take(self.partners, axis=0).reshape((k, -1) + tail)
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

    def rhs(self, y, out=None):
        """Time derivative of packed states y (..., dim), written into the
        component-major (dim, B) array out if one is given."""
        y = np.asarray(y, dtype=float)
        dz = self._flow(y.reshape(-1, y.shape[-1]).T, out)[0]
        return dz.T.reshape(y.shape)

    def float_rhs(self):
        """The time derivative of one packed state as a function from a
        list of dim Python floats to another, which calls no numpy: the
        equations of _flow, from the same coef, q_weights, momentum,
        coupling and nonzero so(n) structure constants, with the same
        DegenerateInertia checks and the removable terms set to zero.
        Where numpy returns inf or nan, math raises OverflowError,
        ZeroDivisionError or ValueError."""
        n, k = self.n, self.layout.count
        lim = phase.DEGENERACY_TOL
        pairs = tuple(zip(*(i.tolist() for i in self.layout.iu)))
        coef = self.coef.ravel().tolist()
        q_rows = self.q_weights.tolist()
        slope = self.slope
        # _flow's commutator sum as (sign, i, j) of each nonzero term
        # s u_i g_j, row by row of (dM, dN); every row has as many terms
        partners, signs = _commutator_terms(n)
        per_row = partners.shape[1]
        rows, cols = np.nonzero(signs)
        spin = list(zip(signs[rows, cols].tolist(),
                        (cols // per_row).tolist(),
                        np.tile(partners.ravel(), 2)[cols].tolist()))
        at_rest = [0.0] * (2 * k)

        def weights(d, u, near):
            _check_coupling(
                any(a and b != 0.0 for a, b in zip(near[k:], u[k:])),
                any(a and b != 0.0 for a, b in zip(near[:k], u)))
            return [0.0 if a else c / (x * x)
                    for a, c, x in zip(near, coef, d)]

        def spin_rhs(u, g):
            if not spin:
                return at_rest
            terms = [s * (u[i] * g[j]) for s, i, j in spin]
            return [sum(terms[r:r + per_row])
                    for r in range(0, len(terms), per_row)]

        if self.kind == "DAlembert":
            exp, inv_inertia = math.exp, self.inv_inertia

            def rhs(y):
                q, p, u = y[:n], y[n:2 * n], y[2 * n:]
                Q = list(map(exp, q))
                d = [Q[a] - Q[b] for a, b in pairs] \
                    + [Q[a] + Q[b] for a, b in pairs]
                # the screen of _pairs, then its exact test
                if any(abs(d[i]) < lim * d[k + i] for i in range(k)):
                    w = weights(d, u, [abs(Q[a] - Q[b])
                                       < lim * max(Q[a], Q[b])
                                       for a, b in pairs] + [False] * k)
                else:
                    w = [c / (x * x) for c, x in zip(coef, d)]
                g = list(map(mul, u, w))
                dq = [b / (a * a) * inv_inertia for a, b in zip(Q, p)]
                gd = [a * a * b for a, b in zip(g, d)]
                dp = [sum(map(mul, row, gd)) * a + b * c
                      for row, a, b, c in zip(q_rows, Q, p, dq)]
                if slope is not None:
                    pull = slope(sum(q) / n) / n
                    dp = [a - pull for a in dp]
                return dq + dp + spin_rhs(u, g)
            return rhs

        sm, cm = (math.sin, math.cos) if self.kind == "TrigUn" \
            else (math.sinh, math.cosh)
        screened = 2 * k if self.kind == "TrigUn" else k
        lim *= 0.5
        momentum = self.momentum.tolist()
        coupled = self.coupling is not None
        if coupled:
            # the coupling Hessian has nonzeros only at (i, i) and (i, i -+ k)
            own = self.coupling.diagonal().tolist()
            cross = self.coupling.diagonal(k).tolist() \
                + self.coupling.diagonal(-k).tolist()

        def rhs(y):
            q, p, u = y[:n], y[n:2 * n], y[2 * n:]
            h = [0.5 * q[a] - 0.5 * q[b] for a, b in pairs]
            d = list(map(sm, h)) + list(map(cm, h))
            if min(map(abs, d[:screened]), default=1.0) < lim:
                w = weights(d, u, [abs(x) < lim for x in d[:screened]]
                            + [False] * (2 * k - screened))
            else:
                w = [c / (x * x) for c, x in zip(coef, d)]
            g = list(map(mul, u, w))
            v = list(map(mul, g, g))
            pulls = [(v[i] - v[k + i]) * (d[i] * d[k + i]) for i in range(k)]
            if slope is not None:
                pulls.append(slope(sum(q) / n))
            dq = [sum(map(mul, row, p)) for row in momentum]
            dp = [sum(map(mul, row, pulls)) for row in q_rows]
            if coupled:
                g = [a + b * c + e * f for a, b, c, e, f
                     in zip(g, own, u, cross, u[k:] + u[:k])]
            return dq + dp + spin_rhs(u, g)
        return rhs

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
        lattice = _casimir_kernel(n)
        _, weights = lattice._pairs(lattice.pair_map[:-1] @ q, u)
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


# RK4 weights of the four stages, in units of the step
_RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


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
                h = min(MAX_STEP, h * factor)
            else:
                h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            if h < MIN_STEP:
                raise StepFailure(
                    f"adaptive step underflowed below {MIN_STEP:g} "
                    f"at t = {t:g}")
        times = np.array(times)
        samples = np.array(samples)
    if model.kind == "TrigUn" and potential.is_trivial:
        # without a potential the flow is 2 pi-periodic in every angle;
        # record the (-pi, pi] representative.  V(qbar) is not periodic,
        # so with one the angles are recorded as integrated
        samples[:, :n] = phase.wrap_angle(samples[:, :n])
    energy, casimir = EomKernel(model, potential, n).energies(samples)
    return Trajectory(n=n, model=model, potential=potential,
                      times=times, samples=samples,
                      energy=energy, casimir=casimir, control=control)


def integrate_batch(model, potential, y0, t_end, step, n, record_every=None):
    """Fixed-step RK4 over a batch of packed states; records only the
    endpoints unless record_every is given.  Returns (times, samples) with
    samples shaped (records,) + y0.shape.  A batch of more than one state
    is held component-major, (dim, B); each RHS call writes its stage into
    one (4, dim, B) buffer, and a step ends with one product of the RK4
    weights with that buffer.  One state, (dim,) or (1, dim), steps on
    Python floats through EomKernel.float_rhs instead, where numpy's
    per-call cost would outweigh its arithmetic.

    A state that blows up (a step across a singular wall of the lattice)
    stays non-finite from then on.  numpy's floating-point warnings are
    off during the steps, and the records are checked once, at the end:
    StepFailure names the time of the first non-finite record."""
    kernel = EomKernel(model, potential, n)
    nsteps = step_count(t_end, step)
    h = t_end / nsteps
    y0 = np.asarray(y0, dtype=float)
    weights = h * _RK4_B
    if y0.size == y0.shape[-1]:
        times, samples = _rk4_one_state(kernel.float_rhs(),
                                        y0.ravel().tolist(), nsteps, h,
                                        weights.tolist(), record_every)
    else:
        times, samples = _rk4_batch(kernel.rhs, y0, nsteps, h, weights,
                                    record_every)
    if record_every is None:
        times[-1] = t_end
    times = np.array(times)
    samples = np.array(samples).reshape(times.shape + y0.shape)
    finite = np.isfinite(samples.reshape(len(times), -1)).all(axis=1)
    if not finite.all():
        raise StepFailure("RK4 state turned non-finite at "
                          f"t = {times[np.argmin(finite)]:g}")
    return times, samples


def step_count(t_end, step):
    """The number of fixed steps, at least one, nearest t_end / step."""
    ratio = t_end / step if step else math.inf
    if not math.isfinite(ratio):
        raise ConfigError(f"'t_end' / 'step' = {t_end:g} / {step:g} is "
                          "not a finite step count")
    return max(1, round(ratio))


def _rk4_batch(rhs, y0, nsteps, h, weights, record_every):
    """The steps of integrate_batch on a component-major batch; returns
    the record times and the records, t = 0 and y0 first."""
    z = y0.reshape(-1, y0.shape[-1]).T.copy()
    stages = np.empty((4,) + z.shape)
    k1, k2, k3, k4 = stages
    flat = stages.reshape(4, -1)
    half = 0.5 * h
    every = record_every or nsteps
    times = [0.0]
    samples = [y0]
    with np.errstate(all="ignore"):
        for k in range(nsteps):
            rhs(z.T, k1)
            rhs((z + half * k1).T, k2)
            rhs((z + half * k2).T, k3)
            rhs((z + h * k3).T, k4)
            z = z + (weights @ flat).reshape(z.shape)
            if (k + 1) % every == 0 or k == nsteps - 1:
                times.append((k + 1) * h)
                samples.append(z.T.reshape(y0.shape))
    return times, samples


def _rk4_one_state(rhs, y, nsteps, h, weights, record_every):
    """The steps of integrate_batch on one state, a list of Python floats;
    returns the record times and the records, t = 0 and y first.  A step
    in which math raises, where numpy would return inf or nan, leaves the
    state non-finite, as it would leave a batch."""
    w1, w2, w3, w4 = weights
    half = 0.5 * h
    every = record_every or nsteps
    times = [0.0]
    samples = [y]
    failed = False
    for k in range(nsteps):
        if not failed:
            try:
                k1 = rhs(y)
                k2 = rhs([a + half * b for a, b in zip(y, k1)])
                k3 = rhs([a + half * b for a, b in zip(y, k2)])
                k4 = rhs([a + h * b for a, b in zip(y, k3)])
                y = [a + (w1 * b + w2 * c + w3 * d + w4 * e)
                     for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
            except (OverflowError, ZeroDivisionError, ValueError):
                y = [math.nan] * len(y)
                failed = True
        if (k + 1) % every == 0 or k == nsteps - 1:
            times.append((k + 1) * h)
            samples.append(y)
    return times, samples


def _polar_factors(mats):
    """Polar factors u vt of a stack of matrices u diag(s) vt.  Raises
    StepFailure if any of them is more than ORTHOGONALITY_TOL from the
    rotation group, by max |s - 1| = max(s_0 - 1, 1 - s_-1)."""
    u, s, vt = np.linalg.svd(mats)
    resid = np.max(np.abs(s - 1.0), initial=0.0)
    if resid > ORTHOGONALITY_TOL:
        raise StepFailure(f"orthogonality residual {resid:g} "
                          "exceeded during attitude propagation")
    return u @ vt


def reconstruct_attitudes(model, trajectory, L0, R0):
    """Propagate the attitude pair along a trajectory.

    The co-moving angular velocities chi = L^T dL/dt = G_M - G_N and
    theta = R^T dR/dt = G_M + G_N drive dL/dt = L chi, dR/dt = R theta
    (checked against exact exponential geodesics, where rebuilding
    L exp(q) R^T recovers exp(Omega t) phi0).  These equations are linear
    in L and R, and chi, theta depend on the reduced state alone, so over
    the recorded interval [t_k, t_k+1] the flow is a right multiplication,
    (L, R)_k+1 = (L, R)_k (U_k, V_k), by propagators that start at the
    identity (Magnus, 1954).  The propagators of all intervals are
    integrated at once, as one batch: row k starts from the recorded state
    samples[k] with U = V = I and takes record_every RK4 steps of its own
    interval's (t_k+1 - t_k) / record_every, jointly with the reduced
    state so that chi and theta are known at the interior stages.

    After every step each propagator A = u diag(s) vt is replaced by its
    polar factor u vt, and a step that leaves the rotation group by
    max |s - 1| > ORTHOGONALITY_TOL raises StepFailure, as do seeds that
    are not rotations.  For a rotation Q, polar(Q A) = Q polar(A), and
    Q A has the singular values of A, so this is the step-by-step
    re-projection of L and R themselves, with the same drift values, up to
    round-off.  The chained products (L, R)_k are projected once more, in
    one batched SVD, so that the round-off of the chain does not pile up
    in their orthogonality over many records.
    """
    n = trajectory.n
    L0 = np.asarray(L0, dtype=float)
    R0 = np.asarray(R0, dtype=float)
    if L0.shape != (n, n) or R0.shape != (n, n):
        raise ShapeMismatch("attitude seeds must be n x n")
    chain = np.empty((len(trajectory.times), 2, n, n))
    chain[0] = L0, R0
    # the propagators never see the seeds: test them here
    _polar_factors(chain[0])
    kernel = EomKernel(trajectory.model, trajectory.potential, n)
    layout = kernel.layout
    k, nn = layout.count, n * n
    times = trajectory.times
    rows = len(times) - 1
    dim = trajectory.samples.shape[-1]
    # joint states, component-major: the reduced state over the entries
    # of U and V; props is the (rows, 2, n, n) view of U, V
    z = np.empty((dim + 2 * nn, rows))
    z[:dim] = trajectory.samples[:-1].T
    props = z[dim:].T.reshape(rows, 2, n, n)
    props[:] = np.eye(n)
    stages = np.empty((4,) + z.shape)
    k1, k2, k3, k4 = stages
    flat = stages.reshape(4, -1)
    # (chi, theta) upper and lower entries from (upper(G_M), upper(G_N)),
    # and their flat positions in the (2, n, n) generator stack
    mix = np.kron([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]],
                  np.eye(k))
    entries = np.concatenate([layout.upper_flat, layout.lower_flat])
    entries = np.concatenate([entries, nn + entries])
    generators = np.zeros((rows, 2 * nn))

    def joint_rhs(zs, out):
        _, g = kernel._flow(zs[:dim], out[:dim])
        generators[:, entries] = (mix @ g).T
        np.matmul(zs[dim:].T.reshape(rows, 2, n, n),
                  generators.reshape(rows, 2, n, n),
                  out=out[dim:].T.reshape(rows, 2, n, n))

    substeps = max(1, trajectory.control.record_every)
    h = np.diff(times) / substeps
    half = 0.5 * h
    for _ in range(substeps):
        joint_rhs(z, k1)
        joint_rhs(z + half * k1, k2)
        joint_rhs(z + half * k2, k3)
        joint_rhs(z + h * k3, k4)
        z += h * (_RK4_B @ flat).reshape(z.shape)
        props[:] = _polar_factors(props)
    for i, step in enumerate(props):
        np.matmul(chain[i], step, out=chain[i + 1])
    chain[1:] = _polar_factors(chain[1:])
    attitudes = [(L, R) for L, R in chain]
    return Trajectory(n=n, model=trajectory.model,
                      potential=trajectory.potential, times=times,
                      samples=trajectory.samples, energy=trajectory.energy,
                      casimir=trajectory.casimir, control=trajectory.control,
                      attitudes=attitudes)


def geodesic_exponential(phi0, Omega, t):
    """Geodesic of the doubly affinely-invariant model:
    phi(t) = exp(Omega t) phi0."""
    phi0 = np.asarray(phi0, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if phi0.shape != Omega.shape:
        raise ShapeMismatch("phi0 and Omega must have matching shapes")
    return Configuration(phi=_expm(Omega * t) @ phi0)


def _expm(X):
    """Matrix exponential by scaling and squaring (Moler and Van Loan,
    2003): exp(X) = exp(X / 2^s)^(2^s), with s the least that brings the
    1-norm of X / 2^s to 0.5 or below, where the Taylor series to degree
    18 is exact to round-off (its remainder is below 0.5^19 / 19!)."""
    norm = np.linalg.norm(X, 1)
    s = math.ceil(math.log2(norm / 0.5)) if 0.5 < norm < np.inf else 0
    X = X / 2.0 ** s
    term = result = np.eye(len(X))
    for j in range(1, 19):
        term = term @ X / j
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


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
    its minimum -(|n| - |m|)^2 / (16 A) where tanh^4(x/2) = (m/n)^2.  An
    energy E below the escape level 0 and above that minimum gives an
    orbit, in closed form: with w = cosh x - 1 = 2 sh^2(x/2), V_eff = E is
    the quadratic 8AE w^2 + (16AE - m^2 + n^2) w - 2m^2 = 0, whose two
    roots are the turning points.  V_eff is a hyperbolic Poschl-Teller
    potential, and the motion is isochronous: the period is
    pi sqrt(A/|E|) whatever m and n, and twice that for m = 0, where the
    orbit crosses x = 0 and runs between -x_t and x_t.
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
    if energy is not None and verdict == "Bounded" and energy < 0.0 \
            and -(an - am) ** 2 / (16.0 * A) < energy:
        turning, period = _planar_orbit(m, n_coupling, A, energy)
    return PlanarClassification(verdict=verdict, m=float(m),
                                n_coupling=float(n_coupling),
                                turning_points=turning, x_min=x_star,
                                energy=energy, period=period)


def _planar_orbit(m, n_coupling, A, energy):
    """Turning points and period of the bounded orbit at an energy between
    the bottom of the well and 0, in the closed form of classify_planar."""
    a = 8.0 * A * energy
    b = 16.0 * A * energy - m * m + n_coupling * n_coupling
    # b > 0 here, so this q does not cancel; the roots are c/q <= q/a
    q = -0.5 * (b + math.sqrt(max(b * b + 8.0 * a * m * m, 0.0)))
    # x = 2 arcsinh(sqrt(w/2)): arccosh(1 + w) would lose the digits of a
    # small w near the wall at x = 0
    inner, outer = (2.0 * math.asinh(math.sqrt(0.5 * w))
                    for w in (-2.0 * m * m / q, q / a))
    if m == 0.0:
        return (-outer, outer), 2.0 * math.pi * math.sqrt(A / -energy)
    return (inner, outer), math.pi * math.sqrt(A / -energy)


def planar_state(m, n_coupling, x0, px, A=1.0, B=0.0):
    """Reduced AffAff state realizing the planar shape system
    H_x = p_x^2/A + V_eff(x) with x = q1 - q2."""
    model = phase.ModelSpec(kind="AffAff", A=A, B=B)
    q = np.array([0.5 * x0, -0.5 * x0])
    p = np.array([px, -px])
    M = np.array([[0.0, m], [-m, 0.0]])
    N = np.array([[0.0, n_coupling], [-n_coupling, 0.0]])
    return model, ReducedState(q, p, M=M, N=N)
