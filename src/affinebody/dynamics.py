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
through strides or a copy.  The exceptions are a single state in
integrate_batch and the adaptive steps of integrate, which step as lists
of Python floats through code written out for the kernel's structure
(_emit).

The kernel writes its intermediate (B,)-wide rows, C2's among them, into
a workspace of its own for each batch width B, one aligned block
(_Workspace).  Two paths still allocate: DAlembert's V'(qbar) row under
a potential, which measured no faster in a workspace row, and the pair
weights of a batch with a pair at a wall (_over_squares).
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

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
# bytes: one cache line, one AVX-512 register.  numpy's allocator starts
# an array 0, 16, 32 or 48 bytes past a cache line, and an add or multiply
# on operands that straddle cache lines takes about twice as long
ALIGNMENT = 64


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
        if not (self.step > 0 and self.record_every >= 1):
            raise ConfigError("step must be positive, record_every >= 1")
        if not all(0 <= tol < math.inf for tol in (self.rtol, self.atol)):
            raise ConfigError("rtol and atol must be finite and >= 0")


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


@functools.lru_cache(maxsize=None)
def _emit(form, n, sloped, coupled, function):
    """Compile the single-state RHS (function "rhs"), RK4 segment runner
    ("stepper") or Dormand-Prince attempt ("dopri") of one kernel
    structure as straight-line Python, partial evaluation as in SymPy's
    lambdify.
    form is the kernel's pair form (EomKernel.form).  The state is
    unpacked into locals, and every product of _flow and every nonzero
    commutator term of _commutator_terms(n) is written out.  No model
    constant is written into the source: bind(coef, q_weights, momentum,
    own, cross, slope, lim, fallback) returns the function of one kernel,
    which unpacks the three arrays into its locals when called and reads
    own and cross, the metric coupling of a coupled kernel, as two names.
    Both steps come from one writer of explicit Runge-Kutta stages:
    stepper(h, w1, w2, w3, w4) returns run(y, count), count RK4 steps with
    the stages in locals, and dopri(y, k, h) takes k = f(y) and returns
    the fifth-order result y5, f(y5) and the error estimate
    h max|_DP_E @ K|, the stages written from the literals of _DP_A,
    _DP_B5 and _DP_E.  Its last stage is f(y5), as _DP_A[6] is _DP_B5:
    the next attempt's k after an accept (FSAL).
    A stage with a pair denominator below lim = DEGENERACY_TOL (below
    lim (Q_a + Q_b) for DAlembert; the cosines too for TrigUn), twice the
    width of _pairs' rule, goes to fallback, the batch kernel on that one
    state, whose _pairs decides."""
    k = n * (n - 1) // 2
    pairs = list(zip(*(i.tolist() for i in phase.pair_layout(n).iu)))
    exp = form == "exp"
    # the nonzero columns of each row of q_weights: the pairs holding q_a
    # (twice over for Q_a -+ Q_b), then the potential's pull
    pull = sloped and not exp
    columns = [[i for i, pair in enumerate(pairs * (1 + exp)) if a in pair]
               + [k] * pull for a in range(n)]
    # _flow's commutator sum as the terms s u_i g_j of each row of
    # (dM, dN); the structure constants of so(n) are all -1 or 1
    partners, signs = _commutator_terms(n)
    spin = [[] for _ in range(2 * k)]
    for r, c in zip(*np.nonzero(signs)):
        spin[r].append(("-" if signs[r, c] < 0 else "+",
                        c // partners.shape[1],
                        partners.flat[c % partners.size]))

    def body(x, out, screened):
        """Lines that set the locals out to the time derivative at the
        locals x, or run screened near a vanishing pair denominator."""
        q, p, u = x[:n], x[n:2 * n], x[2 * n:]
        qbar = f"({' + '.join(q)}) / {n}"
        lines = [f"Q{a} = exp({q[a]})" for a in range(n) if exp]
        for i, (a, b) in enumerate(pairs):
            lines += [f"d{i} = Q{a} - Q{b}", f"d{k + i} = Q{a} + Q{b}"] \
                if exp else [f"t = 0.5 * {q[a]} - 0.5 * {q[b]}",
                             f"d{i} = {form}(t)",
                             f"d{k + i} = {form.replace('sin', 'cos')}(t)"]
        screen = [f"abs(d{i}) < lim * d{k + i}" if exp else f"abs(d{i}) < lim"
                  for i in range(2 * k if form == "sin" else k)]
        rest = [f"g{i} = {u[i]} * (C{i} / (d{i} * d{i}))"
                for i in range(2 * k)]
        if exp:
            rest += [f"{out[a]} = {p[a]} / (Q{a} * Q{a}) * P0"
                     for a in range(n)]
            rest += [f"v{i} = g{i} * g{i} * d{i}" for i in range(2 * k)]
            rest += [f"pull = slope({qbar}) / {n}"] * sloped
            for a in range(n):
                pulls = " + ".join(f"W{a}_{i} * v{i}" for i in columns[a])
                rest.append(f"{out[n + a]} = " + f"({pulls}) * Q{a} + " * (
                    n > 1) + f"{p[a]} * {out[a]}" + " - pull" * sloped)
        else:
            rest += [f"v{i} = g{i} * g{i}" for i in range(2 * k)]
            rest += [f"f{i} = (v{i} - v{k + i}) * (d{i} * d{k + i})"
                     for i in range(k)] + [f"f{k} = slope({qbar})"] * sloped
            rest += [f"{out[a]} = " + " + ".join(
                f"P{a}_{b} * {p[b]}" for b in range(n)) for a in range(n)]
            rest += [f"{out[n + a]} = " + (" + ".join(
                f"W{a}_{i} * f{i}" for i in columns[a]) or "0.0")
                for a in range(n)]
            if coupled and partners.size:
                rest += [f"g{i} = g{i} + own * {u[i]} + cross * "
                         f"{u[(i + k) % (2 * k)]}" for i in range(2 * k)]
        rest += [f"{out[2 * n + r]} = " + (" ".join(
            f"{s} {u[i]} * g{j}" for s, i, j in terms).removeprefix("+ ")
            or "0.0") for r, terms in enumerate(spin)]
        if not screen:
            return lines + rest
        return lines + _block(f"if {' or '.join(screen)}:", [screened]) \
            + _block("else:", rest)

    def unpack(names, source):
        return [f"{', '.join(names)}, = {source}"] if names else []

    def listed(names):
        return f"[{', '.join(names)}]"

    dim = 2 * (n + k)
    y, z, x, e, r = ([f"{s}{j}" for j in range(dim)] for s in "yzxer")
    stages = [[f"k{s}_{j}" for j in range(dim)] for s in range(7)]

    def evaluate(at, s):
        """Lines that set stage s to the time derivative at the locals at."""
        out = stages[s]
        return body(at, out, f"{', '.join(out)}, = fallback({listed(at)})")

    def weighted(j, row, scale=""):
        """Component j of scale (row @ stages), its zero weights left out."""
        terms = " + ".join(f"{c} * {stages[s][j]}"
                           for s, c in enumerate(row) if c)
        return scale + (f"({terms})" if scale or " + " in terms else terms)

    def advance(target, row, scale=""):
        """Lines that set the locals target to y + scale (row @ stages)."""
        return [f"{t} = {b} + {weighted(j, row, scale)}"
                for j, (t, b) in enumerate(zip(target, y))]

    def explicit_stages(rows, scale=""):
        """Stages 1, 2, ... of an explicit Runge-Kutta step from the
        locals y and stage 0: stage s at y + scale (rows[s - 1] @ stages)."""
        lines = []
        for s, row in enumerate(rows, 1):
            lines += advance(z, row, scale) + evaluate(z, s)
        return lines

    def literals(weights):
        """Tableau weights as exact source literals, the zeros as 0.0,
        which weighted leaves out."""
        return [float(c) and repr(float(c)) for c in weights]

    constants = [([f"C{i}" for i in range(2 * k)], "coef"),
                 ([f"W{a}_{i}" for a in range(n)
                   for i in range(2 * k if exp else k + pull)], "q_weights"),
                 (["P0"] if exp else [f"P{a}_{b}" for a in range(n)
                                      for b in range(n)], "momentum")]
    bound = [line for names, into in constants
             for line in unpack(names, into)]
    if function == "rhs":
        code = _block("def rhs(y):", bound + unpack(y, "y") + body(
            y, r, "return fallback(y)") + [f"return {listed(r)}"])
    elif function == "stepper":
        # the classical tableau, the step folded into its entries
        step = evaluate(y, 0) + explicit_stages(
            [["half"], [None, "half"], [None, None, "h"]]) \
            + advance(y, ["w1", "w2", "w3", "w4"])
        code = _block("def stepper(h, w1, w2, w3, w4):", [
            "rates = h, 0.5 * h, w1, w2, w3, w4"] + _block(
            "def run(y, count):", bound + [
                "h, half, w1, w2, w3, w4 = rates"] + unpack(y, "y")
            + _block("for _ in range(count):", step)
            + [f"return {listed(y)}"]) + ["return run"])
    else:
        step = unpack(stages[0], "k") + explicit_stages(
            [literals(row[:s]) for s, row in enumerate(_DP_A[1:6], 1)],
            "h * ") + advance(x, literals(_DP_B5), "h * ") + evaluate(x, 6)
        error = [f"{e[j]} = {weighted(j, literals(_DP_E))}"
                 for j in range(dim)]
        # a non-finite component makes the sum nan or inf, where max()
        # could drop a nan: either way the attempt is rejected
        error += [f"total = {' + '.join(e)}",
                  f"err = h * max({', '.join(f'abs({v})' for v in e)})"]
        code = _block("def dopri(y, k, h):", bound + unpack(y, "y") + step
                      + error + [f"return {listed(x)}, {listed(stages[6])}, "
                                 "err if total == total else total"])
    source = _block(
        "def bind(coef, q_weights, momentum, own, cross, slope, lim, "
        "fallback):", code + [f"return {function}"])
    namespace = {f.__name__: f for f in (math.exp, math.sinh, math.cosh,
                                         math.sin, math.cos)}
    exec(compile("\n".join(source), f"<{function} {form} n={n}>", "exec"),
         namespace)
    return namespace["bind"]


def _block(header, lines):
    return [header] + ["    " + line for line in lines]


class EomKernel:
    """Reduced equations of motion of one model and potential at size n.

    The model is read once, at construction: its pair form, form ("sinh"
    for the four hyperbolic kinds, "sin" for TrigUn, "exp" for DAlembert,
    whose pair denominators are Q_a -+ Q_b with Q = exp(q)), which later
    steps read in place of the kind, and its constants, the metric
    coupling among them as the two constants own and cross.  Takes and
    returns packed states (..., dim) and works on their component-major
    transpose (dim, B), one row per component (see the module docstring).
    Each pair's denominators are evaluated once per call, and the
    commutators are summed over the nonzero so(n) structure constants.
    The results of a call go into the aligned _Workspace of its width,
    built the first time the kernel sees that width; rhs without out,
    flow and energies return new arrays.  As it holds these buffers, one
    kernel must not be called from two threads at once; the library
    builds a kernel per call.  float_rhs evaluates the same equations for
    one state on Python floats.
    """

    def __init__(self, model, potential, n):
        layout = phase.pair_layout(n)
        k = layout.count
        inc = layout.incidence
        self.n = n
        self.form = {"DAlembert": "exp", "TrigUn": "sin"}.get(model.kind,
                                                              "sinh")
        self.layout = layout
        self.potential = potential
        self._workspaces = {}
        self.slope = None if potential.is_trivial \
            else potential.dilatational_slope
        partners, self.spin_signs = _commutator_terms(n)
        self.partners = partners.ravel()
        cL, cQ, cM, cN, c_rho, c_tau = model.kinetic_constants(n)
        # dH/du = coef u / d^2 for u = (M, N) upper components
        self.coef = 2.0 * np.repeat([cM, cN], k)[:, None]
        # c_rho |rho|^2 + c_tau |tau|^2, with rho = (N - M)/2 and
        # tau = -(M + N)/2, adds own u_i + cross u_(i -+ k) to dH/du_i
        self.own = float(0.5 * (c_tau + c_rho))
        self.cross = float(0.5 * (c_tau - c_rho))
        self.coupling = np.kron([[self.own, self.cross],
                                 [self.cross, self.own]], np.eye(k)) \
            if c_rho or c_tau else None
        # half the pair differences, on which _pairs tests for a wall, and
        # qbar in the last row
        self.pair_map = np.vstack([0.5 * inc, np.full((1, n), 1.0 / n)])
        if self.form == "exp":
            # pair denominators (Q_a - Q_b, Q_a + Q_b)
            self.Q_map = np.concatenate([inc, np.abs(inc)])
            self.q_weights = self.Q_map.T / (2.0 * cM)
            self.momentum = 2.0 * cL
            return
        # the sm and cm of the half differences are the pair denominators
        self.sm = getattr(np, self.form)
        self.cm = getattr(np, self.form.replace("sin", "cos"))
        # -dH/dq from the M and N terms alike, as cN = -cM (cN = cM for
        # the trigonometric sm, cm) makes both pull with weight 1/(4 cM)
        self.q_weights = inc.T / (4.0 * cM)
        if self.slope is not None:
            # V(qbar) pulls every q_a with -V'(qbar)/n: one more column
            self.q_weights = np.hstack([self.q_weights,
                                        np.full((n, 1), -1.0 / n)])
        # with one column, the product is one multiply per element, which
        # np.multiply makes several times faster than np.matmul
        self._pull = np.multiply if self.q_weights.shape[1] == 1 \
            else np.matmul
        self.momentum = 2.0 * (cL * np.eye(n) + cQ)

    def _workspace(self, width):
        """The aligned buffers and views of batch width B = width, built the
        first time this kernel sees that width."""
        ws = self._workspaces.get(width)
        if ws is None:
            ws = self._workspaces[width] = _Workspace(self, width)
        return ws

    def _pairs(self, x, u, ws):
        """Pair denominators d (2k, B) and the weights coef/d^2 with which
        u enters dH/du, the removable terms of vanishing coupling set to
        zero, written into the workspace ws.  x is Q = exp(q), (n, B), for
        DAlembert and the half differences ws.h_pairs, (k, B), otherwise.
        A pair is near where |q_a - q_b| < DEGENERACY_TOL, read on
        ws.h_pairs; for TrigUn, whose sin and cos both vanish, where
        either denominator is below half that."""
        k = self.layout.count
        if self.form == "exp":
            np.matmul(self.Q_map, x, out=ws.d)
        else:
            self.sm(x, out=ws.d_lo)
            self.cm(x, out=ws.d_hi)
        np.less(np.abs(ws.screened, out=ws.magnitude),
                0.5 * phase.DEGENERACY_TOL, out=ws.screen)
        near = ws.near if np.count_nonzero(ws.screen) else None
        # an antipodal N coupling is named before a coincident M one
        if near is not None and np.any(near[k:] & (u[k:] != 0.0)):
            raise DegenerateInertia(
                "antipodal invariants q_a - q_b = pi with N coupling")
        if near is not None and np.any(near[:k] & (u[:k] != 0.0)):
            raise DegenerateInertia(
                "coincident deformation invariants with nonzero M coupling")
        return ws.d, _over_squares(self.coef, ws, near)

    def _gradients(self, q, p, u, dHdp, force, ws):
        """Energy gradients, component-major: writes dH/dp and -dH/dq into
        dHdp and force, (n, B) like q and p, and returns dH/du, (2k, B)
        like u, the workspace's g."""
        g, v = ws.g, ws.v
        np.matmul(self.pair_map, q, out=ws.h)
        if self.form == "exp":
            Q = np.exp(q, out=ws.Q)
            d, weights = self._pairs(Q, u, ws)
            np.multiply(u, weights, out=g)
            np.multiply(Q, Q, out=ws.QQ)
            np.multiply(np.divide(p, ws.QQ, out=ws.QQ), self.momentum,
                        out=dHdp)
            np.multiply(g, g, out=v)
            np.matmul(self.q_weights, np.multiply(v, d, out=v), out=ws.pull)
            np.multiply(ws.pull, Q, out=force)
            np.add(force, np.multiply(p, dHdp, out=ws.pull), out=force)
            if self.slope is not None:
                force -= self.slope(ws.qbar) / self.n
            return g
        d, weights = self._pairs(ws.h_pairs, u, ws)
        np.multiply(u, weights, out=g)
        np.multiply(g, g, out=v)
        pulls = np.subtract(ws.v_lo, ws.v_hi, out=ws.pulls_pairs)
        np.multiply(pulls, np.multiply(ws.d_lo, ws.d_hi, out=ws.dd),
                    out=pulls)
        if self.slope is not None:
            self.slope(ws.qbar, out=ws.pulls_slope)
        self._pull(self.q_weights, ws.pulls, out=force)
        np.matmul(self.momentum, p, out=dHdp)
        if self.coupling is not None:
            np.add(g, np.matmul(self.coupling, u, out=ws.cu), out=g)
        return g

    def _flow(self, z, dz=None):
        """Time derivative dz of component-major states z (dim, B), written
        into dz if given, and the stacked upper components of G_M and G_N,
        (2k, B), the latter in the workspace of width B."""
        n = self.n
        u = z[2 * n:]
        if dz is None:
            dz = np.empty(z.shape)
        ws = self._workspace(z.shape[1])
        g = self._gradients(z[:n], z[n:2 * n], u, dz[:n], dz[n:2 * n], ws)
        if self.partners.size:
            # with out, mode "raise" would copy through a buffer
            np.take(g, self.partners, axis=0, out=ws.taken, mode="clip")
            np.multiply(u.reshape(ws.u_shape), ws.taken_terms,
                        out=ws.products)
            np.matmul(self.spin_signs, ws.product_rows, out=dz[2 * n:])
        else:
            dz[2 * n:] = 0.0
        return dz, g

    def flow(self, y):
        """Time derivative of packed states y (..., dim), together with
        the stacked upper components of G_M = dH/dM and G_N = dH/dN."""
        y = np.asarray(y, dtype=float)
        dz, g = self._flow(y.reshape(-1, y.shape[-1]).T)
        # g is the workspace's, which the next call overwrites
        return dz.T.reshape(y.shape), g.copy().T.reshape(y.shape[:-1] + (-1,))

    def rhs(self, y, out=None):
        """Time derivative of packed states y (..., dim), written into the
        component-major (dim, B) array out if one is given."""
        y = np.asarray(y, dtype=float)
        dz = self._flow(y.reshape(-1, y.shape[-1]).T, out)[0]
        return dz.T.reshape(y.shape)

    def float_rhs(self):
        """The time derivative of one packed state as a function from a
        list of dim Python floats to another, which calls no numpy: the
        equations of _flow, written out by _emit for this kernel's
        structure and bound to its constants.  A state with a pair
        denominator near zero goes through rhs, which raises the same
        DegenerateInertia and sets the removable terms to zero.  Where
        numpy returns inf or nan, math raises OverflowError,
        ZeroDivisionError or ValueError."""
        return self._bind_floats("rhs")

    def _bind_floats(self, function):
        """The float_rhs ("rhs"), the RK4 stepper ("stepper") or the
        Dormand-Prince attempt ("dopri") of this kernel, emitted by _emit
        for its form and bound to its constants:
        stepper(h, w1, w2, w3, w4) gives run(y, count), count RK4 steps of
        one state with step h and weights w, and dopri(y, k, h) gives
        (y5, f(y5), err) from y and k = f(y)."""
        def fallback(y):
            with np.errstate(all="ignore"):
                return self.rhs(y).tolist()

        bind = _emit(self.form, self.n, self.slope is not None,
                     self.coupling is not None, function)
        return bind(self.coef.ravel().tolist(),
                    self.q_weights.ravel().tolist(),
                    np.ravel(self.momentum).tolist(), self.own, self.cross,
                    self.slope, phase.DEGENERACY_TOL, fallback)

    def energies(self, ys):
        """Energy H and quadratic Casimir C2 of packed states (..., dim).
        C2 is a property of the state, the same for every model kind: the
        sum over pairs of (p_a - p_b)^2 / n, M_ab^2 / (8 sinh^2) and
        -N_ab^2 / (8 cosh^2) of the half differences of q, the last two
        taken as zero at the pairs _pairs found at a wall, where their
        coupling is zero."""
        n, k = self.n, self.layout.count
        ys = np.asarray(ys, dtype=float)
        z = ys.reshape(-1, ys.shape[-1]).T
        q, p, u = z[:n], z[n:2 * n], z[2 * n:]
        dHdp, force = np.empty((2,) + p.shape)
        ws = self._workspace(z.shape[1])
        g = self._gradients(q, p, u, dHdp, force, ws)
        # the kinetic energy is quadratic in (p, u): T = (p.dT/dp + u.dT/du)/2
        energy = 0.5 * (np.sum(p * dHdp, axis=0) + np.sum(u * g, axis=0)) \
            + self.potential.dilatational_value(q.mean(axis=0))
        # into the pair rows, which _gradients has finished with
        np.sinh(ws.h_pairs, out=ws.d_lo)
        np.cosh(ws.h_pairs, out=ws.d_hi)
        weights = _over_squares(0.125, ws, ws.near if np.count_nonzero(
            ws.near) else None)
        weights[k:] *= -1.0
        dp = self.layout.incidence @ p
        casimir = np.sum(dp * dp, axis=0) / n \
            + np.sum(u * u * weights, axis=0)
        shape = ys.shape[:-1]
        return energy.reshape(shape), casimir.reshape(shape)


def _aligned_empty(shape):
    """An uninitialised C-contiguous float64 array whose first element
    starts on a multiple of ALIGNMENT bytes; the rows of a (rows, B) array
    then start on cache lines whenever 8 divides B.  Its rows are not
    padded to a cache line: numpy iterates a (rows, B) view of padded rows
    as strided, which measured slower than the split loads it saves, and
    BLAS rounds the last columns of a product in its own tail loop, which
    padding would move."""
    size = math.prod(shape)
    raw = np.empty(size + ALIGNMENT // 8)
    start = -raw.ctypes.data % ALIGNMENT // 8
    return raw[start:start + size].reshape(shape)


class _Workspace:
    """The buffers of one batch width B into which EomKernel writes every
    elementwise result of _pairs, _gradients and _flow, as the (count, B)
    rows of one aligned block (_aligned_empty), and the views of them each
    call uses, built here once.  Every form has the half differences
    h_pairs, on which _pairs screens (bar sin), and qbar."""

    def __init__(self, kernel, width):
        n, k = kernel.n, kernel.layout.count
        # the screen of _pairs: all 2k rows of d for sin, whose cosine
        # vanishes at antipodal pairs, the k half differences otherwise
        trig = kernel.form == "sin"
        counts = dict(d=2 * k, weights=2 * k, g=2 * k, v=2 * k,
                      magnitude=k + k * trig, h=k + 1)
        if kernel.form == "exp":
            counts.update(Q=n, QQ=n, pull=n)
        else:
            counts.update(pulls=k + (kernel.slope is not None), dd=k,
                          cu=2 * k * (kernel.coupling is not None))
        # the g_j taken for the u_i g_j of the (2, k, 2T) commutator terms,
        # and the terms as (4kT, B) rows for the product with the signs
        pairs = kernel.partners.size // max(k, 1)
        counts.update(taken=k * pairs, product_rows=2 * k * pairs)
        block = _aligned_empty((sum(counts.values()), width))
        ends = itertools.accumulate(counts.values())
        for (name, count), end in zip(counts.items(), ends):
            setattr(self, name, block[end - count:end])
        self.d_lo, self.d_hi = self.d[:k], self.d[k:]
        self.h_pairs, self.qbar = self.h[:k], self.h[k:]
        self.screened = self.d if trig else self.h_pairs
        # all 2k rows of d; the screen writes the first, the rest stay False
        self.near = np.zeros((2 * k, width), dtype=bool)
        self.screen = self.near[:len(self.magnitude)]
        self.v_lo, self.v_hi = self.v[:k], self.v[k:]
        if kernel.form != "exp":
            self.pulls_pairs, self.pulls_slope = self.pulls[:k], self.pulls[k:]
        self.u_shape = (2, k, 1, width)
        self.taken_terms = self.taken.reshape(k, pairs, width)
        self.products = self.product_rows.reshape(2, k, pairs, width)


def _over_squares(coef, ws, near):
    """coef / d^2 of ws.d into ws.weights, or, given a mask near, a new
    array with zeros where near."""
    if near is None:
        return np.divide(coef, np.multiply(ws.d, ws.d, out=ws.weights),
                         out=ws.weights)
    return np.where(near, 0.0, coef / np.where(near, 1.0, ws.d) ** 2)


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
    attitudes: np.ndarray | None = None   # (len, 2, n, n): L, R

    def state(self, k):
        return unpack_state(self.samples[k], self.n)

    @property
    def energy_drift(self):
        return _drift(self.energy)

    @property
    def casimir_drift(self):
        return _drift(self.casimir)


def _drift(values):
    """Largest deviation from the first value, relative to max(|first|, 1)."""
    scale = max(abs(values[0]), 1.0)
    return float(np.max(np.abs(values - values[0])) / scale)


# RK4 weights of the four stages, in units of the step
_RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


# Dormand-Prince 5(4) embedded pair: row i of _DP_A weighs the earlier
# stages that form the input of stage i; row 6 is _DP_B5, so the last
# stage is f(y5), the first of the next step (FSAL)
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


def integrate(model, potential, state0, t_end, control=StepControl()):
    """Integrate the reduced equations of motion up to t_end."""
    if not 0 < t_end < math.inf:
        raise ConfigError("t_end must be positive and finite")
    if potential.kind == "box":
        raise DomainError("box potential walls are not integrable; "
                          "use a steep oscillator classically")
    n = state0.n
    y = pack_state(state0)
    kernel = EomKernel(model, potential, n)
    if control.method == "rk4":
        times, samples = _rk4(kernel, y, t_end, control.step,
                              control.record_every)
    else:
        # the emitted Dormand-Prince attempt on Python floats; k = f(y) is
        # held over a rejected attempt and taken from the last stage of an
        # accepted one.  The error estimate h max|_DP_E @ K| comes from the
        # stages, so that it does not cancel against y
        rhs, dopri = kernel.float_rhs(), kernel._bind_floats("dopri")
        y = y.tolist()
        k = None
        t = 0.0
        times = [t]
        samples = [y]
        h = min(control.step, MAX_STEP, t_end)
        scale = max(1.0, *map(abs, y))
        while t < t_end - 1e-15 * t_end:
            h = min(h, t_end - t)
            try:
                if k is None:
                    k = rhs(y)
                ynew, knew, err = dopri(y, k, h)
            except (OverflowError, ZeroDivisionError, ValueError):
                # where numpy would return inf or nan: a rejected attempt
                err = math.nan
            tol = control.atol + control.rtol * scale
            if err <= tol:
                t += h
                y, k = ynew, knew
                times.append(t)
                samples.append(y)
                scale = max(1.0, *map(abs, y))
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
    if kernel.form == "sin" and potential.is_trivial:
        # without a potential the flow is 2 pi-periodic in every angle;
        # record the (-pi, pi] representative.  V(qbar) is not periodic,
        # so with one the angles are recorded as integrated
        samples[:, :n] = phase.wrap_angle(samples[:, :n])
    energy, casimir = kernel.energies(samples)
    return Trajectory(n=n, model=model, potential=potential,
                      times=times, samples=samples,
                      energy=energy, casimir=casimir, control=control)


def integrate_batch(model, potential, y0, t_end, step, n, record_every=None):
    """Fixed-step RK4 over a batch of packed states, rows of width
    n(n + 1) (else ShapeMismatch), in steps of about step up to t_end,
    both positive (else ConfigError, step_count); records only the
    endpoints unless record_every is given.  Returns (times, samples) with
    samples shaped (records,) + y0.shape.  A batch of more than one state
    steps component-major, in place (_rk4_batch); one state, (dim,) or
    (1, dim), steps on Python floats through the kernel's emitted RK4 step
    (_emit), where numpy's per-call cost would outweigh its arithmetic.

    A state that blows up (a step across a singular wall of the lattice)
    stays non-finite from then on.  numpy's floating-point warnings are
    off during the steps, and the records are checked once, at the end:
    StepFailure names the time of the first non-finite record."""
    if np.shape(y0)[-1:] != (n * n + n,):
        raise ShapeMismatch(f"rows of y0 need n(n + 1) = {n * n + n} entries")
    if record_every is not None and not record_every >= 1:
        raise ConfigError("record_every must be >= 1")
    return _rk4(EomKernel(model, potential, n), y0, t_end, step,
                record_every)


def _rk4(kernel, y0, t_end, step, record_every):
    """integrate_batch on a kernel built by the caller."""
    nsteps = step_count(t_end, step)
    h = t_end / nsteps
    every = record_every or nsteps
    # the step counts at the records after t = 0: multiples of every, and
    # the last step
    marks = [*range(every, nsteps, every), nsteps]
    y0 = np.asarray(y0, dtype=float)
    weights = h * _RK4_B
    if y0.size == y0.shape[-1]:
        samples = _rk4_one_state(
            kernel._bind_floats("stepper")(h, *weights.tolist()),
            y0.ravel().tolist(), marks)
    else:
        samples = _rk4_batch(kernel.rhs, y0, h, weights, marks)
    times = h * np.array([0, *marks])
    if record_every is None:
        times[-1] = t_end
    samples = np.asarray(samples).reshape(times.shape + y0.shape)
    finite = np.isfinite(samples.reshape(len(times), -1)).all(axis=1)
    if not finite.all():
        raise StepFailure("RK4 state turned non-finite at "
                          f"t = {times[np.argmin(finite)]:g}")
    return times, samples


def step_count(t_end, step):
    """The number of fixed steps, at least one, nearest t_end / step, for
    a positive t_end and step."""
    ratio = t_end / step if t_end > 0 and step > 0 else math.nan
    if not math.isfinite(ratio):
        raise ConfigError(f"'t_end' / 'step' = {t_end:g} / {step:g} must "
                          "be a finite ratio of positive numbers")
    return max(1, round(ratio))


def _rk4_batch(rhs, y0, h, weights, marks):
    """The steps of integrate_batch on a component-major batch; returns
    the records, (len(marks) + 1, B, dim), y0 first and then one at each
    step count of marks.  The state z, the stage input, the (4, dim, B)
    stages and their weighted sum are aligned blocks (_aligned_empty).
    Each RHS call writes its stage into the stage block, a step ends with
    one product of the RK4 weights with that block, and z is stepped in
    place, so each record is copied at its mark.

    Inside errstate, whose exit restores it (numpy >= 2.0), numpy's ufunc
    buffer is lowered, never raised, to the largest multiple of 16 (numpy
    takes no other size) not above B from B = 16 on; below, 16 elements
    measured slower.  A longer buffer makes numpy copy the broadcast
    operands of a ufunc, such as _flow's commutator product, through it in
    chunks; with one no longer than a row, each row is one inner loop."""
    dim = y0.shape[-1]
    width = y0.size // dim
    flat = _aligned_empty((4, dim * width))
    total = _aligned_empty((dim * width,))
    k1, k2, k3, k4 = flat.reshape(4, dim, width)
    acc = total.reshape(dim, width)
    z, zs = _aligned_empty((dim, width)), _aligned_empty((dim, width))
    z[...] = y0.reshape(-1, dim).T
    states, inputs = z.T, zs.T
    records = np.empty((len(marks) + 1, width, dim))
    records[0] = states
    half = 0.5 * h
    with np.errstate(all="ignore"):
        if 16 <= width - width % 16 < np.getbufsize():
            np.setbufsize(width - width % 16)
        for record, (start, stop) in enumerate(zip([0, *marks], marks), 1):
            for _ in range(stop - start):
                rhs(states, k1)
                np.add(z, np.multiply(k1, half, out=zs), out=zs)
                rhs(inputs, k2)
                np.add(z, np.multiply(k2, half, out=zs), out=zs)
                rhs(inputs, k3)
                np.add(z, np.multiply(k3, h, out=zs), out=zs)
                rhs(inputs, k4)
                np.matmul(weights, flat, out=total)
                np.add(z, acc, out=z)
            records[record] = states
    return records


def _rk4_one_state(run, y, marks):
    """The steps of integrate_batch on one state, a list of Python floats,
    made by run(y, count) one record segment at a time; returns the
    records, y first and then one at each step count of marks.  A segment
    in which math raises, where numpy would return inf or nan, ends the
    stepping, as does a record with a non-finite component; every record
    after that is nan, as a batch's would be non-finite."""
    samples = [y]
    for start, stop in zip([0, *marks], marks):
        try:
            y = run(y, stop - start)
        except (OverflowError, ZeroDivisionError, ValueError):
            break
        samples.append(y)
        # each component in turn: a sum overflows on finite states near
        # 1e308
        if not all(map(math.isfinite, y)):
            break
    return samples + [[math.nan] * len(y)] * (len(marks) + 1 - len(samples))


def _polar_factors(mats):
    """Polar factors of a stack of matrices A near the rotation group, by
    one Newton-Schulz step (Bjorck and Bowie, 1971): with E = A^T A - I,
    A - A E / 2.  Raises StepFailure if any of them drifts from the group
    by more than ORTHOGONALITY_TOL, read as |E|_F / 2, which is at least
    max |s - 1| over the singular values s of A to first order.  For the
    matrices that pass, the step's error, of order |E|^2, is below
    round-off."""
    E = mats.swapaxes(-1, -2) @ mats
    E -= np.eye(mats.shape[-1])
    resid = 0.5 * math.sqrt(np.max(np.square(E).sum(axis=(-2, -1)),
                                   initial=0.0))
    if not resid <= ORTHOGONALITY_TOL:
        raise StepFailure(f"orthogonality residual {resid:g} "
                          "exceeded during attitude propagation")
    return mats - 0.5 * (mats @ E)


# (row, step) pairs of stage generators that reconstruct_attitudes holds
_ATTITUDE_BUDGET = 256


def reconstruct_attitudes(model, trajectory, L0, R0):
    """Propagate the attitude pair along a trajectory.

    The co-moving angular velocities chi = L^T dL/dt = G_M - G_N and
    theta = R^T dR/dt = G_M + G_N drive dL/dt = L chi, dR/dt = R theta
    (checked against exact exponential geodesics, where rebuilding
    L exp(q) R^T recovers exp(Omega t) phi0).  This flow is linear in L
    and R, with generators X = (chi, theta) from the reduced state alone,
    so one RK4 step is U -> U P, by the propagator (Magnus, 1954; Iserles
    et al., 2000) P = I + h (A1 + 2 A2 + 2 A3 + A4) / 6 of the stage
    generators Xj, with A1 = X1, A2 = (I + h A1 / 2) X2,
    A3 = (I + h A2 / 2) X3, A4 = (I + h A3) X4.  All recorded intervals
    [t_k, t_k+1] step at once, one row each: row k restarts from
    samples[k] and takes record_every RK4 steps of its own length.  Only
    the reduced state is integrated; the generators of _ATTITUDE_BUDGET
    (row, step) pairs at a time become propagators in one batch.

    Each P is replaced by its polar factor, by one Newton-Schulz step
    (_polar_factors), and a P with |P^T P - I|_F / 2 > ORTHOGONALITY_TOL
    raises StepFailure, as do seeds that are not rotations.  For a
    rotation U, polar(U P) = U polar(P) and (U P)^T U P = P^T P: this is
    the step-by-step re-projection of L and R themselves, up to round-off.
    The products, chained along each row and onto the seeds, are projected
    once more, so that the chain's round-off does not pile up.
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
    det = np.linalg.det(chain[0]).min()
    if not det > 0:
        raise StepFailure(f"attitude seed of determinant {det:g} is not "
                          "a rotation")
    kernel = EomKernel(trajectory.model, trajectory.potential, n)
    k = kernel.layout.count
    rows = len(chain) - 1
    z = trajectory.samples[:-1].T.copy()    # component-major
    stages = np.empty((4,) + z.shape)
    k1, k2, k3, k4 = stages
    substeps = max(1, trajectory.control.record_every)
    h = np.diff(trajectory.times) / substeps
    half = 0.5 * h
    hs = h[:, None, None, None]
    props = np.eye(n)
    block = max(1, _ATTITUDE_BUDGET // max(rows, 1))
    for start in range(0, substeps, block):
        # the stage gradients (upper(G_M), upper(G_N)) of each step and row
        g = np.empty((min(block, substeps - start), 4, rows, 2 * k))
        for gs in g:
            gs[0] = kernel._flow(z, k1)[1].T
            gs[1] = kernel._flow(z + half * k1, k2)[1].T
            gs[2] = kernel._flow(z + half * k2, k3)[1].T
            gs[3] = kernel._flow(z + h * k3, k4)[1].T
            z += h * (_RK4_B @ stages.reshape(4, -1)).reshape(z.shape)
        X1, X2, X3, X4 = kernel.layout.skew(np.stack(
            [g[..., :k] - g[..., k:], g[..., :k] + g[..., k:]],
            axis=-2)).swapaxes(0, 1)
        A2 = X2 + (0.5 * hs * X1) @ X2
        A3 = X3 + (0.5 * hs * A2) @ X3
        A4 = X4 + (hs * A3) @ X4
        for P in _polar_factors(np.eye(n) + hs / 6.0 * (
                X1 + 2.0 * A2 + 2.0 * A3 + A4)):
            props = props @ P
    for i, P in enumerate(props):
        np.matmul(chain[i], P, out=chain[i + 1])
    chain[1:] = _polar_factors(chain[1:])
    return replace(trajectory, attitudes=chain)


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
