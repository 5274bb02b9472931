"""Poisson structure on the reduced phase space.

Observables are value/gradient pairs.  The bracket combines the canonical
(q, p) part with the Lie-Poisson part on (M, N), whose structure constants
close {M,M} and {N,N} on M and {M,N} on N.  In matrix form, with skew
gradient matrices F_M = dF/dM etc.,

    {F, G} = dF/dq . dG/dp - dF/dp . dG/dq
             - (1/2) Tr(F_M [M, G_M] + F_N [M, G_N]
                        + F_M [N, G_N] + F_N [N, G_M]).
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnknownObservable
from . import dynamics, phase


@dataclass
class PhaseGradient:
    dq: np.ndarray
    dp: np.ndarray
    dM: np.ndarray  # skew, entry (a,b) = dF/dM_ab for a < b
    dN: np.ndarray

    @classmethod
    def zero(cls, n):
        return cls(np.zeros(n), np.zeros(n), np.zeros((n, n)),
                   np.zeros((n, n)))


class FunctionObservable:
    """Observable from a value function and its exact gradient."""

    def __init__(self, name, value_fn, grad_fn):
        self.name = name
        self._value = value_fn
        self._grad = grad_fn

    def value(self, state):
        return float(self._value(state))

    def gradient(self, state):
        return self._grad(state)


class LinearObservable:
    """c0 + cq.q + cp.p + sum_{a<b} (CM_ab M_ab + CN_ab N_ab).

    Coefficients with leading axes make a stack of observables, one per
    member, whose value takes a state with the same leading axes.
    """

    def __init__(self, n, c0=0.0, cq=None, cp=None, CM=None, CN=None,
                 name="linear"):
        self.n = n
        self.name = name
        self.c0 = np.asarray(c0, dtype=float)
        self.cq = np.zeros(n) if cq is None else np.asarray(cq, dtype=float)
        self.cp = np.zeros(n) if cp is None else np.asarray(cp, dtype=float)
        self.CM = np.zeros((n, n)) if CM is None else np.asarray(CM, float)
        self.CN = np.zeros((n, n)) if CN is None else np.asarray(CN, float)

    def value(self, state):
        upper = phase.pair_layout(self.n).upper
        # a stack's upper components come out strided, and numpy sums a
        # strided dot product in another order than a contiguous one
        cm, cn = (np.ascontiguousarray(upper(C)) for C in (self.CM, self.CN))
        return (self.c0 + np.vecdot(self.cq, state.q)
                + np.vecdot(self.cp, state.p)
                + np.vecdot(cm, state.m_upper) + np.vecdot(cn, state.n_upper))

    def gradient(self, state):
        return PhaseGradient(self.cq.copy(), self.cp.copy(),
                             self.CM.copy(), self.CN.copy())


class ProductObservable:
    def __init__(self, f, g):
        self.f = f
        self.g = g
        self.name = f"({f.name})*({g.name})"

    def value(self, state):
        return self.f.value(state) * self.g.value(state)

    def gradient(self, state):
        # the values of a stack get the trailing axis of dq; without it a
        # stack of n members would broadcast along the wrong axis
        fv, gv = (np.asarray(o.value(state))[..., None]
                  for o in (self.f, self.g))
        gf, gg = self.f.gradient(state), self.g.gradient(state)
        return PhaseGradient(gv * gf.dq + fv * gg.dq,
                             gv * gf.dp + fv * gg.dp,
                             gv[..., None] * gf.dM + fv[..., None] * gg.dM,
                             gv[..., None] * gf.dN + fv[..., None] * gg.dN)


def coordinate_observable(tag, n, a=None, b=None):
    """Observable for a phase-space coordinate.

    tag in {'q', 'p'} takes index a; {'M', 'N', 'rho', 'tau'} take a < b.
    """
    if tag in ("q", "p"):
        if a is None or not 0 <= a < n:
            raise UnknownObservable(f"bad index for {tag}")
        vec = np.zeros(n)
        vec[a] = 1.0
        kw = {"cq": vec} if tag == "q" else {"cp": vec}
        return LinearObservable(n, name=f"{tag}_{a + 1}", **kw)
    if tag in ("M", "N", "rho", "tau"):
        if a is None or b is None or not 0 <= a < b < n:
            raise UnknownObservable(f"bad index pair for {tag}")
        layout = phase.pair_layout(n)
        E = layout.skew(layout.upper_flat == a * n + b)
        if tag == "M":
            return LinearObservable(n, CM=E, name=f"M_{a + 1}{b + 1}")
        if tag == "N":
            return LinearObservable(n, CN=E, name=f"N_{a + 1}{b + 1}")
        if tag == "rho":
            # rho = (N - M)/2
            return LinearObservable(n, CM=-0.5 * E, CN=0.5 * E,
                                    name=f"rho_{a + 1}{b + 1}")
        return LinearObservable(n, CM=-0.5 * E, CN=-0.5 * E,
                                name=f"tau_{a + 1}{b + 1}")
    raise UnknownObservable(f"unknown observable tag {tag!r}")


def hamiltonian_observable(model, potential):
    """H = T + V with its exact gradient, both read from the equations of
    motion: dH/dq = -dp/dt, dH/dp = dq/dt, and the kernel's G_M, G_N."""
    def value(state):
        kernel = dynamics.EomKernel(model, potential, state.n)
        return kernel.energies(dynamics.pack_state(state))[0]

    def grad(state):
        n = state.n
        kernel = dynamics.EomKernel(model, potential, n)
        dz, g = kernel.flow(dynamics.pack_state(state))
        k = kernel.layout.count
        return PhaseGradient(-dz[n:2 * n], dz[:n], kernel.layout.skew(g[:k]),
                             kernel.layout.skew(g[k:]))

    return FunctionObservable(f"H[{model.kind}]", value, grad)


def bracket_values(F, G, state):
    """{F, G} over the leading axes that the state's arrays and the
    observables' coefficients share, as an array: 0-d for one state."""
    gF = F.gradient(state)
    gG = G.gradient(state)
    M, N = state.M, state.N
    lie = -0.5 * np.trace(
        gF.dM @ (M @ gG.dM - gG.dM @ M)
        + gF.dN @ (M @ gG.dN - gG.dN @ M)
        + gF.dM @ (N @ gG.dN - gG.dN @ N)
        + gF.dN @ (N @ gG.dM - gG.dM @ N), axis1=-2, axis2=-1)
    return np.vecdot(gF.dq, gG.dp) - np.vecdot(gF.dp, gG.dq) + lie


def poisson_bracket(F, G, state):
    """Evaluate {F, G} at a reduced state."""
    return float(bracket_values(F, G, state))


def bracket_observable(F, G):
    """The bracket {F, G} of two linear observables as a linear observable,
    or of each pair of members of two stacks.

    The canonical part is a constant, and Tr(A [X, B]) = Tr(X [B, A])
    turns the Lie-Poisson part into -(1/2) Tr(M CM + N CN), the M and N
    terms of a linear observable, with the skew commutators below.
    """
    if not isinstance(F, LinearObservable) or not isinstance(G, LinearObservable):
        raise UnknownObservable(
            "symbolic brackets are available for linear observables only")

    def com(X, Y):
        return X @ Y - Y @ X

    return LinearObservable(
        F.n, c0=np.vecdot(F.cq, G.cp) - np.vecdot(F.cp, G.cq),
        CM=com(G.CM, F.CM) + com(G.CN, F.CN),
        CN=com(G.CN, F.CM) + com(G.CM, F.CN), name=f"{{{F.name},{G.name}}}")
