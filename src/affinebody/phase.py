"""Reduced phase space of the internal motion.

After splitting off the attitude factors L, R, the classical state is
(q, p, M, N): log deformation invariants, their conjugate momenta, and
two skew-symmetric coupling matrices built from spin and vorticity in
co-moving axes (rho = (N - M)/2, tau = -(M + N)/2).  The dynamics of
these variables is closed; every supported kinetic model evaluates to a
Sutherland-type lattice Hamiltonian in them.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInertia, DomainError
from .schema import Key, table, walk

MODEL_KINDS = ("DAlembert", "AffAff", "AffMetr", "MetrAff", "MetrMetr", "TrigUn")

# |q_a - q_b| below this with a nonzero M_ab coupling is a genuine
# singularity of the lattice terms; with M_ab = 0 the term is removable
DEGENERACY_TOL = 1e-9

POTENTIAL_KINDS = ("none", "harmonic_well", "box", "steep_oscillator")


# ---------------------------------------------------------------------------
# skew-matrix helpers


class PairLayout:
    """Index constants of the n(n-1)/2 pairs a < b, in the row-major
    strictly-upper order of the packed state and the CSV columns."""

    def __init__(self, n):
        self.n = n
        self.iu = np.triu_indices(n, k=1)
        self.count = self.iu[0].size
        # incidence[k] = e_a - e_b for pair k = (a, b), so that
        # q @ incidence.T is the vector of pair differences q_a - q_b
        self.incidence = np.zeros((self.count, n))
        self.incidence[np.arange(self.count), self.iu[0]] = 1.0
        self.incidence[np.arange(self.count), self.iu[1]] = -1.0
        # flat positions of (a, b) and (b, a) in an n x n matrix
        self.upper_flat = self.iu[0] * n + self.iu[1]
        self.lower_flat = self.iu[1] * n + self.iu[0]

    def skew(self, upper):
        """Skew matrices from upper components, batched over leading
        dimensions."""
        upper = np.asarray(upper, dtype=float)
        flat = np.zeros(upper.shape[:-1] + (self.n * self.n,))
        flat[..., self.upper_flat] = upper
        flat[..., self.lower_flat] = -upper
        return flat.reshape(upper.shape[:-1] + (self.n, self.n))

    def upper(self, M):
        """Upper components of (batched) square matrices."""
        return np.asarray(M, dtype=float)[..., self.iu[0], self.iu[1]]


@functools.lru_cache(maxsize=None)
def pair_layout(n):
    return PairLayout(n)


def _skew_upper(M, name):
    """Upper components of a matrix checked to be square and skew."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{name} must be a square matrix")
    if np.max(np.abs(M + M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
        raise ConfigError(f"{name} must be skew-symmetric")
    return pair_layout(len(M)).upper(M)


class ReducedState:
    """Closed classical state (q, p, M, N).

    M and N are stored as strictly-upper triangles so the skew symmetry
    M = -M^T, N = -N^T holds exactly on reconstruction.
    """

    __slots__ = ("q", "p", "m_upper", "n_upper")

    def __init__(self, q, p, M=None, N=None, m_upper=None, n_upper=None):
        self.q = np.asarray(q, dtype=float).copy()
        self.p = np.asarray(p, dtype=float).copy()
        n = self.q.size
        if self.p.size != n:
            raise ConfigError("q and p must have the same length")
        nupper = n * (n - 1) // 2
        if m_upper is not None:
            self.m_upper = np.asarray(m_upper, dtype=float).copy()
        else:
            self.m_upper = _skew_upper(M, "M") if M is not None \
                else np.zeros(nupper)
        if n_upper is not None:
            self.n_upper = np.asarray(n_upper, dtype=float).copy()
        else:
            self.n_upper = _skew_upper(N, "N") if N is not None \
                else np.zeros(nupper)
        if self.m_upper.size != nupper or self.n_upper.size != nupper:
            raise ConfigError("M/N sizes inconsistent with q")

    @property
    def n(self):
        return self.q.size

    @property
    def M(self):
        return pair_layout(self.n).skew(self.m_upper)

    @property
    def N(self):
        return pair_layout(self.n).skew(self.n_upper)

    @property
    def rho(self):
        """Spin in L-co-moving axes: rho = (N - M)/2."""
        return pair_layout(self.n).skew(0.5 * (self.n_upper - self.m_upper))

    @property
    def tau(self):
        """Negative vorticity in R-co-moving axes: tau = -(M + N)/2."""
        return pair_layout(self.n).skew(-0.5 * (self.m_upper + self.n_upper))

    def copy(self):
        return ReducedState(self.q, self.p,
                            m_upper=self.m_upper, n_upper=self.n_upper)

    def __repr__(self):
        return (f"ReducedState(q={self.q}, p={self.p}, "
                f"m_upper={self.m_upper}, n_upper={self.n_upper})")


# ---------------------------------------------------------------------------
# model and potential specifications


@dataclass(frozen=True)
class ModelSpec:
    """Kinetic model tag with inertial constants; `MODEL_KEYS` lists the
    ones each kind reads.  AffMetr and MetrAff use I and A through
    alpha = I + A and mu = (I^2 - A^2)/I."""

    kind: str
    I: float = 1.0
    A: float = 1.0
    B: float = 0.0
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        for name in ("I", "A", "B", "hbar"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"constant {name} must be finite")
        if self.kind == "DAlembert" and self.I <= 0.0:
            raise ConfigError("DAlembert requires I > 0")
        if self.kind in ("AffAff", "TrigUn") and self.A == 0.0:
            raise ConfigError(f"{self.kind} requires A != 0")
        if self.kind in ("AffMetr", "MetrAff"):
            if self.I + self.A == 0.0:
                raise ConfigError("alpha = I + A must be nonzero")
            if self.I == 0.0 or self.I ** 2 == self.A ** 2:
                raise ConfigError("mu = (I^2 - A^2)/I must be finite and nonzero")
        if self.kind == "MetrMetr":
            for name in ("a", "b", "c", "d"):
                v = getattr(self, name)
                if v is None or not np.isfinite(v) or v == 0.0:
                    raise ConfigError(
                        f"MetrMetr requires finite nonzero constant {name}")

    @property
    def alpha(self):
        """Coefficient of the quadratic Casimir in the kinetic energy."""
        if self.kind in ("AffAff", "TrigUn"):
            return self.A
        if self.kind in ("AffMetr", "MetrAff"):
            return self.I + self.A
        if self.kind == "MetrMetr":
            return self.a
        raise ConfigError(f"alpha undefined for kind {self.kind}")

    @property
    def mu(self):
        if self.kind not in ("AffMetr", "MetrAff"):
            raise ConfigError(f"mu undefined for kind {self.kind}")
        return (self.I ** 2 - self.A ** 2) / self.I

    def trace_coefficient(self, n):
        """Denominator constant of the pbar^2 term: 2n(alpha + nB), or 2b."""
        if self.kind == "MetrMetr":
            return 2.0 * self.b
        al = self.alpha
        val = 2.0 * n * (al + n * self.B)
        if val == 0.0:
            raise ConfigError("alpha + nB must be nonzero")
        return val

    def kinetic_constants(self, n):
        """(cL, cQ, cM, cN, c_rho, c_tau) of the kinetic energy at size n,
            T = cL sum_a p_a^2 + cQ (sum_a p_a)^2
                + sum_{a<b} (cM M_ab^2 / dm_ab^2 + cN N_ab^2 / dn_ab^2)
                + c_rho |rho|^2 + c_tau |tau|^2,
        with |rho|^2 the sum of rho_ab^2 over a < b, likewise |tau|^2.
        dm and dn are sinh and cosh of (q_a - q_b)/2 (sin and cos for
        TrigUn, where cN = cM; cN = -cM for the hyperbolic kinds); for
        DAlembert they are Q_a -+ Q_b and p is conjugate to Q = exp(q).
        The one place that picks the kinetic constants by kind."""
        if self.kind == "DAlembert":
            c = 0.25 / self.I
            return 0.5 / self.I, 0.0, c, c, 0.0, 0.0
        alpha = self.alpha
        cM = 1.0 / (16.0 * alpha)
        c_rho = c_tau = 0.0
        if self.kind == "AffMetr":
            c_tau = 0.5 / self.mu
        elif self.kind == "MetrAff":
            c_rho = 0.5 / self.mu
        elif self.kind == "MetrMetr":
            c_rho, c_tau = 0.5 / self.c, 0.5 / self.d
        cQ = 1.0 / self.trace_coefficient(n) - 0.5 / (n * alpha)
        return (0.5 / alpha, cQ, cM, cM if self.kind == "TrigUn" else -cM,
                c_rho, c_tau)

    def to_json(self):
        """The kind and the constants it reads."""
        return {name: getattr(self, name) for name, key in MODEL_KEYS.items()
                if key.applies({"kind": self.kind})}

    @classmethod
    def from_json(cls, block):
        return cls(**walk(MODEL_KEYS, block, "model"))


# the constants each kind reads; the spectrum command adds hbar
_AB_KINDS = ("kind", ("AffAff", "AffMetr", "MetrAff", "TrigUn"))
MODEL_KEYS = table(
    ModelSpec, kind=Key(MODEL_KINDS),
    I=Key(float, when=("kind", ("DAlembert", "AffMetr", "MetrAff"))),
    A=Key(float, when=_AB_KINDS), B=Key(float, when=_AB_KINDS),
    **{name: Key(float, when=("kind", ("MetrMetr",))) for name in "abcd"})


@dataclass(frozen=True)
class PotentialSpec:
    """Dilatational potential V(qbar), qbar the mean of q.

    Depends on q only, so the (q, p, M, N) dynamics stays closed.
    """

    kind: str = "none"
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))
        if self.kind == "harmonic_well" and len(self.params) != 1:
            raise ConfigError("harmonic_well takes one parameter k")
        if self.kind == "box" and (len(self.params) != 1
                                   or self.params[0] <= 0):
            raise ConfigError("box takes one positive width parameter")
        if self.kind == "steep_oscillator":
            if len(self.params) != 2:
                raise ConfigError("steep_oscillator takes (k, exponent)")
            exponent = self.params[1]
            if exponent != int(exponent) or int(exponent) < 2 \
                    or int(exponent) % 2:
                raise ConfigError("steep_oscillator exponent must be an "
                                  "even integer >= 2")

    @classmethod
    def none(cls):
        return cls()

    @classmethod
    def harmonic_well(cls, k):
        return cls(kind="harmonic_well", params=(k,))

    @classmethod
    def box(cls, width):
        return cls(kind="box", params=(width,))

    @classmethod
    def steep_oscillator(cls, k, exponent):
        return cls(kind="steep_oscillator", params=(k, exponent))

    @property
    def is_trivial(self):
        return self.kind == "none"

    def dilatational_value(self, qbar):
        """V(qbar) for the library tag; qbar may be an array."""
        qbar = np.asarray(qbar, dtype=float)
        if self.kind == "none":
            return np.zeros_like(qbar)
        if self.kind == "harmonic_well":
            return 0.5 * self.params[0] * qbar ** 2
        if self.kind == "box":
            half = 0.5 * self.params[0]
            return np.where(np.abs(qbar) < half, 0.0, np.inf)
        k, exponent = self.params
        return k * qbar ** int(exponent)

    def dilatational_slope(self, qbar):
        """V'(qbar).  A float qbar is not converted to numpy, so that the
        harmonic well and the steep oscillator return a float for it."""
        if not isinstance(qbar, float):
            qbar = np.asarray(qbar, dtype=float)
        if self.kind == "none":
            return np.zeros_like(qbar)
        if self.kind == "harmonic_well":
            return self.params[0] * qbar
        if self.kind == "box":
            raise DomainError("box potential has no smooth gradient")
        k, exponent = self.params
        return k * int(exponent) * qbar ** (int(exponent) - 1)

    def value(self, q):
        """Total potential on q, batched over leading dimensions."""
        q = np.asarray(q, dtype=float)
        return self.dilatational_value(q.mean(axis=-1))

    def to_json(self):
        out = {"kind": self.kind}
        if self.params:
            out["params"] = list(self.params)
        return out

    @classmethod
    def from_json(cls, block):
        if block is None:
            return cls.none()
        return cls(**walk(POTENTIAL_KEYS, block, "potential"))


POTENTIAL_KEYS = table(PotentialSpec, kind=Key(POTENTIAL_KINDS),
                       params=Key([float], when=("kind", POTENTIAL_KINDS[1:])))


def wrap_angle(q):
    """Map angles into the (-pi, pi] convention; angles already there are
    returned bit for bit."""
    q = np.asarray(q, dtype=float)
    inside = (q > -np.pi) & (q <= np.pi)
    return np.where(inside, q, np.pi - np.mod(-q + np.pi, 2.0 * np.pi))


# ---------------------------------------------------------------------------
# kinetic energies, Hamiltonians, Casimir

def _pair_denominators(kind, q, M, N):
    """Per-pair inverse-square denominators with removable-singularity
    masking.  Returns (inv_m, inv_n, sign_n) where the M-coupling energy
    is sum M^2 * inv_m and the N-coupling energy is sign_n * sum N^2 * inv_n,
    each already including the removable-limit zeros.
    """
    n = q.shape[-1]
    off = ~np.eye(n, dtype=bool)
    x = q[..., :, None] - q[..., None, :]
    if kind == "DAlembert":
        Q = np.exp(q)
        dm = Q[..., :, None] - Q[..., None, :]
        dn = Q[..., :, None] + Q[..., None, :]
        singular = off & (np.abs(dm) < DEGENERACY_TOL
                          * np.maximum(Q[..., :, None], Q[..., None, :]))
        inv_n = 1.0 / dn ** 2
        sign_n = 1.0
    elif kind == "TrigUn":
        half = 0.5 * x
        sm = np.sin(half)
        cn = np.cos(half)
        singular = off & (np.abs(sm) < 0.5 * DEGENERACY_TOL)
        cos_singular = off & (np.abs(cn) < 0.5 * DEGENERACY_TOL)
        if np.any(cos_singular & (N != 0.0)):
            raise DegenerateInertia(
                "antipodal invariants q_a - q_b = pi with N coupling")
        cn_safe = np.where(cos_singular, 1.0, cn)
        inv_n = np.where(cos_singular, 0.0, 1.0 / cn_safe ** 2)
        dm = sm
        sign_n = 1.0
    else:
        half = 0.5 * x
        dm = np.sinh(half)
        dn = np.cosh(half)
        singular = off & (np.abs(x) < DEGENERACY_TOL)
        inv_n = 1.0 / dn ** 2
        sign_n = -1.0
    if np.any(singular & (M != 0.0)):
        raise DegenerateInertia(
            "coincident deformation invariants with nonzero M coupling")
    bad = singular | ~off
    dm_safe = np.where(bad, 1.0, dm)
    inv_m = np.where(bad, 0.0, 1.0 / dm_safe ** 2)
    inv_n = np.where(off, inv_n, 0.0)
    return inv_m, inv_n, sign_n


def kinetic_energy(model, q, p, M, N):
    """Kinetic term of the Hamiltonian; batched over leading dimensions."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.shape[-1]
    kind = model.kind
    if kind == "DAlembert":
        inv_m, inv_n, _ = _pair_denominators(kind, q, M, N)
        translational = 0.5 * np.sum(p ** 2 * np.exp(-2.0 * q), axis=-1) \
            / model.I
        coupling = np.sum(M ** 2 * inv_m + N ** 2 * inv_n, axis=(-2, -1)) \
            / (8.0 * model.I)
        return translational + coupling
    alpha = model.alpha
    ptot = p.sum(axis=-1)
    quad = 0.5 * (np.sum(p ** 2, axis=-1) - ptot ** 2 / n) / alpha
    trace_part = ptot ** 2 / model.trace_coefficient(n)
    inv_m, inv_n, sign_n = _pair_denominators(kind, q, M, N)
    coupling = np.sum(M ** 2 * inv_m + sign_n * N ** 2 * inv_n,
                      axis=(-2, -1)) / (32.0 * alpha)
    total = quad + trace_part + coupling
    if kind == "AffMetr":
        tau = -0.5 * (M + N)
        total = total + 0.5 * np.sum(tau ** 2, axis=(-2, -1)) / (2.0 * model.mu)
    elif kind == "MetrAff":
        rho = 0.5 * (N - M)
        total = total + 0.5 * np.sum(rho ** 2, axis=(-2, -1)) / (2.0 * model.mu)
    elif kind == "MetrMetr":
        rho = 0.5 * (N - M)
        tau = -0.5 * (M + N)
        total = total + 0.5 * np.sum(rho ** 2, axis=(-2, -1)) / (2.0 * model.c)
        total = total + 0.5 * np.sum(tau ** 2, axis=(-2, -1)) / (2.0 * model.d)
    return total


def hamiltonian(model, potential, state):
    """Total energy H = T + V at a reduced state."""
    value = kinetic_energy(model, state.q, state.p, state.M, state.N) \
        + potential.value(state.q)
    return float(value)


def casimir_csl2(state):
    """Quadratic Casimir of the special linear group in reduced variables;
    neither the mean momentum nor qbar enters."""
    return float(_casimir_arrays(state.q, state.p, state.M, state.N))


def _casimir_arrays(q, p, M, N):
    n = q.shape[-1]
    inv_m, inv_n, _ = _pair_denominators("AffAff", q, M, N)
    pdiff = p[..., :, None] - p[..., None, :]
    return (0.5 / n) * np.sum(pdiff ** 2, axis=(-2, -1)) \
        + np.sum(M ** 2 * inv_m - N ** 2 * inv_n, axis=(-2, -1)) / 16.0
