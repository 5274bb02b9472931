"""Output checks of the benchmark.

Each check compares a program output against a separate computation or
against a property the method must have, never against a stored copy of
an earlier output.  A check raises CheckFailed with the figure that broke
its tolerance; `selftest.py` feeds every check a deliberately wrong
answer to show that it rejects it.
"""

import numpy as np
import scipy.linalg

from affinebody import phase, poisson
from affinebody.phase import ModelSpec, PotentialSpec, ReducedState

HYPERBOLIC_KINDS = ("AffAff", "AffMetr", "MetrAff", "MetrMetr")

# relative energy drift of fixed-step RK4 and of RK45 at its default tolerance
RK4_DRIFT_TOL = 1e-8
RK45_DRIFT_TOL = 1e-6
# matrix-form H and C2 against the values the kernel wrote to the CSV
ENERGY_AGREEMENT_TOL = 1e-10
GEODESIC_TOL = 1e-6
SINGLE_VS_BATCH_TOL = 1e-12
PERIOD_TOL = 1e-4
ESCAPE_X = 20.0
DECOMP_TOL = 1e-10
BRACKET_TOL = 1e-12
# discrete Dirichlet Laplacian levels are known in closed form; the
# continuum levels differ from them by (k pi h / L)^2 / 12 relative
DISCRETE_LEVEL_TOL = 1e-9
CONTINUUM_COEF = 0.1
SPLITTING_TOL = 1e-10
# amended and raw weighted shear forms agree to second order in h:
# |raw - amended| / (h^2 max(1, level)) is 0.2 to 0.4 for the five lowest
# levels of the benchmark's problem, whatever the grid
SHEAR_ORDER_COEF = 1.0
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-10
WEIGHTED_SYMMETRY_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# classical orbits


def read_csv(path):
    """The benchmark's own reader: header list and float rows."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.split(",")]
                for line in fh if line.strip()]
    return header, np.array(rows)


def csv_header(n):
    pairs = [f"{a + 1}{b + 1}" for a in range(n) for b in range(a + 1, n)]
    return (["t"] + [f"q{a + 1}" for a in range(n)]
            + [f"p{a + 1}" for a in range(n)]
            + [f"M_{ab}" for ab in pairs] + [f"N_{ab}" for ab in pairs]
            + ["E", "C2"])


def state_from_packed(y, n):
    k = n * (n - 1) // 2
    return ReducedState(y[:n], y[n:2 * n], m_upper=y[2 * n:2 * n + k],
                        n_upper=y[2 * n + k:2 * n + 2 * k])


def reference_energies(model, potential, ys, n):
    """H and C2 from the matrix-form `phase.hamiltonian` and
    `phase.casimir_csl2`, which the equations-of-motion kernel does not
    use."""
    H = np.empty(len(ys))
    C = np.empty(len(ys))
    for i, y in enumerate(ys):
        st = state_from_packed(y, n)
        H[i] = phase.hamiltonian(model, potential, st)
        C[i] = phase.casimir_csl2(st)
    return H, C


def check_conservation(kind, n, y0, ys, H, C, drift_tol):
    """Energy drift, Casimir drift for the hyperbolic kinds, and for n = 2
    the exact constancy of M_12 and N_12."""
    drift = np.max(np.abs(H - H[0])) / max(1.0, abs(H[0]))
    require(drift <= drift_tol,
            f"{kind} n={n}: energy drift {drift:.2e} > {drift_tol:.0e}")
    if kind in HYPERBOLIC_KINDS:
        cdrift = np.max(np.abs(C - C[0])) / max(1.0, abs(C[0]))
        require(cdrift <= drift_tol,
                f"{kind} n={n}: Casimir drift {cdrift:.2e} > {drift_tol:.0e}")
    if n == 2:
        require(np.array_equal(ys[:, 4:6], np.broadcast_to(y0[4:6],
                                                           ys[:, 4:6].shape)),
                f"{kind} n=2: M_12 or N_12 changed")


def check_trajectory_csv(path, model_block, potential_block, initial, method):
    """Read a `simulate` artifact back and check it against the initial
    state and the conservation laws; returns the number of records after
    the first."""
    model = ModelSpec.from_json(model_block)
    potential = PotentialSpec.from_json(potential_block)
    y0 = np.concatenate([initial["q"], initial["p"],
                         initial["m_upper"], initial["n_upper"]])
    n = len(initial["q"])
    header, data = read_csv(path)
    require(header == csv_header(n), f"CSV header {header}")
    ys = data[:, 1:-2]
    require(np.array_equal(ys[0], y0), "first CSV row is not the initial state")
    require(np.all(np.diff(data[:, 0]) > 0.0), "CSV times not increasing")
    H, C = reference_energies(model, potential, ys, n)
    scale = max(1.0, np.max(np.abs(H)))
    require(np.max(np.abs(H - data[:, -2])) <= ENERGY_AGREEMENT_TOL * scale,
            f"{model.kind}: CSV energy column disagrees with phase.hamiltonian")
    if model.kind in HYPERBOLIC_KINDS:
        cscale = max(1.0, np.max(np.abs(C)))
        require(np.max(np.abs(C - data[:, -1])) <= ENERGY_AGREEMENT_TOL
                * cscale, f"{model.kind}: CSV C2 column disagrees with "
                "phase.casimir_csl2")
    check_conservation(model.kind, n, y0, ys, H, C,
                       RK4_DRIFT_TOL if method == "rk4" else RK45_DRIFT_TOL)
    return len(data) - 1


def check_ensemble(model, potential, n, y0, final, sample, singles):
    """Conservation on a sample of a batch, and sampled states integrated
    one at a time (`singles`, index -> final state) against the batch."""
    for i in sample:
        ys = np.stack([y0[i], final[i]])
        H, C = reference_energies(model, potential, ys, n)
        check_conservation(model.kind, n, y0[i], ys, H, C, RK4_DRIFT_TOL)
    for i, y in singles.items():
        err = np.max(np.abs(y - final[i])) / max(1.0, np.max(np.abs(y)))
        require(err <= SINGLE_VS_BATCH_TOL,
                f"{model.kind} n={n}: state {i} alone differs from the batch "
                f"by {err:.1e}")


# ---------------------------------------------------------------------------
# geodesics and attitudes


def geodesic_path(phi0, Omega, times):
    return [scipy.linalg.expm(Omega * t) @ phi0 for t in times]


def reduced_qp(phi, Omega, A, B):
    """(q, p) of the affinely-invariant model at (phi, Omega) from a plain
    SVD: q = log singular values, p_a = (L^T Sigma L)_aa with the affine
    spin Sigma = A Omega + B Tr(Omega) I.  Both are independent of the sign
    gauge of the singular vectors."""
    u, s, _ = np.linalg.svd(phi)
    n = len(s)
    sigma = A * Omega + B * np.trace(Omega) * np.eye(n)
    return np.log(s), np.einsum("ia,ij,ja->a", u, sigma, u)


def check_geodesic_report(report):
    require(report.get("verdict") == "PASS",
            f"geodesic verdict {report.get('verdict')}")
    require(report["max_error"] < GEODESIC_TOL,
            f"geodesic max_error {report['max_error']:.2e}")


def check_attitudes(model_block, phi0, Omega, times, samples, attitudes):
    """L diag(e^q) R^T must reproduce expm(Omega t) phi0, and the reduced
    (q, p) must match a plain SVD of it."""
    n = phi0.shape[0]
    exact = geodesic_path(phi0, Omega, times)
    A = model_block["A"]
    B = model_block.get("B", 0.0)
    worst = 0.0
    for k, phi in enumerate(exact):
        L, R = attitudes[k]
        q = samples[k, :n]
        rebuilt = L @ np.diag(np.exp(q)) @ R.T
        worst = max(worst, np.max(np.abs(rebuilt - phi)) / np.max(np.abs(phi)))
        q_ref, p_ref = reduced_qp(phi, Omega, A, B)
        worst = max(worst, np.max(np.abs(q - q_ref)),
                    np.max(np.abs(samples[k, n:2 * n] - p_ref)))
    require(worst < GEODESIC_TOL,
            f"attitudes differ from expm(Omega t) phi0 by {worst:.2e}")


# ---------------------------------------------------------------------------
# planar classification


def expected_verdict(m, n):
    am, an = abs(m), abs(n)
    if abs(am - an) <= 1e-12 * max(am, an, 1.0):
        return "Threshold"
    return "Bounded" if am < an else "Unbounded"


def check_classify_report(report, m, n, energy):
    want = expected_verdict(m, n)
    require(report["verdict"] == want,
            f"classify (m={m:g}, n={n:g}): verdict {report['verdict']}, "
            f"the |m| < |n| rule gives {want}")
    if want == "Bounded" and energy is not None:
        require(report["period"] is not None and report["period"] > 0.0,
                "bounded orbit with an energy has no period")


def crossings(t, v):
    """Times where v changes sign, each refined by a cubic through the
    four nearest samples."""
    out = []
    idx = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
    for i in idx:
        lo = max(0, min(i - 1, len(t) - 4))
        tt = t[lo:lo + 4]
        coef = np.polyfit(tt - t[i], v[lo:lo + 4], 3)
        roots = np.roots(coef)
        span = t[i + 1] - t[i]
        real = [r.real + t[i] for r in roots
                if abs(r.imag) < 1e-9 * span and -1e-9 <= r.real <= span * (1 + 1e-9)]
        out.append(real[0] if real else t[i])
    return np.array(out)


def check_planar_orbit(verdict, turning, period, times, x, px):
    """A bounded orbit started at the inner turning point stays between the
    turning points and returns after one period; an unbounded one escapes."""
    if verdict == "Unbounded":
        require(np.max(np.abs(x)) > ESCAPE_X,
                f"unbounded orbit stayed below |x| = {ESCAPE_X:g}")
        return
    require(verdict == "Bounded", f"orbit check got verdict {verdict}")
    x1, x2 = turning
    slack = 1e-6 * (x2 - x1)
    require(np.min(x) >= x1 - slack and np.max(x) <= x2 + slack,
            f"bounded orbit left [{x1:.6g}, {x2:.6g}]")
    ts = crossings(times, px)
    require(len(ts) >= 2, "bounded orbit did not return within the horizon")
    rel = abs(ts[1] - period) / period
    require(rel <= PERIOD_TOL,
            f"period {period:.10g} vs return time {ts[1]:.10g} "
            f"(relative {rel:.1e})")


# ---------------------------------------------------------------------------
# decompositions and brackets


def check_verdict_report(name, report):
    require(report.get("verdict") == "PASS",
            f"{name} verdict {report.get('verdict')}")


def check_two_polar_sample(phis, factors):
    """Each (L, q, R) against numpy.linalg.svd of its matrix."""
    for phi, (L, q, R) in zip(phis, factors):
        n = phi.shape[0]
        s = np.linalg.svd(phi, compute_uv=False)
        scale = s[0]
        require(np.max(np.abs(np.exp(q) - s)) <= DECOMP_TOL * scale,
                "two-polar singular values differ from numpy.linalg.svd")
        rebuilt = L @ np.diag(np.exp(q)) @ R.T
        require(np.max(np.abs(rebuilt - phi)) <= DECOMP_TOL * scale,
                "two-polar factors do not rebuild phi")
        for U in (L, R):
            require(np.max(np.abs(U.T @ U - np.eye(n))) <= DECOMP_TOL
                    and np.linalg.det(U) > 0.0, "two-polar factor not a rotation")


def bracket_table(state):
    """{q_a, p_b} and the so(n) brackets of M and N evaluated through
    `poisson.poisson_bracket`, with the values the relations prescribe."""
    n = state.n
    got, want = [], []
    for a in range(n):
        for b in range(n):
            got.append(poisson.poisson_bracket(
                poisson.coordinate_observable("q", n, a),
                poisson.coordinate_observable("p", n, b), state))
            want.append(1.0 if a == b else 0.0)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    d = lambda i, j: 1.0 if i == j else 0.0
    M, N = state.M, state.N
    # {X_ab, Y_cd} = -(d_bc Z_ad - d_ac Z_bd - d_bd Z_ac + d_ad Z_bc) with
    # Z = M for (X, Y) = (M, M) or (N, N) and Z = N for (M, N)
    for X, Y, Z in (("M", "M", M), ("N", "N", M), ("M", "N", N)):
        for a, b in pairs:
            for c, e in pairs:
                got.append(poisson.poisson_bracket(
                    poisson.coordinate_observable(X, n, a, b),
                    poisson.coordinate_observable(Y, n, c, e), state))
                want.append(-(d(b, c) * Z[a, e] - d(a, c) * Z[b, e]
                              - d(b, e) * Z[a, c] + d(a, e) * Z[b, c]))
    return np.array(got), np.array(want)


def check_bracket_relations(got, want):
    err = np.max(np.abs(got - want))
    require(err <= BRACKET_TOL, f"bracket relations off by {err:.2e}")


# ---------------------------------------------------------------------------
# spectra


def check_box_levels(eigenvalues, n, A, B, L, points, hbar=1.0):
    """Dirichlet box in the dilatation coordinate: the exact levels of the
    three-point stencil, and the continuum levels
    hbar^2 pi^2 k^2 / (2 n (A + n B) L^2) within a tolerance in h^2."""
    ev = np.asarray(eigenvalues, dtype=float)
    k = np.arange(1, ev.size + 1)
    h = L / (points + 1)
    mass = hbar ** 2 / (2 * n * (A + n * B))
    discrete = mass * 4.0 / h ** 2 * np.sin(k * np.pi / (2 * (points + 1))) ** 2
    continuum = mass * (np.pi * k / L) ** 2
    err = np.max(np.abs(ev - discrete) / discrete)
    require(err <= DISCRETE_LEVEL_TOL,
            f"box levels differ from the stencil's exact levels by {err:.1e}")
    rel = np.abs(ev - continuum) / continuum
    bound = CONTINUUM_COEF * (k * np.pi * h / L) ** 2
    require(np.all(rel <= bound), f"box levels off the continuum by "
            f"{np.max(rel / bound):.2f} of the h^2 bound")


def check_splitting(levels_s0, levels_s1, mu, hbar=1.0):
    gap = np.asarray(levels_s1) - np.asarray(levels_s0)
    err = np.max(np.abs(gap - hbar ** 2 / mu))
    require(err <= SPLITTING_TOL, f"MetrAff splitting off hbar^2/mu by {err:.1e}")


def check_shear_pair(amended, raw, h):
    amended = np.asarray(amended)
    diff = np.abs(np.asarray(raw) - amended)
    bound = SHEAR_ORDER_COEF * h ** 2 * np.maximum(1.0, np.abs(amended))
    require(np.all(diff <= bound), f"amended and raw shear levels differ by "
            f"{np.max(diff / bound):.2f} of the h^2 bound")


def check_exactly_hermitian(matrix):
    if hasattr(matrix, "toarray"):
        diff = abs(matrix - matrix.conj().T).max()
    else:
        diff = np.max(np.abs(matrix - matrix.conj().T))
    require(diff == 0.0, f"amended operator not exactly symmetric ({diff:.1e})")


def check_weighted_symmetry(matrix, weight):
    if hasattr(matrix, "toarray"):
        matrix = matrix.toarray()
    WH = np.asarray(matrix) * np.asarray(weight)[:, None]
    err = np.max(np.abs(WH - WH.conj().T)) / np.max(np.abs(WH))
    require(err <= WEIGHTED_SYMMETRY_TOL,
            f"raw weighted operator asymmetry {err:.1e}")


def check_eigenpairs(matrix, weight, values, vectors):
    """Residuals |H v - lambda v| and weighted orthonormality recomputed
    from the returned eigenpairs."""
    values = np.asarray(values)
    require(np.all(np.diff(values) >= -1e-12 * max(1.0, np.max(np.abs(values)))),
            "eigenvalues not ascending")
    HV = matrix @ vectors
    scale = max(np.max(np.abs(values)), 1e-30)
    res = np.linalg.norm(HV - vectors * values[None, :], axis=0) / (
        scale * np.linalg.norm(vectors, axis=0))
    require(np.max(res) <= RESIDUAL_TOL, f"eigen-residual {np.max(res):.1e}")
    W = np.ones(vectors.shape[0]) if weight is None else np.asarray(weight)
    G = vectors.conj().T @ (W[:, None] * vectors)
    err = np.max(np.abs(G - np.eye(G.shape[0])))
    require(err <= ORTHONORMALITY_TOL, f"eigenvectors not orthonormal ({err:.1e})")
