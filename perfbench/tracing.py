"""Spans and counts at the boundaries of the program's modules.

While a `Tracer` is installed, the public functions listed in `targets`
are replaced by wrappers that record one span per call: layer, name, start,
end, the enclosing span, the round and operation it belongs to, and a few
attributes read from the arguments or the result (batch size, model kind,
matrix dimension, bytes written).  Nothing in the program changes; the
wrappers are removed again by `uninstall`.  Spans stay in memory and are
written out once, by `write`.
"""

import gzip
import json
import os
import tracemalloc
from statistics import median
from time import perf_counter

import numpy as np


def _states(y):
    y = np.asarray(y)
    return y.size // y.shape[-1]


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _rhs(args, kwargs, result):
    kernel, y = args[0], args[1]
    return {"kind": kernel.kind, "n": kernel.n, "states": _states(y)}


def _integrate(args, kwargs, result):
    control = args[4] if len(args) > 4 else kwargs.get("control")
    method = "rk4" if control is None else control.method
    return {"method": method, "records": len(result.times)}


def _integrate_batch(args, kwargs, result):
    return {"states": _states(args[2])}


def _energies(args, kwargs, result):
    return {"states": _states(args[1])}


def _attitudes(args, kwargs, result):
    traj = args[1]
    return {"steps": (len(traj.times) - 1) * max(1, traj.control.record_every)}


def _two_polar(args, kwargs, result):
    return {"n": int(np.shape(args[0])[0])}


def _main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0], "exit": result}


def _operator(args, kwargs, result):
    """Size of the assembled operator as stored: dim^2 entries when dense,
    data plus index arrays when sparse."""
    mat = result.matrix
    if hasattr(mat, "nnz"):
        nnz = int(mat.nnz)
        nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    else:
        nnz = int(np.count_nonzero(mat))
        nbytes = mat.nbytes
    return {"dim": int(mat.shape[0]), "nnz": nnz, "bytes": nbytes}


# calls whose peak allocation is measured with tracemalloc
PEAK_TRACKED = ("quantum.eigensolve",)


def targets():
    """(owner, attribute, layer, describe) for every traced boundary; the
    owner is a module of the package or a class in one."""
    out = [
        ("cli", "main", "cli", _main),
        ("cli", "check_brackets", "cli", None),
        ("cli", "check_decomposition", "cli", None),
        ("cli", "geodesic_cross_check", "cli", None),
        ("io", "write_trajectory_csv", "io", _bytes_written),
        ("io", "write_json", "io", _bytes_written),
        ("io", "load_json", "io", None),
        ("dynamics", "integrate", "dynamics", _integrate),
        ("dynamics", "integrate_batch", "dynamics", _integrate_batch),
        ("dynamics.EomKernel", "__init__", "dynamics", None),
        ("dynamics.EomKernel", "rhs", "dynamics", _rhs),
        ("dynamics.EomKernel", "energies", "dynamics", _energies),
        ("dynamics", "reconstruct_attitudes", "dynamics", _attitudes),
        ("dynamics", "classify_planar", "dynamics", None),
        ("dynamics", "planar_state", "dynamics", None),
        ("dynamics", "reduced_state_from_velocity", "dynamics", None),
        ("dynamics", "geodesic_exponential", "dynamics", None),
        ("poisson", "poisson_bracket", "poisson", None),
        ("poisson", "bracket_observable", "poisson", None),
        ("poisson", "coordinate_observable", "poisson", None),
        ("quantum", "build_reduced_hamiltonian", "quantum", _operator),
        ("quantum", "eigensolve", "quantum", None),
        ("phase.ModelSpec", "from_json", "phase", None),
        ("phase.PotentialSpec", "from_json", "phase", None),
        ("phase.ReducedState", "__init__", "phase", None),
        ("phase", "hamiltonian", "phase", None),
        ("phase", "casimir_csl2", "phase", None),
        ("kinematics", "polar_decompose", "kinematics", None),
    ]
    # dynamics calls the decompositions through names it imported itself
    for owner in ("kinematics", "dynamics"):
        out.append((owner, "two_polar", "kinematics", _two_polar))
        out.append((owner, "align_two_polar", "kinematics", None))
    return out


def _resolve(modules, path):
    module, *rest = path.split(".")
    owner = modules[module]
    for name in rest:
        owner = getattr(owner, name, None)
    return owner


class Tracer:
    """Span recorder.  A span is the list
    [layer, name, parent, start, end, round, op, attrs]."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.active = False
        self.round = None
        self.op = None
        self._saved = []

    def _wrap(self, func, layer, name, describe):
        tracer = self
        peak = name in PEAK_TRACKED

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = [layer, name, tracer.stack[-1] if tracer.stack else -1,
                    0.0, 0.0, tracer.round, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if peak:
                tracemalloc.start()
            span[3] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
                if peak:
                    span[7] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if describe is not None:
                try:
                    span[7] = describe(args, kwargs, result)
                except Exception:  # a figure is lost, never the call
                    pass
            return result

        return traced

    def install(self):
        """Wrap every target the package has; a target it no longer has is
        skipped, and its figures read 0."""
        for path, attr, layer, describe in targets():
            owner = _resolve(self.modules, path)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                continue
            name = f"{path}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name, describe))
            else:
                new = self._wrap(raw, layer, name, describe)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        self.active = True

    def uninstall(self):
        self.active = False
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def mark(self, round_key, op_label):
        self.round = round_key
        self.op = op_label

    def span(self, layer, name):
        """Record a span around a block of the benchmark itself."""
        return _BlockSpan(self, layer, name)

    def write(self, path):
        keys = ("layer", "name", "parent", "start", "end", "round", "op", "attrs")
        with gzip.open(path, "wt") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(zip(keys, span), id=i)) + "\n")


class _BlockSpan:
    def __init__(self, tracer, layer, name):
        self.tracer = tracer
        self.record = [layer, name, -1, 0.0, 0.0, None, None, None]

    def __enter__(self):
        t = self.tracer
        rec = self.record
        rec[2] = t.stack[-1] if t.stack else -1
        rec[5], rec[6] = t.round, t.op
        t.stack.append(len(t.spans))
        t.spans.append(rec)
        rec[3] = perf_counter()
        return rec

    def __exit__(self, *exc):
        self.record[4] = perf_counter()
        self.tracer.stack.pop()
        return False


# ---------------------------------------------------------------------------
# per-layer figures


RHS = "dynamics.EomKernel.rhs"


class _Index:
    """One pass over the spans: self times, RHS children per span, and the
    spans of each traced round."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        self.rhs_children = [0] * len(spans)
        self.rounds = {}
        for i, s in enumerate(spans):
            p = s[2]
            if p >= 0:
                child[p] += self.dur[i]
                if s[1] == RHS:
                    self.rhs_children[p] += 1
            if s[5] is not None:
                self.rounds.setdefault(s[5], []).append(i)
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def per_pass(self, value, select, workloads):
        """Sum over the workloads of the median, over that workload's
        traced rounds, of the per-round sum of value(i) over the selected
        spans i: the figure for one traced pass of the whole benchmark."""
        total = 0.0
        for w in workloads:
            sums = [sum(value(i) for i in idx if select(self.spans[i]))
                    for key, idx in self.rounds.items() if key[0] == w]
            total += median(sums) if sums else 0.0
        return total

    def mean(self, select, weight=None):
        """Pooled duration per call (or per unit of `weight`) in seconds."""
        tot = cnt = 0.0
        for i, s in enumerate(self.spans):
            if select(s):
                tot += self.dur[i]
                cnt += 1.0 if weight is None else weight(s)
        return tot / cnt if cnt else 0.0





def _attr(span, key):
    """Attribute of a span; None when the call raised before it was read."""
    return (span[7] or {}).get(key)


def layer_metrics(spans, workloads, kinds, dims, commands, problems, layers):
    """Per-layer metrics, named `<module>.<what>[.<case>]`, with units.

    Per-call figures pool every traced call.  Per-round figures (self
    times, counts, bytes) are given for one traced pass of the benchmark:
    one round of each workload, each the median over its traced rounds."""
    ix = _Index(spans)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def per_pass(value, select):
        return ix.per_pass(value, select, workloads)

    named = lambda name: (lambda s: s[1] == name)
    one = lambda i: 1.0
    dur = lambda i: ix.dur[i]

    for layer in layers:
        in_layer = lambda s, l=layer: s[0] == l
        put(f"{layer}.self_s", per_pass(lambda i: ix.self_time[i], in_layer), "s")
        put(f"{layer}.calls", per_pass(one, in_layer), "count")

    for cmd in commands:
        put(f"cli.main_s.{cmd}", ix.mean(
            lambda s, c=cmd: s[1] == "cli.main" and _attr(s, "command") == c), "s")

    csv = named("io.write_trajectory_csv")
    put("io.write_trajectory_csv_s", per_pass(dur, csv), "s")
    put("io.csv_mib", per_pass(lambda i: _attr(spans[i], "bytes"), csv) / 2 ** 20, "MiB")
    put("io.write_json_s", per_pass(dur, named("io.write_json")), "s")

    rhs = {}
    for i, s in enumerate(spans):
        if s[1] == RHS:
            a = s[7]
            if a is None:
                continue
            key = (a["kind"], a["n"], "bN" if a["states"] > 1 else "b1")
            tot, states = rhs.get(key, (0.0, 0))
            rhs[key] = (tot + ix.dur[i], states + a["states"])
    for kind in kinds:
        for n in dims:
            for tag in ("b1", "bN"):
                tot, states = rhs.get((kind, n, tag), (0.0, 0))
                put(f"dynamics.rhs_us_per_state.{kind}.n{n}.{tag}",
                    1e6 * tot / states if states else 0.0, "us")
    put("dynamics.rhs_calls", per_pass(one, named(RHS)), "count")

    def self_us_per_step(select, stages):
        spent = steps = 0.0
        for i, s in enumerate(spans):
            if select(s):
                spent += ix.self_time[i]
                steps += ix.rhs_children[i] / stages
        return 1e6 * spent / steps if steps else 0.0

    put("dynamics.rk4_driver_us_per_step", self_us_per_step(
        lambda s: s[1] == "dynamics.integrate_batch" and _attr(s, "states") == 1, 4), "us")
    rk45 = lambda s: s[1] == "dynamics.integrate" and _attr(s, "method") == "rk45"
    accepted = lambda i: _attr(spans[i], "records") - 1.0
    put("dynamics.rk45_accepted_steps", per_pass(accepted, rk45), "count")
    put("dynamics.rk45_rejected_steps",
        per_pass(lambda i: ix.rhs_children[i] / 7.0 - accepted(i), rk45), "count")
    put("dynamics.rk45_driver_us_per_step", self_us_per_step(rk45, 7), "us")

    put("dynamics.reconstruct_attitudes_us_per_step", 1e6 * ix.mean(
        named("dynamics.reconstruct_attitudes"), lambda s: _attr(s, "steps")), "us")
    put("dynamics.energies_us_per_state", 1e6 * ix.mean(
        named("dynamics.EomKernel.energies"), lambda s: _attr(s, "states")), "us")
    for name in ("classify_planar", "reduced_state_from_velocity",
                 "geodesic_exponential"):
        put(f"dynamics.{name}_us", 1e6 * ix.mean(named(f"dynamics.{name}")), "us")

    for n in dims:
        put(f"kinematics.two_polar_us.n{n}", 1e6 * ix.mean(
            lambda s, n=n: s[1].endswith(".two_polar") and _attr(s, "n") == n), "us")
    put("kinematics.polar_decompose_us",
        1e6 * ix.mean(named("kinematics.polar_decompose")), "us")
    put("kinematics.align_two_polar_us",
        1e6 * ix.mean(lambda s: s[1].endswith(".align_two_polar")), "us")

    put("poisson.poisson_bracket_us", 1e6 * ix.mean(named("poisson.poisson_bracket")), "us")
    put("poisson.bracket_observable_us",
        1e6 * ix.mean(named("poisson.bracket_observable")), "us")

    for problem in problems:
        mine = lambda s, p=problem: (s[5] is not None and s[5][0] == "spectra"
                                     and s[6] == p)
        build = lambda s, m=mine: m(s) and s[1] == "quantum.build_reduced_hamiltonian"
        solve = lambda s, m=mine: m(s) and s[1] == "quantum.eigensolve"
        put(f"quantum.assemble_s.{problem}", ix.mean(build), "s")
        put(f"quantum.eigensolve_s.{problem}", ix.mean(solve), "s")
        info = next((s[7] for s in spans if build(s)), None) or {}
        peak = next((s[7] for s in spans if solve(s)), None) or {}
        put(f"quantum.dim.{problem}", info.get("dim", 0), "count")
        put(f"quantum.nnz.{problem}", info.get("nnz", 0), "count")
        put(f"quantum.matrix_mib.{problem}", info.get("bytes", 0) / 2 ** 20, "MiB")
        put(f"quantum.solve_peak_mib.{problem}",
            peak.get("peak_bytes", 0) / 2 ** 20, "MiB")
    return out
