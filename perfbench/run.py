"""Benchmark of `affinebody`: orbits, ensembles and spectra.

    python3 perfbench/run.py --workload {session,ensemble,spectra}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the workload's rounds run untraced for at least S seconds
(and at least three rounds) and the end-to-end metrics are reported.  With
`--trace 1` untraced and traced rounds of the workload alternate, followed
by one traced round of each other workload, and the per-layer metrics and
the tracing overhead are reported.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from statistics import median

import source

WORKLOADS = ("session", "ensemble", "spectra")
LAYERS = ("cli", "io", "dynamics", "kinematics", "poisson", "quantum", "phase")
MIN_ROUNDS = 3
TRACE_MIN_PAIRS = 2
# setup_s is the median of this process and SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 5
# no round starts that would be expected to end later than this after
# start-up, whatever --seconds asks for
DEADLINE_S = 140.0
OUT_DIR = ".perfbench_out"

# figures printed for a reader, next to the gated metrics: name -> (unit,
# operation families, "rate" = work per second or "time" = seconds per round)
FAMILY_FIGURES = {
    "session": {
        "simulate_steps_per_s": ("steps/s", ("simulate_rk4",), "rate"),
        "adaptive_steps_per_s": ("steps/s", ("simulate_rk45",), "rate"),
        "attitude_steps_per_s": ("steps/s", ("attitudes",), "rate"),
        "geodesic_checks_per_s": ("1/s", ("geodesic",), "rate"),
        "decomps_per_s": ("1/s", ("check_decomp",), "rate"),
        "brackets_per_s": ("1/s", ("check_brackets",), "rate"),
    },
    "ensemble": {
        "state_steps_per_s": ("state*steps/s", ("batch",), "rate"),
    },
    "spectra": {
        "dilatation_s": ("s", ("spectrum_dilatation", "spectrum_metraff_s0",
                               "spectrum_metraff_s1"), "time"),
        "shear_s": ("s", ("spectrum_shear_amended", "spectrum_shear_raw"), "time"),
        "grid2_s": ("s", ("spectrum_grid2",), "time"),
        "grid3_s": ("s", ("spectrum_grid3",), "time"),
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and make the inputs; print the time")
    return parser.parse_args(argv)


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.op_times = []        # seconds of each operation, in order
        self.failed = []          # (op, exception)
        self.problems = []        # failed output checks
        self.time = {}            # family -> seconds
        self.work = {}            # family -> work units

    @property
    def elapsed(self):
        return sum(self.op_times)

    @property
    def attempted(self):
        return len(self.op_times)


def run_round(ops, key, tracer=None):
    """Run every operation once, timing only the calls into the program;
    each result is checked right after its call, outside the timing."""
    rnd = Round()
    shared = {}
    for op in ops:
        if tracer is not None:
            tracer.mark(key, op.label)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("bench", op.family):
                    result = op.run()
        except Exception as exc:  # any failed operation is counted, not fatal
            rnd.op_times.append(time.perf_counter() - t0)
            rnd.failed.append((op, exc))
            continue
        dt = time.perf_counter() - t0
        rnd.op_times.append(dt)
        if tracer is not None:
            tracer.active = False
        try:
            work = op.check(result, shared)
            rnd.time[op.family] = rnd.time.get(op.family, 0.0) + dt
            rnd.work[op.family] = rnd.work.get(op.family, 0.0) + work
        except Exception as exc:
            rnd.problems.append(f"{op.label}: {exc}" if isinstance(
                exc, AssertionError) else f"{op.label}: {traceback.format_exc()}")
        finally:
            if tracer is not None:
                tracer.active = True
    return rnd


def report_failures(rounds):
    seen = set()
    for rnd in rounds:
        for op, exc in rnd.failed:
            if op.label in seen:
                continue
            seen.add(op.label)
            what = "expected failure" if op.expected_failure else "FAILED"
            print(f"{what}: {op.label}: {exc}", file=sys.stderr)
            if not op.expected_failure:
                traceback.print_exception(exc, file=sys.stderr)
        for problem in rnd.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)


def keep_going(rounds, started, seconds, minimum):
    now = time.perf_counter()
    if rounds and now - T0 + (now - started) / len(rounds) > DEADLINE_S:
        return False
    return len(rounds) < minimum or now - started < seconds


def family_figures(workload, rounds):
    out = {}
    for name, (unit, families, kind) in FAMILY_FIGURES[workload].items():
        if kind == "rate":
            t = sum(r.time.get(f, 0.0) for r in rounds for f in families)
            w = sum(r.work.get(f, 0.0) for r in rounds for f in families)
            value = w / t if t else 0.0
        else:
            value = median(sum(r.time.get(f, 0.0) for f in families) for r in rounds)
        out[name] = (value, unit)
    return out


def setup_probe(args):
    """Time a fresh process from start-up to inputs made, in this checkout."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=source.ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy
    threads = None
    try:
        import ctypes
        import glob
        libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*"))
        if libs:
            threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError):
        pass
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"BLAS threads {threads}")


def main(argv=None):
    args = parse_args(argv)
    try:
        source.use_checkout_source()
    except (source.MissingSource, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from affinebody import cli, dynamics, io, kinematics, phase, poisson, quantum
    import workloads

    out_root = os.path.join(source.ROOT, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root)
    try:
        names = WORKLOADS if args.trace else (args.workload,)
        ops = {w: workloads.build(w, source.ROOT, os.path.join(workdir, w), args.seed)
               for w in names}
        own_setup = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        modules = {"cli": cli, "io": io, "dynamics": dynamics,
                   "kinematics": kinematics, "poisson": poisson,
                   "quantum": quantum, "phase": phase}
        if args.trace:
            return traced_run(args, ops, modules, out_root)
        return plain_run(args, ops[args.workload], own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def emit(correct, rounds, metrics):
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(len(r.failed) for r in rounds),
                      "metrics": metrics}))
    return 0 if correct else 1


def plain_run(args, ops, own_setup):
    setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    rounds = []
    started = time.perf_counter()
    while keep_going(rounds, started, args.seconds, MIN_ROUNDS):
        rounds.append(run_round(ops, (args.workload, len(rounds))))
    report_failures(rounds)
    correct = not any(r.problems for r in rounds)
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_s": {"value": median(r.elapsed for r in rounds), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }
    print(f"# {environment()}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations in {time.perf_counter() - started:.1f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in family_figures(args.workload, rounds).items():
        print(f"{name} {value:.6g} {unit}")
    return emit(correct, rounds, metrics)


def traced_run(args, ops, modules, out_root):
    import tracing
    import workloads

    tracer = tracing.Tracer(modules)
    plain, traced = [], []
    started = time.perf_counter()
    while keep_going(traced, started, args.seconds, TRACE_MIN_PAIRS):
        plain.append(run_round(ops[args.workload], None))
        tracer.install()
        try:
            traced.append(run_round(ops[args.workload], (args.workload, len(traced)),
                                    tracer))
        finally:
            tracer.uninstall()
    # one traced round of every other workload, so that every per-layer
    # figure is measured whichever workload this run is for
    cover = []
    for w in WORKLOADS:
        if w != args.workload:
            tracer.install()
            try:
                cover.append(run_round(ops[w], (w, 0), tracer))
            finally:
                tracer.uninstall()
    report_failures(plain + traced + cover)
    unexpected = [op.label for r in cover for op, _ in r.failed
                  if not op.expected_failure]
    correct = not unexpected and not any(r.problems for r in plain + traced + cover)

    metrics = tracing.layer_metrics(tracer.spans, WORKLOADS, workloads.KINDS,
                                  workloads.DIMS, workloads.COMMANDS,
                                  workloads.PROBLEMS, LAYERS)
    base = median(r.elapsed for r in plain)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (median(r.elapsed for r in traced) / base - 1.0), "unit": "%"}
    path = os.path.join(out_root, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    tracer.write(path)
    print(f"# {environment()}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds, plus one traced round of each other "
          f"workload; {len(tracer.spans)} spans in {os.path.relpath(path, source.ROOT)}")
    for layer in LAYERS:
        print(f"{layer}: self {metrics[layer + '.self_s']['value']:.4g} s, "
              f"{metrics[layer + '.calls']['value']:.0f} calls per traced pass")
    return emit(correct, plain + traced, metrics)


if __name__ == "__main__":
    sys.exit(main())
