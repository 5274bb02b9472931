"""The benchmark's self-test runs with the tier-1 suite.

perfbench/selftest.py shows every output check of the benchmark a right
answer and a wrong one; its ensemble case checks the library's own batch
RK4 output.  It imports the package from the checkout's src/, so it runs
in a fresh interpreter from the repository root.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
