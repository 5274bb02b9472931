"""Which scipy modules a fresh interpreter loads for each entry point.

scipy is imported in the functions that call it: importing the package
loads numpy only, and a command pays only for the scipy modules it runs.
Each case starts its own interpreter, since this one has scipy loaded.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import affinebody
from test_cli import BASES

SRC = pathlib.Path(affinebody.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"

# runs `body` and prints the sorted names of the loaded scipy modules
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
"""


def fresh(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def scipy_modules(body, cwd):
    proc = fresh(["-c", PROBE.format(body=body)], cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_modules(tmp_path, command, config=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config or BASES[command]))
    argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path),
            "--quiet"]
    body = f"from affinebody import cli\nassert cli.main({argv!r}) == 0"
    return scipy_modules(body, tmp_path)


@pytest.mark.parametrize("module", ["affinebody", "affinebody.checks",
                                    "affinebody.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_modules(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("command", ["simulate", "classify", "geodesic",
                                     "check-brackets", "check-decomp"])
def test_command_without_scipy(tmp_path, command):
    assert command_modules(tmp_path, command) == []


# the BASES spectrum, a 1-d Dirichlet grid, takes the tridiagonal path; the
# same problem on an n = 2 full grid takes the banded path: its bandwidth b
# meets b^2 <= 2 dim, and a banded Cholesky factor certifies a shift below
# the operator's floor.  That path still runs ARPACK in shift-invert mode,
# as does the "sparse" path it falls through to when the factor fails, and
# only ARPACK needs scipy.sparse.linalg
SPECTRA = {"spectrum": BASES["spectrum"],
           "spectrum-full": dict(BASES["spectrum"], problem=dict(
               BASES["spectrum"]["problem"], coordinate="full"))}
LOADS = [("spectrum", "scipy.sparse", True),
         ("spectrum", "scipy.linalg", True),
         ("spectrum", "scipy.sparse.linalg", False),
         ("spectrum-full", "scipy.sparse.linalg", True)]


@pytest.mark.parametrize("config, module, loaded", LOADS, ids=[
    f"{config}-{module}" if loaded else f"{config}-not-{module}"
    for config, module, loaded in LOADS])
def test_command_loads_its_scipy_module(tmp_path, config, module, loaded):
    modules = command_modules(tmp_path, "spectrum", SPECTRA[config])
    assert (module in modules) == loaded


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_config_runs(tmp_path, name):
    path = CONFIGS / f"{name}.json"
    command = json.loads(path.read_text())["command"]
    proc = fresh(["-m", "affinebody.cli", command, "--config", str(path),
                  "--output-dir", str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    line, = proc.stdout.splitlines()
    artifact = re.fullmatch(rf"{command}: .* artifact=(\S+)", line).group(1)
    assert pathlib.Path(artifact).is_file()
