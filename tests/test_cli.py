import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affinebody import cli, io, quantum
from affinebody.phase import ModelSpec


def run(tmp_path, command, config, seed=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv)


class TestClassify:
    def test_bounded_verdict(self, tmp_path, capsys):
        code = run(tmp_path, "classify", {"m": 1.0, "n": 2.0})
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict=Bounded" in out

    def test_unbounded_verdict(self, tmp_path, capsys):
        code = run(tmp_path, "classify", {"m": 2.0, "n": 1.0})
        assert code == 0
        assert "verdict=Unbounded" in capsys.readouterr().out

    def test_artifact_roundtrip(self, tmp_path):
        run(tmp_path, "classify", {"m": 1.0, "n": 2.0, "energy": -0.02})
        report = io.load_json(tmp_path / "classify.json")
        assert report["verdict"] == "Bounded"
        assert report["period"] > 0
        assert len(report["turning_points"]) == 2


class TestSimulate:
    BASE = {
        "model": {"kind": "AffAff", "A": 1.0, "B": 0.0},
        "initial": {"q": [0.3, -0.3], "p": [0.0, 0.0]},
        "numerics": {"t_end": 1.0, "step": 0.001, "record_every": 100},
    }

    def test_zero_data_constant_trajectory(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", self.BASE)
        assert code == 0
        assert "energy_drift=0.000e+00" in capsys.readouterr().out
        header, data = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "q1", "q2", "p1", "p2", "M_12", "N_12",
                          "E", "C2"]
        assert np.allclose(data[:, 1:7], data[0, 1:7])

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(self.BASE)
        bad["surprise"] = 1
        assert run(tmp_path, "simulate", bad) == 2

    def test_bad_model_exit_code(self, tmp_path):
        bad = dict(self.BASE)
        bad["model"] = {"kind": "Nope"}
        assert run(tmp_path, "simulate", bad) == 2

    def test_domain_error_exit_code(self, tmp_path):
        bad = dict(self.BASE)
        # coincident deformation with a nonzero coupling is singular
        bad["initial"] = {"q": [0.3, 0.3], "p": [0.0, 0.0],
                          "M": [[0.0, 1.0], [-1.0, 0.0]]}
        assert run(tmp_path, "simulate", bad) == 3

    def test_command_mismatch(self, tmp_path):
        bad = dict(self.BASE)
        bad["command"] = "classify"
        assert run(tmp_path, "simulate", bad) == 2

    @pytest.mark.parametrize("block,key,value", [
        ("initial", "q", "abc"),
        ("initial", "p", [0.0, None]),
        ("initial", "M", [[0.0, "x"], [0.0, 0.0]]),
        ("numerics", "t_end", "abc"),
        ("numerics", "record_every", 2.5),
        ("model", "A", "abc"),
        ("model", "hbar", [1.0]),
        ("potential", "params", ["abc"]),
        ("potential", "params", 2.0),
    ])
    def test_non_numeric_value_exit_code(self, tmp_path, block, key, value):
        bad = json.loads(json.dumps(self.BASE))
        bad.setdefault(block, {})[key] = value
        assert run(tmp_path, "simulate", bad) == 2

    def test_trig_angle_crosses_pi(self, tmp_path, capsys):
        # the TrigUn Hamiltonian is 2 pi-periodic in every angle: q1 runs
        # from 2.5 past pi and is recorded wrapped into (-pi, pi]
        config = {"model": {"kind": "TrigUn", "A": 1.0},
                  "initial": {"q": [2.5, -0.5], "p": [3.0, 0.0]},
                  "numerics": {"t_end": 2.0, "step": 0.01}}
        assert run(tmp_path, "simulate", config) == 0
        drift = float(re.search(r"energy_drift=(\S+)",
                                capsys.readouterr().out).group(1))
        assert drift <= 1e-8
        _, data = io.read_trajectory_csv(tmp_path / "trajectory.csv")
        q = data[:, 1:3]
        assert np.all((q > -np.pi) & (q <= np.pi))
        assert np.min(q[:, 0]) < 0.0    # q1 did cross pi


class TestSpectrum:
    def config(self, points=256):
        return {
            "problem": {
                "n": 2,
                "model": {"kind": "AffAff", "A": 1.0, "B": 0.5},
                "coordinate": "dilatation",
                "q_min": -1.0, "q_max": 1.0, "points": points,
                "boundary": "dirichlet",
                "potential": {"kind": "box", "params": [2.0]},
            },
            "count": 5,
        }

    def test_box_oracle(self, tmp_path):
        assert run(tmp_path, "spectrum", self.config()) == 0
        report = io.load_json(tmp_path / "spectrum.json")
        oracle = [(np.pi * k / 2.0) ** 2 / (2 * 2 * (1.0 + 2 * 0.5))
                  for k in range(1, 6)]
        ev = report["eigenvalues"]
        assert np.max(np.abs(np.array(ev) - oracle) / np.array(oracle)) \
            < 0.01
        assert report["boundary"] == "dirichlet"
        assert report["grid"]["points"] == 256
        # echoed problem block re-parses
        assert report["problem"]["model"]["kind"] == "AffAff"

    def test_numeric_error_exit_code(self, tmp_path):
        assert run(tmp_path, "spectrum", self.config(points=8)) == 4

    def test_solver_recorded(self, tmp_path, capsys):
        assert run(tmp_path, "spectrum", self.config()) == 0
        report = io.load_json(tmp_path / "spectrum.json")
        assert report["solver"] == {"path": "tridiagonal", "dim": 256,
                                    "nnz": 3 * 256 - 2}
        # the summary line keeps its fields
        assert re.fullmatch(r"spectrum: count=5 eigenvalues=\[[^]]*\] "
                            r"max_residual=\S+ artifact=\S+\n",
                            capsys.readouterr().out)

    @pytest.mark.parametrize("points", ["many", 64.5, None, True])
    def test_non_integer_points_exit_code(self, tmp_path, points):
        assert run(tmp_path, "spectrum", self.config(points=points)) == 2

    @pytest.mark.parametrize("count", ["abc", 2.5])
    def test_non_integer_count_exit_code(self, tmp_path, count):
        config = self.config()
        config["count"] = count
        assert run(tmp_path, "spectrum", config) == 2

    def test_non_numeric_grid_exit_code(self, tmp_path):
        config = self.config()
        config["problem"]["q_min"] = "low"
        assert run(tmp_path, "spectrum", config) == 2

    def test_integral_float_points_accepted(self, tmp_path):
        assert run(tmp_path, "spectrum", self.config(points=256.0)) == 0

    def test_non_numeric_model_constant_exit_code(self, tmp_path):
        config = self.config()
        config["problem"]["model"]["A"] = "abc"
        assert run(tmp_path, "spectrum", config) == 2

    def test_eigenvectors_csv(self, tmp_path):
        # an n = 3 grid with (2, 2) amplitude blocks, so that every column
        # of the table varies; its three lowest levels are simple
        problem = {"n": 3, "model": {"kind": "AffAff", "A": 1.0, "B": 0.5},
                   "alpha_label": 0.5, "beta_label": 0.5,
                   "half_integer_labels": True, "coordinate": "full",
                   "q_min": -2.0, "q_max": 2.0, "points": 16}
        config = {"problem": problem, "count": 3, "eigenvectors": True}
        assert run(tmp_path, "spectrum", config) == 0
        lines = (tmp_path / "spectrum_vectors.csv").read_text().splitlines()
        assert lines[0] == "level,node,m_row,k_col,real,imag"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        nodes = 16 ** 3
        assert rows.shape == (3 * nodes * 4, 6)
        level, node, m_row, k_col = rows[:, :4].astype(int).T
        vectors = np.zeros((nodes * 4, 3), dtype=complex)
        vectors[node * 4 + m_row * 2 + k_col, level] = \
            rows[:, 4] + 1j * rows[:, 5]
        problem["model"] = ModelSpec(kind="AffAff", A=1.0, B=0.5)
        spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(
            quantum.SpectralProblem(**problem)), 3)
        assert np.allclose(vectors, spec.eigenvectors, rtol=0.0, atol=1e-8)


class TestChecks:
    def test_brackets_single_trial(self, tmp_path):
        assert run(tmp_path, "check-brackets", {"trials": 1}, seed=5) == 0
        report = io.load_json(tmp_path / "brackets.json")
        assert report["max_residual"] < 1e-12
        assert report["verdict"] == "PASS"

    def test_brackets_reproducible(self, tmp_path):
        run(tmp_path, "check-brackets", {"trials": 5}, seed=11)
        first = (tmp_path / "brackets.json").read_text()
        run(tmp_path, "check-brackets", {"trials": 5}, seed=11)
        assert (tmp_path / "brackets.json").read_text() == first

    def test_decomp(self, tmp_path):
        assert run(tmp_path, "check-decomp", {"trials": 40}, seed=7) == 0
        report = io.load_json(tmp_path / "decomp.json")
        assert report["verdict"] == "PASS"

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["classify", "--config",
                         str(tmp_path / "absent.json")])
        assert code == 2


class TestGeodesicCommand:
    def test_cross_check(self, tmp_path, capsys):
        config = {
            "model": {"kind": "AffAff", "A": 1.3, "B": 0.4},
            "initial": {
                "phi0": [[1.2, 0.1, 0.0], [0.0, 1.0, 0.2],
                         [0.1, 0.0, 0.9]],
                "Omega": [[0.1, 0.4, -0.2], [-0.3, 0.0, 0.5],
                          [0.2, -0.1, -0.2]],
            },
            "numerics": {"t_end": 1.0, "step": 0.001, "samples": 6,
                         "tolerance": 1e-6},
        }
        assert run(tmp_path, "geodesic", config) == 0
        assert "verdict=PASS" in capsys.readouterr().out
        report = io.load_json(tmp_path / "geodesic.json")
        assert report["max_error"] < 1e-6


class TestShippedConfigs:
    @pytest.mark.parametrize("name,command", [
        ("classify_planar.json", "classify"),
        ("geodesic_n3.json", "geodesic"),
        ("spectrum_box.json", "spectrum"),
    ])
    def test_example_config_runs(self, tmp_path, name, command):
        import pathlib
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" \
            / name
        code = cli.main([command, "--config", str(cfg), "--output-dir",
                         str(tmp_path), "--quiet"])
        assert code == 0


# one small valid config per command
BASES = {
    "simulate": {
        "command": "simulate", "seed": 1,
        "model": {"kind": "AffAff", "A": 1.0, "B": 0.0},
        "potential": {"kind": "harmonic_well", "params": [0.5]},
        "initial": {"q": [0.3, -0.3], "p": [0.1, 0.0],
                    "M": [[0.0, 0.2], [-0.2, 0.0]],
                    "N": [[0.0, 0.1], [-0.1, 0.0]]},
        "numerics": {"t_end": 0.01, "step": 0.001, "method": "rk4",
                     "record_every": 5, "rtol": 1e-8, "atol": 1e-10},
        "output": {"path": "out.csv"}},
    "geodesic": {
        "model": {"kind": "AffAff", "A": 1.3, "B": 0.4},
        "initial": {"phi0": [[1.2, 0.1], [0.0, 0.9]],
                    "Omega": [[0.1, 0.4], [-0.3, 0.0]]},
        "numerics": {"t_end": 0.01, "step": 0.001, "samples": 2,
                     "tolerance": 1e-6}},
    "classify": {"m": 1.0, "n": 2.0, "A": 1.0, "energy": -0.02},
    "spectrum": {
        "problem": {"n": 2, "model": {"kind": "AffAff", "A": 1.0, "B": 0.5,
                                      "I": 1.0, "hbar": 1.0},
                    "alpha_label": 0.0, "beta_label": 0.0,
                    "coordinate": "dilatation", "q_min": -1.0, "q_max": 1.0,
                    "points": 16, "boundary": "dirichlet",
                    "potential": {"kind": "box", "params": [2.0]},
                    "use_amended_transform": True,
                    "half_integer_labels": False},
        "count": 2, "eigenvectors": False},
    "check-brackets": {"trials": 1, "n": 2},
    "check-decomp": {"trials": 2, "dims": [2, 3], "cond_max": 10.0},
}


def _paths(block, prefix=()):
    """Key paths of every value inside nested JSON objects."""
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


# keys some block accepts; the MetrMetr constants are the only ones that
# no base config sets
KNOWN_KEYS = {path[-1] for config in BASES.values()
              for path in _paths(config)} | {"a", "b", "c", "d"}
JSON_TYPES = {
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    str: st.text(max_size=5),
    list: st.lists(st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ANY_JSON = st.one_of(*JSON_TYPES.values())


def _json_type(value):
    return float if type(value) is int else type(value)


@st.composite
def malformed(draw, config):
    """The config with one key added that no block accepts, or with one
    value replaced by a value of another JSON type."""
    config = json.loads(json.dumps(config))
    if draw(st.booleans()):
        blocks = [()] + [path for path in _paths(config)
                         if isinstance(_at(config, path), dict)]
        block = _at(config, draw(st.sampled_from(blocks)))
        key = draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in KNOWN_KEYS))
        block[key] = draw(ANY_JSON)
        return config
    path = draw(st.sampled_from(list(_paths(config)) + [()]))
    kind = _json_type(_at(config, path))
    value = draw(st.one_of(*[strategy for t, strategy in JSON_TYPES.items()
                             if t is not kind]))
    if not path:
        return value
    _at(config, path[:-1])[path[-1]] = value
    return config


class TestConfigParser:
    @pytest.mark.parametrize("command", sorted(BASES))
    def test_base_configs_run(self, tmp_path, command):
        assert run(tmp_path, command, BASES[command]) == 0

    @pytest.mark.parametrize("command,block,key", [
        ("simulate", "output", "format"),
        ("simulate", "model", "m"),
        ("simulate", "model", "I1"),
        ("simulate", "model", "I2"),
        ("simulate", "numerics", "tolerance"),
        ("simulate", "numerics", "samples"),
        ("geodesic", "numerics", "method"),
        ("geodesic", "numerics", "record_every"),
        ("geodesic", "numerics", "rtol"),
        ("geodesic", "numerics", "atol"),
    ])
    def test_ignored_key_rejected(self, tmp_path, capsys, command, block,
                                  key):
        # keys that were once accepted and then ignored
        config = json.loads(json.dumps(BASES[command]))
        config[block][key] = 1
        assert run(tmp_path, command, config) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(BASES))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_config_exit_code(self, tmp_path, capsys, command,
                                        data):
        config = data.draw(malformed(BASES[command]))
        assert run(tmp_path, command, config) in (2, 3, 4)
        assert "error: " in capsys.readouterr().err
