import json
import re

import numpy as np
import pytest

from affinebody import cli, io


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
    ])
    def test_non_numeric_value_exit_code(self, tmp_path, block, key, value):
        bad = json.loads(json.dumps(self.BASE))
        bad[block][key] = value
        assert run(tmp_path, "simulate", bad) == 2


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
