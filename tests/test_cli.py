import json
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affinebody import cli, dynamics, io, quantum, schema
from affinebody.phase import MODEL_KINDS, ModelSpec, PotentialSpec

from test_dynamics import WALL_CROSSING

SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("m", [1.0, 0.0])
    @pytest.mark.parametrize("energy", [0.02, 0.0])
    def test_energy_at_or_above_escape_level(self, tmp_path, capsys, m,
                                             energy):
        # V_eff -> 0- as x grows: no outer turning point, so no search
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(tmp_path, "classify",
                       {"m": m, "n": 2.0, "energy": energy})
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == 0
        assert "verdict=Bounded" in captured.out
        assert "period=" not in captured.out
        report = io.load_json(tmp_path / "classify.json")
        assert report["verdict"] == "Bounded"
        assert report["energy"] == energy
        assert report["turning_points"] is None
        assert report["period"] is None
        assert report["x_min"] == 2.0 * np.arctanh(np.sqrt(m / 2.0))

    def test_tiny_m_orbit(self, tmp_path, capsys):
        # |m|/|n| = 1e-26 puts x_min below the x = 0 guard of V_eff
        code = run(tmp_path, "classify",
                   {"m": 1e-26, "n": 1.0, "energy": -0.01})
        assert code == 0
        assert "period=31.4159" in capsys.readouterr().out
        report = io.load_json(tmp_path / "classify.json")
        assert len(report["turning_points"]) == 2

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

    def test_nonfinite_rk4_state(self, tmp_path, capsys):
        # RK4 steps this state across a wall, where it turns NaN: exit 4
        # with one error line naming the time, no warning and no CSV
        s = WALL_CROSSING
        config = {"model": {"kind": "TrigUn", "A": 1.3, "B": 0.4},
                  "potential": {"kind": "harmonic_well", "params": [1.5]},
                  "initial": {"q": s.q.tolist(), "p": s.p.tolist(),
                              "M": s.M.tolist(), "N": s.N.tolist()},
                  "numerics": {"t_end": 5.0, "step": 0.0025,
                               "record_every": 10}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(tmp_path, "simulate", config)
        assert caught == []
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: RK4 state turned non-finite at t = 3.9\n"
        assert not (tmp_path / "trajectory.csv").exists()

    def test_sinh_overflow(self, tmp_path, capsys):
        # sinh of the half difference 711 overflows in math, as it turns
        # inf in numpy: the one state ends as a non-finite step, exit 4
        config = {"model": {"kind": "AffAff", "A": 1.0, "B": 0.0},
                  "initial": {"q": [711.0, -711.0], "p": [0.0, 0.0],
                              "M": [[0.0, 0.5], [-0.5, 0.0]]},
                  "numerics": {"t_end": 0.1, "step": 0.01,
                               "record_every": 5}}
        assert run(tmp_path, "simulate", config) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: RK4 state turned non-finite at t = 0.05\n"

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
        # the echoed problem block carries the constants AffAff reads, and
        # re-parses to the same levels
        assert report["problem"]["model"] == {"kind": "AffAff", "A": 1.0,
                                              "B": 0.5, "hbar": 1.0}
        again = {"problem": report["problem"], "count": 5,
                 "output": {"path": "again.json"}}
        assert run(tmp_path, "spectrum", again) == 0
        assert io.load_json(tmp_path / "again.json")["eigenvalues"] == ev

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

    def test_banded_solver_recorded(self, tmp_path, capsys):
        config = self.config(points=16)
        config["problem"]["coordinate"] = "full"
        assert run(tmp_path, "spectrum", config) == 0
        report = io.load_json(tmp_path / "spectrum.json")
        solver = report["solver"]
        assert solver["path"] == "banded"
        assert solver["dim"] == 16 * 15 // 2
        assert solver["bandwidth"] == 15
        assert solver["shift"] < report["eigenvalues"][0]
        # the summary line does not show the new keys
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
        # of the table varies.  Its second and third levels are a doublet;
        # eigensolve starts ARPACK from a fixed vector, so a second solve
        # returns the same basis of it
        problem = {"n": 3, "model": {"kind": "AffAff", "A": 1.0, "B": 0.5},
                   "alpha_label": 0.5, "beta_label": 0.5,
                   "coordinate": "full", "q_min": -2.0, "q_max": 2.0,
                   "points": 16}
        config = {"problem": problem, "count": 3, "eigenvectors": True}
        assert run(tmp_path, "spectrum", config) == 0
        lines = (tmp_path / "spectrum_vectors.csv").read_text().splitlines()
        assert lines[0] == "level,node,m_row,k_col,real,imag"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        # the chamber's C(16, 3) nodes q_1 < q_2 < q_3, each named by its
        # row-major index in the 16^3 lattice
        nodes = 16 * 15 * 14 // 6
        assert rows.shape == (3 * nodes * 4, 6)
        level, node, m_row, k_col = rows[:, :4].astype(int).T
        index = np.array(np.unravel_index(node, (16,) * 3))
        assert np.all((index[0] < index[1]) & (index[1] < index[2]))
        chamber = np.unique(node)
        assert chamber.size == nodes
        vectors = np.zeros((nodes * 4, 3), dtype=complex)
        vectors[np.searchsorted(chamber, node) * 4 + m_row * 2 + k_col,
                level] = rows[:, 4] + 1j * rows[:, 5]
        problem["model"] = ModelSpec(kind="AffAff", A=1.0, B=0.5)
        spec = quantum.eigensolve(quantum.build_reduced_hamiltonian(
            quantum.SpectralProblem(**problem)), 3)
        assert np.allclose(vectors, spec.eigenvectors, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("problem, named", [
        # V(qbar) is infinite at the full-grid nodes outside the box, and
        # ARPACK used to fail on them with a traceback
        ({"model": {"kind": "AffAff", "A": 1.0, "B": 0.3},
          "alpha_label": 1.0, "coordinate": "full", "q_min": -2.0,
          "q_max": 2.0, "points": 20,
          "potential": {"kind": "box", "params": [1.0]}}, "box potential"),
        # the wrapped edge of a grid short of 2 pi joined points whose
        # weight and couplings differ, and the run exited 0
        ({"model": {"kind": "TrigUn", "A": 1.0, "B": 0.3},
          "beta_label": 2.0, "coordinate": "shear", "q_min": 0.3,
          "q_max": np.pi - 0.3, "points": 100,
          "use_amended_transform": False}, "q_min = 0.3, q_max = 2.84159"),
    ], ids=["box-narrower-than-full-grid", "periodic-grid-short-of-2pi"])
    def test_grid_rejected(self, tmp_path, capsys, problem, named):
        config = {"problem": dict(problem, n=2), "count": 5}
        assert run(tmp_path, "spectrum", config) == 2
        captured = capsys.readouterr()
        line, = captured.err.splitlines()
        assert line.startswith("error: ") and named in line
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "spectrum.json").exists()


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

    @pytest.mark.parametrize("samples", [11, 7])
    def test_max_error_of_every_step_run(self, tmp_path, samples):
        # the check records only the states it compares when they fall on
        # whole steps (every 100th of 1000 at 11 samples); 6 does not
        # divide 1000, so 7 samples record every step.  Either way
        # max_error is that of an every-step run, with the exponential
        # taken at the integrated time nearest each sample, so it stays at
        # rounding level even where the samples miss the steps
        config = io.load_json(SHIPPED / "geodesic_n3.json")
        config["numerics"].update(samples=samples)
        assert run(tmp_path, "geodesic", config) == 0
        report = io.load_json(tmp_path / "geodesic.json")
        assert report["max_error"] < 1e-12

        model = ModelSpec(**config["model"])
        phi0, Omega = (np.array(config["initial"][k])
                       for k in ("phi0", "Omega"))
        state0, ref = dynamics.reduced_state_from_velocity(phi0, Omega,
                                                           model)
        traj = dynamics.integrate(model, PotentialSpec.none(), state0, 1.0,
                                  dynamics.StepControl(step=1e-3))
        assert len(traj.times) == 1001
        expected = 0.0
        for t in np.linspace(0.0, 1.0, samples):
            k = int(np.argmin(np.abs(traj.times - t)))
            phi = dynamics.geodesic_exponential(phi0, Omega,
                                                traj.times[k]).phi
            extracted, ref = dynamics.reduced_state_from_velocity(
                phi, Omega, model, reference=ref)
            integ = traj.state(k)
            for a, b in ((extracted.q, integ.q), (extracted.p, integ.p),
                         (extracted.M, integ.M), (extracted.N, integ.N)):
                expected = max(expected, float(np.max(np.abs(a - b))))
        assert report["max_error"] == expected

    @pytest.mark.parametrize("kind", [k for k in MODEL_KINDS
                                      if k != "AffAff"])
    def test_other_kinds_rejected(self, tmp_path, capsys, kind):
        # the velocity extraction is coded for AffAff only
        config = json.loads(json.dumps(BASES["geodesic"]))
        config["model"]["kind"] = kind
        assert run(tmp_path, "geodesic", config) == 2
        captured = capsys.readouterr()
        assert "config.model key 'kind'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestShippedConfigs:
    # max_residual and max_error are matched by format and bound: their
    # last digits depend on the LAPACK build
    @pytest.mark.parametrize("name,command,line", [
        ("classify_planar.json", "classify",
         r"classify: verdict=Bounded m=1 n=2 period=22\.2144"),
        ("geodesic_n3.json", "geodesic",
         r"geodesic: max_error=(?P<err>\d\.\d{3}e[+-]\d\d) verdict=PASS"),
        ("spectrum_box.json", "spectrum",
         r"spectrum: count=5 eigenvalues=\[0\.308424174, 1\.23368513, "
         r"2\.77574816, 4\.93455545, 7\.71002602\] "
         r"max_residual=(?P<res>\d\.\d{3}e[+-]\d\d)"),
    ], ids=["classify_planar.json-classify", "geodesic_n3.json-geodesic",
            "spectrum_box.json-spectrum"])
    def test_example_config_runs(self, tmp_path, capsys, name, command,
                                 line):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" \
            / name
        code = cli.main([command, "--config", str(cfg), "--output-dir",
                         str(tmp_path)])
        assert code == 0
        match = re.fullmatch(line + r" artifact=\S+\n",
                             capsys.readouterr().out)
        assert match
        assert float(match.groupdict().get("err", 0.0)) < 1e-6
        assert float(match.groupdict().get("res", 0.0)) < 1e-10


# one small valid config per command
BASES = {
    "simulate": {
        "command": "simulate",
        "model": {"kind": "AffAff", "A": 1.0, "B": 0.0},
        "potential": {"kind": "harmonic_well", "params": [0.5]},
        "initial": {"q": [0.3, -0.3], "p": [0.1, 0.0],
                    "M": [[0.0, 0.2], [-0.2, 0.0]],
                    "N": [[0.0, 0.1], [-0.1, 0.0]]},
        "numerics": {"t_end": 0.01, "step": 0.001, "method": "rk4",
                     "record_every": 5},
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
                                      "hbar": 1.0},
                    "alpha_label": 0.0, "beta_label": 0.0,
                    "coordinate": "dilatation", "q_min": -1.0, "q_max": 1.0,
                    "points": 16,
                    "potential": {"kind": "box", "params": [2.0]},
                    "use_amended_transform": True},
        "count": 2, "eigenvectors": False},
    "check-brackets": {"seed": 1, "trials": 1, "n": 2},
    "check-decomp": {"seed": 1, "trials": 2, "dims": [2, 3],
                     "cond_max": 10.0},
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


def _table_keys(keys, prefix=()):
    """(key path, Key, its table) of every key of a config table, nested
    ones too."""
    for name, key in keys.items():
        yield prefix + (name,), key, keys
        if isinstance(key.type, dict):
            yield from _table_keys(key.type, prefix + (name,))


# keys that some block of some command accepts
KNOWN_KEYS = {path[-1] for _, keys in cli.COMMANDS.values()
              for path, _, _ in _table_keys(keys)}
# (command, key path, Key, its table) of every key with a range
RANGED = [(command, path, key, siblings)
          for command, (_, keys) in cli.COMMANDS.items()
          for path, key, siblings in _table_keys(keys) if key.range]
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


# (command, block, content merged into it, the key the error names)
IGNORED = [
    # once accepted and then ignored
    ("simulate", "output", {"format": 1}, "format"),
    ("simulate", "model", {"m": 1}, "m"),
    ("simulate", "model", {"I1": 1}, "I1"),
    ("simulate", "model", {"I2": 1}, "I2"),
    ("simulate", "numerics", {"tolerance": 1}, "tolerance"),
    ("simulate", "numerics", {"samples": 1}, "samples"),
    ("geodesic", "numerics", {"method": 1}, "method"),
    ("geodesic", "numerics", {"record_every": 1}, "record_every"),
    ("geodesic", "numerics", {"rtol": 1}, "rtol"),
    ("geodesic", "numerics", {"atol": 1}, "atol"),
    # outside the scope of the chosen method, kind or command
    ("simulate", "numerics", {"method": "rk45"}, "record_every"),
    ("simulate", "numerics", {"rtol": 1e-8}, "rtol"),
    ("simulate", "numerics", {"atol": 1e-10}, "atol"),
    ("simulate", None, {"seed": 1}, "seed"),
    ("geodesic", None, {"seed": 1}, "seed"),
    ("classify", None, {"seed": 1}, "seed"),
    ("spectrum", None, {"seed": 1}, "seed"),
    ("simulate", "model", {"I": 1.0}, "I"),
    ("simulate", "model", {"kind": "TrigUn", "I": 1.0}, "I"),
    ("simulate", "model", {"a": 1.0}, "a"),
    ("simulate", "model", {"b": 1.0}, "b"),
    ("simulate", "model", {"c": 1.0}, "c"),
    ("simulate", "model", {"d": 1.0}, "d"),
    ("simulate", "model", {"kind": "DAlembert", "I": 1.0, "B": None},
     "A"),
    ("simulate", "model", {"kind": "DAlembert", "I": 1.0, "A": None},
     "B"),
    ("simulate", "model", {"hbar": 1.0}, "hbar"),
    ("geodesic", "model", {"hbar": 1.0}, "hbar"),
    ("spectrum", "problem", {"model": {"kind": "AffAff", "A": 1.0,
                                       "I": 1.0}}, "I"),
    ("simulate", "potential", {"kind": "none"}, "params"),
    # decided by other keys: the model kind and the labels
    ("spectrum", "problem", {"boundary": "dirichlet"}, "boundary"),
    ("spectrum", "problem", {"half_integer_labels": False},
     "half_integer_labels"),
]


class TestConfigParser:
    @pytest.mark.parametrize("command", sorted(BASES))
    def test_base_configs_run(self, tmp_path, command):
        assert run(tmp_path, command, BASES[command]) == 0

    @pytest.mark.parametrize("command,block,content,key", IGNORED, ids=[
        "-".join([command, block or "config"]
                 + [str(content[k]) for k in ("kind", "method")
                    if k in content and k != key]
                 + [key]) for command, block, content, key in IGNORED])
    def test_ignored_key_rejected(self, tmp_path, capsys, command, block,
                                  content, key):
        # `content` is merged into the block (None: the whole config); a
        # None value deletes the key
        config = json.loads(json.dumps(BASES[command]))
        target = config if block is None else config.setdefault(block, {})
        target.update(content)
        for name in [name for name, value in target.items() if value is None]:
            del target[name]
        assert run(tmp_path, command, config) == 2
        line, = capsys.readouterr().err.splitlines()
        assert repr(key) in line

    # n = 1 has no M, N or so(1) commutator term; no integer step count
    # spans 1e300 / 1e-300, nor a zero step
    @pytest.mark.parametrize("command,block,content,code", [
        ("simulate", "initial", {"q": [0.3], "p": [0.1], "M": None,
                                 "N": None}, 0),
        ("geodesic", "initial", {"phi0": [[1.2]], "Omega": [[0.3]]}, 0),
        ("simulate", "numerics", {"t_end": 1e300, "step": 1e-300}, 2),
        ("geodesic", "numerics", {"t_end": 1e300, "step": 1e-300}, 2),
        ("geodesic", "numerics", {"step": 0.0}, 2)])
    def test_fixed_step_runs(self, tmp_path, capsys, command, block,
                             content, code):
        config = json.loads(json.dumps(BASES[command]))
        config[block].update(content)
        assert run(tmp_path, command, config) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (code == 2)
        assert all("'t_end' / 'step' = " in line for line in err)

    @pytest.mark.parametrize("command", [
        c for c in sorted(BASES) if "seed" not in cli.COMMANDS[c][1]])
    def test_seed_flag_rejected(self, tmp_path, capsys, command):
        assert run(tmp_path, command, BASES[command], seed=1) == 2
        assert "'--seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,path,value", [
        ("check-brackets", ("n",), -1),
        ("check-brackets", ("n",), 0),
        ("check-brackets", ("trials",), 0),
        ("check-brackets", ("seed",), -1),
        ("check-decomp", ("dims",), [-2]),
        ("check-decomp", ("dims",), [2, 0]),
        ("check-decomp", ("trials",), -3),
        ("check-decomp", ("cond_max",), 0.5),
        ("geodesic", ("numerics", "samples"), 0),
        ("geodesic", ("numerics", "samples"), 1),
        ("geodesic", ("numerics", "tolerance"), 0.0),
        ("classify", ("A",), -1.0),
        ("classify", ("A",), 0.0),
    ])
    def test_out_of_range_exit_code(self, tmp_path, capsys, command, path,
                                    value):
        # each once ended in a traceback, or in a vacuous PASS
        config = json.loads(json.dumps(BASES[command]))
        _at(config, path[:-1])[path[-1]] = value
        assert run(tmp_path, command, config) == 2
        captured = capsys.readouterr()
        assert repr(path[-1]) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,path,key,siblings", RANGED, ids=[
        f"{c}:{'.'.join(p)}" for c, p, _, _ in RANGED])
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_out_of_range_draws(self, tmp_path, capsys, command, path, key,
                                siblings, data):
        op, bound = key.range.split()
        bound = float(bound)
        if key.type in (int, [int]):
            top = int(bound) - (1 if op == ">=" else 0)
            value = data.draw(st.integers(max_value=top))
        else:
            value = data.draw(st.floats(max_value=bound,
                                        exclude_max=op == ">=",
                                        allow_nan=False,
                                        allow_infinity=False))
        config = json.loads(json.dumps(BASES[command]))
        block = _at(config, path[:-1])
        if key.when is not None:
            # bring the key into scope, and its out-of-scope siblings out
            block[key.when[0]] = key.when[1][0]
            for name in [name for name in block
                         if not siblings[name].applies(block)]:
                del block[name]
        block[path[-1]] = [value] if isinstance(key.type, list) else value
        assert run(tmp_path, command, config) == 2
        assert repr(path[-1]) in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(BASES))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_config_exit_code(self, tmp_path, capsys, command,
                                        data):
        config = data.draw(malformed(BASES[command]))
        assert run(tmp_path, command, config) in (2, 3, 4)
        assert "error: " in capsys.readouterr().err


TYPE_NAMES = {float: "number", int: "integer", bool: "boolean",
              str: "string", schema.ARRAY: "numeric array", dict: "object"}


def _readme_row(path, key):
    """The README's key-reference row for one table key."""
    kind = key.type
    if isinstance(kind, tuple):
        kind = "one of " + ", ".join(f"`{json.dumps(v)}`" for v in kind)
    elif isinstance(kind, list):
        kind = f"array of {TYPE_NAMES[kind[0]]}s"
    else:
        kind = TYPE_NAMES[dict if isinstance(kind, dict) else kind]
    default = "required" if key.default is schema.REQUIRED \
        else f"`{json.dumps(key.default)}`"
    scope = "" if key.when is None else f"`{key.when[0]}`: " + ", ".join(
        f"`{json.dumps(v)}`" for v in key.when[1])
    rng = f"`{key.range}`" if key.range else ""
    return f"| `{'.'.join(path)}` | {kind} | {rng} | {default} | {scope} |"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_readme_key_reference(command):
    # the README's table for a command lists exactly the keys of its config
    # table, with their types, ranges, defaults and scopes
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split(f"### `{command}` keys\n", 1)[1].split("\n#", 1)[0]
    rows = {line for line in section.splitlines() if line.startswith("| `")}
    assert rows == {_readme_row(path, key) for path, key, _
                    in _table_keys(cli.COMMANDS[command][1])}
