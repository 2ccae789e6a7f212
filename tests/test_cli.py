import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import empkit
import empkit.cli as cli
from empkit import OptimizerOptions, PendulumParams
from empkit.cli import main
from empkit.config import RunConfig, load_config


def write_config(tmp_path, **overrides):
    base = {
        "angle_count": 2,
        "velocity_count": 2,
        "max_iter": 20,
        "restarts": 2,
        "mc_samples": 8,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_defaults_give_standard_grid(self):
        cfg = RunConfig()
        assert cfg.angle_count == cfg.velocity_count == 41
        assert cfg.angle_min == -np.pi and cfg.angle_max == np.pi
        assert cfg.velocity_min == -8.0 and cfg.velocity_max == 8.0
        assert len(cfg.grid_states()) == 41 * 41

    def test_library_defaults(self):
        assert RunConfig().pendulum_params() == PendulumParams()
        assert RunConfig().optimizer_options() == OptimizerOptions()

    def test_grid_order_angle_fastest(self):
        cfg = RunConfig(angle_count=3, velocity_count=2)
        states = cfg.grid_states()
        assert states[0][1] == states[1][1] == states[2][1] == -8.0
        assert states[0][0] < states[1][0] < states[2][0]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"anglecount": 3}')
        with pytest.raises(ValueError):
            load_config(path)

    def test_step_size_key_is_config_error(self, tmp_path):
        # the quasi-Newton ascent takes no step size, so the key is unknown
        cfg = write_config(tmp_path, step_size=0.05)
        assert main(["landscape", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("angle_count", 3.5),
            ("velocity_count", "3"),
            ("oracle_actions", 16.0),
            ("oracle_bins", True),
            ("oracle_max_iter", None),
            ("oracle_bins", 0),
            ("oracle_action_range", 0),
            ("oracle_action_range", -4.0),
            ("max_iter", 2.5),
            ("grad_tol", float("nan")),
            ("mass", "1.0"),
            ("dt", float("inf")),
            ("noise_std", 0.1),
            ("noise_std", [0.1, "x"]),
            ("out_dir", 3),
            # an empty grid range repeats one state, a reversed one reverses
            # the CSV and the image
            ("angle_min", math.pi),
            ("angle_max", -4.0),
            ("velocity_min", 8.0),
            ("velocity_max", -9.0),
        ],
    )
    def test_bad_value_rejected_at_load(self, tmp_path, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ValueError, match=field):
            load_config(path)

    def test_fractional_grid_count_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, angle_count=3.5)
        assert main(["landscape", "--config", str(cfg)]) == 2

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1}')
        cfg = load_config(path, {"seed": 5, "out_dir": None})
        assert cfg.seed == 5
        assert cfg.out_dir == "out"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    data=st.dictionaries(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=6),
        JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3),
        max_size=4,
    )
)
def test_any_flat_json_object_loads_or_raises_value_error(tmp_path_factory, data):
    # a config that loads is usable: its grid, pendulum and optimizer
    # settings build without error
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(data))
    try:
        cfg = load_config(path)
    except ValueError:
        return
    assert len(cfg.angles()) == cfg.angle_count
    assert len(cfg.velocities()) == cfg.velocity_count
    cfg.pendulum_params()
    cfg.optimizer_options()


class TestLandscapeCommand:
    def test_writes_expected_rows_and_image(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["landscape", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "out" / "landscape.csv")
        assert rows[0] == ["angle", "velocity", "empowerment_nats", "converged"]
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            assert float(row[2]) >= 0.0
            assert row[3] in ("true", "false")
        pgm = (tmp_path / "out" / "landscape.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "2 2"
        assert pgm[2] == "255"

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["landscape", "--config", str(cfg)])
        first = (tmp_path / "out" / "landscape.csv").read_bytes()
        first_pgm = (tmp_path / "out" / "landscape.pgm").read_bytes()
        main(["landscape", "--config", str(cfg)])
        assert (tmp_path / "out" / "landscape.csv").read_bytes() == first
        assert (tmp_path / "out" / "landscape.pgm").read_bytes() == first_pgm

    def test_constant_grid_image_is_black(self, tmp_path):
        # no spread to normalize by: every finite cell maps to 0, as NaN does
        path = tmp_path / "flat.pgm"
        cli._write_pgm(path, np.array([[1.5, 1.5, 1.5], [1.5, np.nan, 1.5]]))
        assert path.read_text() == "P2\n3 2\n255\n0 0 0\n0 0 0\n"

    def test_seed_override_reaches_every_cell(self, tmp_path, monkeypatch):
        # with a one-dimensional action the seed only places the restart
        # kicks r > 0, which leave these cells' values as they are, so the
        # override is checked where it lands: cell i runs with seed + i
        seeds = []
        run = empkit.empowerment.maximize_empowerment

        def recorded(model, state, opts):
            seeds.append(opts.seed)
            return run(model, state, opts)

        monkeypatch.setattr(empkit.empowerment, "maximize_empowerment", recorded)
        cfg = write_config(tmp_path)
        for seed in (0, 5):
            seeds.clear()
            main(["landscape", "--config", str(cfg), "--seed", str(seed)])
            assert seeds == [seed, seed + 1, seed + 2, seed + 3]


class TestSpearman:
    """``compare-oracle`` ranks with numpy; scipy is the independent check."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        data=st.data(),
        # a few distinct integers give many ties; floats give almost none
        elements=st.sampled_from(
            [st.integers(0, 3), st.floats(-1e6, 1e6, allow_subnormal=False)]
        ),
    )
    def test_matches_scipy_with_and_without_ties(self, data, elements):
        from scipy.stats import rankdata, spearmanr

        x = data.draw(st.lists(elements, min_size=2, max_size=30))
        y = data.draw(st.lists(elements, min_size=len(x), max_size=len(x)))
        assert np.array_equal(cli._ranks(x), rankdata(x))
        if len(set(x)) > 1 and len(set(y)) > 1:
            want = spearmanr(x, y).statistic
            assert cli._spearman(x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_constant_input_gives_nan(self):
        assert np.isnan(cli._spearman([1.0, 1.0, 1.0], [0.0, 2.0, 1.0]))


class TestCompareOracleCommand:
    def test_small_run_outputs_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle_actions=16, oracle_bins=11,
                           oracle_tol=1e-2)
        assert main(["compare-oracle", "--config", str(cfg), "--states", "4"]) == 0
        out = capsys.readouterr().out
        assert "spearman_rank_correlation" in out
        assert "median_speedup" in out
        rows = read_csv(tmp_path / "out" / "compare.csv")
        assert rows[0] == ["angle", "velocity", "efficient_nats", "oracle_nats",
                           "efficient_ms", "oracle_ms"]
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            assert float(row[2]) >= 0.0
            assert float(row[4]) > 0.0
            assert float(row[5]) > 0.0

    def test_unconverged_oracle_gives_no_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle_actions=16, oracle_bins=11,
                           oracle_max_iter=1)
        assert main(["compare-oracle", "--config", str(cfg), "--states", "4"]) == 0
        captured = capsys.readouterr()
        assert "spearman_rank_correlation" not in captured.out
        assert "oracle converged on fewer than 2 states" in captured.err
        rows = read_csv(tmp_path / "out" / "compare.csv")
        assert len(rows) == 1 + 4
        assert all(row[3] == "" for row in rows[1:])

    @pytest.mark.slow
    def test_default_run_reaches_spearman_target(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        assert main(["compare-oracle", "--config", str(cfg), "--states", "25"]) == 0
        out = capsys.readouterr().out
        rho = float(out.split("spearman_rank_correlation")[1].split()[0])
        assert rho >= 0.9


class TestRolloutCommand:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["rollout", "--config", str(cfg), "--start", "3.0,0.0",
                     "--steps", "3"]) == 0
        rows = read_csv(tmp_path / "out" / "rollout.csv")
        assert rows[0] == ["t", "angle", "velocity", "action", "empowerment_nats"]
        assert len(rows) == 1 + 3
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert float(rows[1][1]) == 3.0
        assert float(rows[1][2]) == 0.0

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["rollout", "--config", str(cfg), "--start", "1.0,0.5",
              "--steps", "2"])
        first = (tmp_path / "out" / "rollout.csv").read_bytes()
        main(["rollout", "--config", str(cfg), "--start", "1.0,0.5",
              "--steps", "2"])
        assert (tmp_path / "out" / "rollout.csv").read_bytes() == first

    def test_bad_start_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["rollout", "--config", str(cfg), "--start", "oops",
                     "--steps", "1"]) == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["landscape", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus": 1}')
        assert main(["landscape", "--config", str(path)]) == 2

    def test_invalid_config_value(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"angle_count": 1}')
        assert main(["landscape", "--config", str(path)]) == 2

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["landscape", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: config must be a JSON object\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare-oracle", "--states", "1"], "need at least 2 states to compare"),
            (["compare-oracle", "--states", "5"], "more states requested than grid"),
            (["rollout", "--start", "0,0", "--steps", "0"], "steps must be >= 1"),
        ],
    )
    def test_bad_count_is_config_error(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)  # a 2 x 2 grid
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "estimator, argv",
        [
            ("empowerment_landscape", ["landscape"]),
            ("maximize_empowerment", ["compare-oracle", "--states", "2"]),
            ("select_action", ["rollout", "--start", "0,0", "--steps", "1"]),
        ],
    )
    def test_unwritable_out_fails_before_the_sweep(
        self, tmp_path, monkeypatch, estimator, argv
    ):
        calls = []
        monkeypatch.setattr(cli, estimator, lambda *a, **k: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path)
        assert main([*argv, "--config", str(cfg), "--out", str(blocker)]) == 1
        assert calls == []


class TestDivergingEstimate:
    """A noise scale of 1e-200 makes every restart's objective non-finite."""

    def test_landscape_writes_empty_cells(self, tmp_path, capsys):
        cfg = write_config(tmp_path, noise_std=[1e-200, 1e-200])
        assert main(["landscape", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == "warning: 4 grid cells failed to optimize\n"
        rows = read_csv(tmp_path / "out" / "landscape.csv")
        assert len(rows) == 1 + 4
        assert all(row[2:] == ["", "false"] for row in rows[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-oracle", "--states", "2"],
            ["rollout", "--start", "0,0", "--steps", "2"],
        ],
    )
    def test_estimate_is_an_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, noise_std=[1e-200, 1e-200])
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: all 2 restarts diverged\n"

    def test_console_script_exits_without_traceback(self, tmp_path):
        cfg = write_config(tmp_path, noise_std=[1e-200, 1e-200])
        src = str(Path(empkit.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "empkit.cli", "rollout", "--config", str(cfg),
             "--start", "0,0", "--steps", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
