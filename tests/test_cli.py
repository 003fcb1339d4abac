import json
import os
import re
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_quarter_circle
from oracles import load_blocks
from feedsched.cli import (
    PRESETS,
    CliError,
    RunConfig,
    load_curve,
    main,
    run,
    _cells,
    _load_limits,
    save_curve,
)
from feedsched.chordscan import ScanConvergenceError
from feedsched.optimizer import OptimizerError
from feedsched.segmentation import Block
from feedsched.simulator import interpolate, summarize

SRC = Path(__file__).resolve().parents[1] / "src"

EXPECTED_PER_METHOD = (
    "{m}_feed_vs_u.csv",
    "{m}_kinematics_vs_time.csv",
    "{m}_chord_error_vs_u.csv",
    "{m}_blocks.csv",
    "{m}_summary.json",
)


@pytest.fixture(scope="module")
def both_run(tmp_path_factory):
    """One full CLI invocation with method=both, shared by the checks."""
    root = tmp_path_factory.mktemp("cli")
    curve_path = root / "curve.json"
    out_dir = root / "out"
    assert main(["gen-curve", "--seed", "3", "--out", str(curve_path)]) == 0
    code = main(
        [
            "run",
            "--curve", str(curve_path),
            "--config", "standard",
            "--method", "both",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return curve_path, out_dir


class TestCurveFiles:
    def test_save_load_round_trip(self, tmp_path):
        curve = make_quarter_circle(5.0)
        path = tmp_path / "arc.json"
        save_curve(curve, path)
        again = load_curve(path)
        assert again == curve

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": 3,\n  "oops"\n}')
        with pytest.raises(CliError) as info:
            load_curve(path)
        assert str(path) in str(info.value)
        assert re.search(r":\d+:\d+: ", str(info.value))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"degree": 1}')
        with pytest.raises(CliError, match="control_points"):
            load_curve(path)

    def test_curve_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[3, [[0, 0], [1, 0]]]")
        with pytest.raises(CliError) as info:
            load_curve(path)
        assert str(info.value) == f"{path}: expected a JSON object"

    def test_invalid_geometry(self, tmp_path):
        path = tmp_path / "degenerate.json"
        doc = {
            "degree": 1,
            "control_points": [[0.0, 0.0], [1.0, 0.0]],
            "weights": [1.0],
            "knots": [0.0, 0.0, 1.0, 1.0],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(CliError):
            load_curve(path)


class TestRunOutputs:
    def test_all_files_present(self, both_run):
        _, out_dir = both_run
        for method in ("sigmoid", "sine"):
            for pattern in EXPECTED_PER_METHOD:
                assert (out_dir / pattern.format(m=method)).is_file()
        assert (out_dir / "comparison.json").is_file()

    def test_trace_headers_and_finiteness(self, both_run):
        _, out_dir = both_run
        headers = {
            "sigmoid_feed_vs_u.csv": "u [-],feed [mm/s]",
            "sigmoid_kinematics_vs_time.csv":
                "t [s],feed [mm/s],accel [mm/s^2],jerk [mm/s^3]",
            "sigmoid_chord_error_vs_u.csv": "u [-],chord error [mm]",
        }
        for name, header in headers.items():
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0] == header
            assert len(lines) > 10
            for line in lines[1:]:
                for cell in line.split(","):
                    assert math.isfinite(float(cell))

    def test_summary_content(self, both_run):
        _, out_dir = both_run
        doc = json.loads((out_dir / "sigmoid_summary.json").read_text())
        limits = PRESETS["standard"]
        assert doc["max_feed"] <= limits.v_max * (1.0 + 1e-9)
        assert doc["max_chord_err"] <= 1.05 * limits.delta_max
        assert doc["total_time"] > 0.0
        assert doc["n_points"] >= 2
        assert doc["n_breakpoints"] >= 2

    def test_comparison_structure(self, both_run):
        _, out_dir = both_run
        doc = json.loads((out_dir / "comparison.json").read_text())
        assert doc["time_ratio_sine_over_sigmoid"] > 0.0
        assert doc["points_ratio_sine_over_sigmoid"] > 0.0
        for method in ("sigmoid", "sine"):
            util = doc["utilization"][method]
            for key in ("feed", "accel", "jerk", "chord"):
                assert 0.0 < util[key] <= 1.05

    def test_block_table_round_trip_reproduces_summary(self, both_run):
        # reload the published schedule and replay it from scratch; every
        # summary number must come back bit for bit
        curve_path, out_dir = both_run
        curve = load_curve(curve_path)
        limits = PRESETS["standard"]
        blocks = load_blocks(out_dir / "sigmoid_blocks.csv")
        again = summarize(interpolate(curve, blocks, limits))
        stored = json.loads((out_dir / "sigmoid_summary.json").read_text())
        assert again.max_feed == stored["max_feed"]
        assert again.max_accel == stored["max_accel"]
        assert again.max_jerk == stored["max_jerk"]
        assert again.max_chord_err == stored["max_chord_err"]
        assert again.total_time == stored["total_time"]
        assert again.n_points == stored["n_points"]

    def test_byte_identical_reruns(self, both_run, tmp_path):
        curve_path, out_dir = both_run
        second = tmp_path / "again"
        code = main(
            [
                "run",
                "--curve", str(curve_path),
                "--method", "both",
                "--out-dir", str(second),
            ]
        )
        assert code == 0
        for produced in sorted(out_dir.iterdir()):
            twin = second / produced.name
            assert twin.is_file()
            assert twin.read_bytes() == produced.read_bytes()

    def test_both_run_kinematics_equal_single_law_runs(self, both_run, tmp_path):
        # a both run formats the time column once, the longer replay's
        # tail after the shorter one's cells: its kinematics files are
        # those of the two single-law runs, byte for byte
        curve_path, out_dir = both_run
        ticks = set()
        for method in ("sigmoid", "sine"):
            single = tmp_path / method
            argv = ["run", "--curve", str(curve_path), "--method", method]
            assert main(argv + ["--out-dir", str(single)]) == 0
            name = f"{method}_kinematics_vs_time.csv"
            data = (single / name).read_bytes()
            assert (out_dir / name).read_bytes() == data
            ticks.add(data.count(b"\n"))
        assert len(ticks) == 2

    @pytest.mark.parametrize(
        "column, cell", [(5, "wide"), (5, "0.0"), (6, "sideways")]
    )
    def test_block_table_rejects_bad_shape_or_kind(
        self, both_run, tmp_path, column, cell
    ):
        _, out_dir = both_run
        lines = (out_dir / "sigmoid_blocks.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[column] = cell
        lines[1] = ",".join(parts)
        bad = tmp_path / "blocks.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(CliError, match=re.escape(f"{bad}:2")):
            load_blocks(bad)

    def test_block_table_rejects_a_duration_off_by_one_ulp(
        self, both_run, tmp_path
    ):
        # a block derives its duration from L and its feeds, so a table
        # whose T cell disagrees, even in the last bit, is not one the
        # CLI wrote
        _, out_dir = both_run
        lines = (out_dir / "sigmoid_blocks.csv").read_text().splitlines()
        parts = lines[2].split(",")
        parts[7] = repr(math.nextafter(float(parts[7]), math.inf))
        lines[2] = ",".join(parts)
        bad = tmp_path / "blocks.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(CliError, match=re.escape(f"{bad}:3: T {parts[7]}")):
            load_blocks(bad)

    @pytest.mark.parametrize("seed", range(25))
    def test_reanchored_junctions_stay_ordered(self, tmp_path, seed):
        # junction re-anchoring once pushed a zero-length block's start a
        # few 1e-12 past its end on seeds 8, 10, 17 and 22, and load_blocks
        # then refused the run's own block table; now no block has zero
        # length, and each spans a positive parameter range
        curve, out = str(tmp_path / "curve.json"), tmp_path / "out"
        assert main(["gen-curve", "--seed", str(seed), "--out", curve]) == 0
        assert main(["run", "--curve", curve, "--out-dir", str(out)]) == 0
        blocks = load_blocks(out / "sigmoid_blocks.csv")
        for b in blocks:
            assert b.L > 0.0 and b.u_e > b.u_s, b

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_curve_that_curls_at_its_end_runs(self, tmp_path, preset):
        # its scan once gave up 0.5 % before the end, exit 3
        curve = Path(__file__).parent / "curves" / "end_curl.json"
        argv = ["run", "--curve", str(curve), "--config", preset]
        assert main(argv + ["--method", "both", "--out-dir", str(tmp_path)]) == 0


class TestOptions:
    def test_screening_override_reduces_breakpoints(self, both_run, tmp_path):
        curve_path, out_dir = both_run
        base = json.loads((out_dir / "sigmoid_summary.json").read_text())
        coarse_dir = tmp_path / "coarse"
        code = main(
            [
                "run",
                "--curve", str(curve_path),
                "--method", "sigmoid",
                "--out-dir", str(coarse_dir),
                "--mu-s", "1e9",
            ]
        )
        assert code == 0
        coarse = json.loads((coarse_dir / "sigmoid_summary.json").read_text())
        # deep valleys survive any screening level; the wrinkles go
        assert 2 <= coarse["n_breakpoints"] < base["n_breakpoints"]

    def test_config_file(self, both_run, tmp_path):
        curve_path, _ = both_run
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"v_max": 50.0, "a_max": 3000.0}))
        out_dir = tmp_path / "custom"
        code = main(
            [
                "run",
                "--curve", str(curve_path),
                "--config", str(cfg),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        doc = json.loads((out_dir / "sigmoid_summary.json").read_text())
        assert doc["max_feed"] <= 50.0 * (1.0 + 1e-9)

    def test_unknown_config_key_is_exit_2(self, both_run, tmp_path, capsys):
        curve_path, _ = both_run
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps({"vmax": 50.0}))
        code = main(["run", "--curve", str(curve_path), "--config", str(cfg)])
        assert code == 2
        assert "vmax" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, cause",
        [
            (None, ": [Errno 2] No such file or directory"),
            ('{"v_max": 50.0,\n  "a_max"\n}', ":3:1: Expecting ':' delimiter"),
            ("[50.0, 3000.0]", ": expected a JSON object"),
        ],
        ids=["unreadable", "syntax-error", "not-an-object"],
    )
    def test_bad_limits_file_is_exit_2(self, both_run, tmp_path, capsys, text, cause):
        curve_path, _ = both_run
        cfg = tmp_path / "limits.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--curve", str(curve_path), "--config", str(cfg),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}{cause}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_screening_override_applies_to_a_limits_file(self, both_run, tmp_path):
        # --mu-s overrides a limits file as it does a preset: an empty
        # file is the standard preset, so both runs plan alike
        curve_path, _ = both_run
        cfg = tmp_path / "limits.json"
        cfg.write_text("{}")
        docs = []
        for i, config in enumerate((str(cfg), "standard")):
            out = tmp_path / f"out{i}"
            code = main(["run", "--curve", str(curve_path), "--config", config,
                         "--method", "sigmoid", "--out-dir", str(out),
                         "--mu-s", "1e9"])
            assert code == 0
            docs.append((out / "sigmoid_summary.json").read_text())
        assert docs[0] == docs[1]

    def test_non_finite_limit_is_exit_2(self, both_run, tmp_path, capsys):
        curve_path, _ = both_run
        for name in ("Ts", "delta_max", "v_max", "a_max", "j_max"):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(f'{{"{name}": Infinity}}')
            out = tmp_path / name
            code = main(["run", "--curve", str(curve_path), "--config", str(cfg),
                         "--out-dir", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert f"{name} must be finite and strictly positive" in err
            assert not out.exists()

    def test_too_few_control_points_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["gen-curve", "--seed", "0", "--n-ctrl", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --n-ctrl: need at least 4 control points\n"
        assert not out.exists()

    def test_unknown_method_is_exit_2(self, both_run, tmp_path, capsys):
        # argparse's choices keep it off the command line; run still
        # guards a library caller that builds its own config
        curve_path, _ = both_run
        out = tmp_path / "out"
        config = RunConfig(curve_path, PRESETS["standard"], "bogus", out)
        assert run(config) == 2
        assert "unknown method 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_curve_is_exit_2(self, tmp_path, capsys):
        code = main(["run", "--curve", str(tmp_path / "absent.json")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_infeasible_schedule_is_exit_3(self, both_run, monkeypatch, capsys):
        curve_path, _ = both_run
        import feedsched.cli as cli_mod

        def explode(*args, **kwargs):
            raise OptimizerError("junction 4: feeds 80 -> 95 over 0.01 mm")

        monkeypatch.setattr(cli_mod, "schedule", explode)
        code = main(["run", "--curve", str(curve_path)])
        assert code == 3
        assert "junction 4" in capsys.readouterr().err


    def test_non_finite_output_is_exit_3(
        self, both_run, monkeypatch, tmp_path, capsys
    ):
        curve_path, _ = both_run
        import feedsched.cli as cli_mod

        def nan_jerk(*args, **kwargs):
            replay = interpolate(*args, **kwargs)
            replay.J[5] = math.nan
            return replay

        monkeypatch.setattr(cli_mod, "interpolate", nan_jerk)
        out = tmp_path / "out"
        code = main(["run", "--curve", str(curve_path), "--out-dir", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {out / 'sigmoid_kinematics_vs_time.csv'}: "
            "non-finite value nan in output\n"
        )

    def test_cells_name_the_first_non_finite_value(self, tmp_path):
        path = tmp_path / "x.csv"
        for values, bad in (
            ([1.0, math.inf, math.nan], "inf"),
            (np.array([2.0, 3.0, math.nan, -math.inf]), "nan"),
            ((0.5, -math.inf), "-inf"),
        ):
            with pytest.raises(CliError) as err:
                _cells(values, path)
            assert str(err.value) == f"{path}: non-finite value {bad} in output"

    def test_cells_are_each_values_float_repr(self, tmp_path):
        values = [0.1, -0.0, 5e-324, 1e300, 2, np.float64(1.0) / 3.0, 1.0 - 2**-53]
        want = [repr(float(x)) for x in values]
        assert _cells(values, tmp_path / "x.csv") == want
        assert _cells(np.array(values), tmp_path / "x.csv") == want

    def test_plan_over_the_tick_cap_is_exit_3(
        self, both_run, monkeypatch, tmp_path, capsys
    ):
        # 1e12 ticks at 1 ms: the replay refuses the plan before its walk
        curve_path, _ = both_run
        import feedsched.cli as cli_mod

        def endless(curve, blocks, scatter, limits):
            return [Block(0.0, 1.0, 1e-6, 1e-6, 1000.0)]

        monkeypatch.setattr(cli_mod, "schedule", endless)
        out = tmp_path / "out"
        code = main(["run", "--curve", str(curve_path), "--out-dir", str(out)])
        assert code == 3
        assert "exceeds the replay's cap" in capsys.readouterr().err


class TestSubprocessEntry:
    def test_gen_curve_from_shell(self, tmp_path):
        out = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-m", "feedsched.cli",
             "gen-curve", "--seed", "11", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.is_file()
        assert str(out) in proc.stdout


def _cubic_doc(points):
    return {
        "degree": 3,
        "control_points": points,
        "weights": [1.0] * len(points),
        "knots": [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0],
    }


GOOD_POINTS = [[0.0, 0.0], [2.0, 1.0], [5.0, 5.0], [10.0, 0.0], [15.0, 5.0]]


@pytest.mark.parametrize(
    "points, extra, cause",
    [
        (GOOD_POINTS, ["--mu-s", "-1"], "mu_s must be strictly positive"),
        (
            [[0.0, 0.0], [2.0, 1.0], [5.0, math.nan], [10.0, 0.0], [15.0, 5.0]],
            [],
            "control point coordinates must be finite",
        ),
        (
            [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [10.0, 0.0], [15.0, 5.0]],
            [],
            "vanishing first derivative",
        ),
        ([[5.0, 5.0]] * 5, [], "control points all coincide"),
    ],
    ids=["negative-mu-s", "nan-coordinate", "coincident-start", "point-curve"],
)
def test_bad_input_exits_2_without_traceback(tmp_path, points, extra, cause):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(_cubic_doc(points)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "feedsched.cli", "run",
         "--curve", str(curve), "--out-dir", str(tmp_path / "out"), *extra],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "limits",
    [
        # shallow shapes under an acceleration limit that binds: their cap's
        # acceleration peak exceeds the core's, which the former mu_n missed
        {"shape_s": 0.5, "a_max": 100, "j_max": 1e6},
        {"shape_s": 1.0, "a_max": 100, "j_max": 1e6},
        {"shape_s": 1.5, "a_max": 100, "j_max": 1e6},
        # a steep shape, whose core's jerk peak binds
        {"shape_s": 6.0},
    ],
    ids=["shallow-0.5", "shallow-1.0", "shallow-1.5", "steep-6.0"],
)
def test_any_shape_schedules_within_its_limits(tmp_path, limits):
    # the reduced peaks are the fitted ones at every shape: a mu_n below a
    # shallow law's peak acceleration would end in "violates limits"
    # (exit 3), and a refused steep shape in exit 2
    curve, cfg, out = tmp_path / "c.json", tmp_path / "l.json", tmp_path / "out"
    assert main(["gen-curve", "--seed", "6", "--out", str(curve)]) == 0
    cfg.write_text(json.dumps(limits))
    assert main([
        "run", "--curve", str(curve), "--config", str(cfg),
        "--method", "both", "--out-dir", str(out),
    ]) == 0
    used = json.loads((out / "comparison.json").read_text())["utilization"]
    for method in ("sigmoid", "sine"):
        for name in ("feed", "accel", "jerk"):
            assert used[method][name] <= 1.0 + 1e-12
        # the replayed chord keeps the suite's 1.05 chord allowance
        assert used[method]["chord"] <= 1.05


def test_presets_load_within_the_shape_range():
    for name, preset in PRESETS.items():
        assert _load_limits(name, None) == preset
        assert replace(preset) == preset  # re-runs the range checks
        assert preset.shape_s == 3.3


def test_chord_scan_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    import feedsched.cli as cli_mod

    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(_cubic_doc(GOOD_POINTS)))

    def explode(*args, **kwargs):
        raise ScanConvergenceError("feed search did not settle at u=0.25")

    monkeypatch.setattr(cli_mod, "scan_curve", explode)
    assert main(["run", "--curve", str(curve)]) == 3
    assert "u=0.25" in capsys.readouterr().err


def test_scan_past_its_point_cap_is_exit_3(tmp_path, monkeypatch, capsys):
    import feedsched.chordscan as chordscan_mod

    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(_cubic_doc(GOOD_POINTS)))
    monkeypatch.setattr(chordscan_mod, "_MAX_SCAN_POINTS", 5)
    out = tmp_path / "out"
    assert main(["run", "--curve", str(curve), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "chord scan failed: scan produced too many points" in err
