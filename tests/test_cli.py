import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import ADVERSARIAL_DOUBLES

import dengue_control
from dengue_control import cli, integrator
from dengue_control.errors import MosquitoCollapseError, ScenarioError
from dengue_control.integrator import _DENSE_CHUNK, StepStats, Trajectory, integrate
from dengue_control.scenario import builtin_capeverde2009, render_scenario
from dengue_control.svgplot import render_trajectory_svg

BUILTIN_TEXT = render_scenario(builtin_capeverde2009())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def builtin_text_with(values):
    """The rendered built-in scenario with the given keys set to new value text."""
    return "".join(
        f"{key} = {values[key]}\n" if (key := line.split(" = ")[0]) in values else f"{line}\n"
        for line in BUILTIN_TEXT.splitlines())


def write_variant(tmp_path, replacements, name="variant.txt"):
    text = BUILTIN_TEXT
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSimulate:
    def test_writes_trajectory_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                               "--out", str(tmp_path))
        assert code == 0
        header, rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert header == "t,S_h,E_h,I_h,R_h,A_m,S_m,E_m,I_m"
        assert len(rows) == 201      # 100 days at 0.5-day reporting
        first = [float(v) for v in rows[0]]
        assert first == [0.0, 479350.0, 216.0, 434.0, 0.0,
                         3.0 * 480000.0, 6.0 * 480000.0, 0.0, 0.0]

    def test_zero_horizon_single_row(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                             "--t-end", "0", "--out", str(tmp_path))
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 1
        assert float(rows[0][3]) == 434.0

    def test_control_suppresses_outbreak(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                       "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                       "--control", "0.2", "--out", str(out_b))[0] == 0
        _, rows_a = read_csv_rows(out_a / "trajectory.csv")
        _, rows_b = read_csv_rows(out_b / "trajectory.csv")
        peak_a = max(float(r[3]) for r in rows_a)
        peak_b = max(float(r[3]) for r in rows_b)
        assert peak_a > 2.0 * peak_b
        assert float(rows_b[-1][8]) < 1.0     # infected mosquitoes nearly gone

    def test_svg_emission(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                             "--svg", "--out", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "compartments.svg").read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<polyline") == 8          # four compartments per panel
        assert "Human compartments" in svg and "Mosquito compartments" in svg
        for label in ("S_h", "E_h", "I_h", "R_h", "A_m", "S_m", "E_m", "I_m"):
            assert f">{label}</text>" in svg

    def test_svg_of_a_window_a_few_ulps_wide(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"t0 = 0.0": "t0 = 1000000000.0",
                                        "t_end = 100.0": "t_end = 1000000000.0000002",
                                        "output_step = 0.5": "output_step = 1e-07"})
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--svg", "--out", str(tmp_path))
        assert code == 0
        assert "rows: 3 " in out
        assert (tmp_path / "compartments.svg").read_text().count("<polyline") == 8

    def test_csv_round_trip_byte_identical(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--builtin", "capeverde2009", "--out", str(tmp_path))
        text = (tmp_path / "trajectory.csv").read_text()
        header, *lines = text.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert header == cli.CSV_HEADER and {len(row) for row in rows} == {9}
        re_rendered = "\n".join(
            [header] + [",".join(repr(v) for v in row) for row in rows]) + "\n"
        assert re_rendered == text


class TestGoldenOutput:
    # SHA-256 of trajectory_to_csv and render_trajectory_svg on the built-in
    # scenario, computed at commit a19642a, when dense output still ran once
    # per accepted step and the SVG mapped points one by one.  Deferring the
    # dense output and mapping whole columns keep every byte.
    DIGESTS = {
        (0.0, 0.5): ("a90aa1238c7e9457426ec22e216f73b7ffee6c557808ac4f2c489ea9751e43f2",
                     "f02009d4a7a276599ec589825c5552ef3e71b2159464f4fb5d8f2a23ee6e5d2d"),
        (0.05, 0.5): ("63fbfa0fde817b5c7839d265a4f6716f7b5984c4a25cc527a3fdc6aa7d039d41",
                      "ab8f7583a1d5032b2ed22fc0d459a6f041926971b04b15d6ed6b0f99c8678236"),
        (0.2, 0.5): ("669df60d3fb1a178c2e42b26bea647b935779232ab16c162ebb07ed61dbea59c",
                     "803ed0063d50b23efc6d5a5833ccbb75b1c02b2753eecffc3405179615204637"),
        (0.0, 0.05): ("d779aba207797984f0d5dd33f22329f8b55a5e2c4ef5b351442a7edae325a1d4",
                      "31243a9268ed9173d4b084b6fa96c074184a073e2b5923ed06f2d2855c613bed"),
        (0.05, 0.05): ("96018f50e045486164cdfad81721e27f810bea11a1e5f7d3a8a756c03b68b751",
                       "c2b0cd67afd081efaf1941c6924ababc1f76417dc0f108f621589729b78ac905"),
        (0.2, 0.05): ("431843bbd155537abee3c92a3143b4c0d2420d3abe5935417139c04c26c444d4",
                      "82cd631697bab67531bcbb9ff17529faa0319b004d33e5cb50b8186af36963ad"),
    }

    @pytest.mark.parametrize("c, output_step", sorted(DIGESTS))
    def test_csv_and_svg_bytes(self, c, output_step):
        s = builtin_capeverde2009()
        traj = integrate(s.params, c, s.initial,
                         dataclasses.replace(s.solver, output_step=output_step))
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
            cli.trajectory_to_csv(traj), render_trajectory_svg(traj, title=s.name)))
        assert digests == self.DIGESTS[c, output_step]


def per_value_csv(traj):
    """The oracle: each row formatted on its own, value by value."""
    rows = zip(traj.times.tolist(), traj.as_array().tolist())
    return "\n".join([cli.CSV_HEADER] + [",".join(map(repr, (t, *row))) for t, row in rows]) + "\n"


def hand_built(rows):
    values = np.array(rows, dtype=float).reshape(-1, 9)
    return Trajectory(times=values[:, 0].copy(), data=values[:, 1:].copy(),
                      step_stats=StepStats(0, 0, 1, 0.0, 0.0))


class TestCsvFormatting:
    @pytest.mark.parametrize("n", (1, _DENSE_CHUNK - 1, _DENSE_CHUNK, _DENSE_CHUNK + 1))
    def test_adversarial_values_match_per_value_repr(self, n):
        traj = hand_built(np.resize(np.array(ADVERSARIAL_DOUBLES), 9 * n))
        assert cli.trajectory_to_csv(traj) == per_value_csv(traj)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.floats(), min_size=9, max_size=9), min_size=1, max_size=30))
    def test_any_doubles_match_per_value_repr(self, rows, monkeypatch):
        # a 7-row chunk, so that the drawn rows span several chunks
        monkeypatch.setattr(integrator, "_DENSE_CHUNK", 7)
        traj = hand_built(rows)
        assert cli.trajectory_to_csv(traj) == per_value_csv(traj)


class TestThreshold:
    def test_prints_six_decimal_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--builtin", "capeverde2009")
        assert code == 0
        assert out.splitlines()[0] == "c* = 0.156961"
        assert "bracket" in out and "iterations" in out

    def test_coarse_tolerance_reported(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--builtin", "capeverde2009",
                               "--tol", "1e-2")
        assert code == 0
        bracket_line = next(line for line in out.splitlines() if "bracket" in line)
        lo, hi = bracket_line.split("[")[1].split("]")[0].split(",")
        assert float(hi) - float(lo) <= 1e-2

    def test_steep_reproduction_number_variant(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"\nB = 1.0\n": "\nB = 10000000.0\n"})
        code, out, _ = run_cli(capsys, "threshold", "--scenario", str(path))
        assert code == 0
        assert out.startswith("c* = ")

    def test_no_control_needed_variant(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"beta_mh = 0.375": "beta_mh = 0.0"})
        code, out, _ = run_cli(capsys, "threshold", "--scenario", str(path))
        assert code == 0
        assert "no control needed" in out

    def test_tolerance_below_float_resolution_is_config_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", "threshold",
             "--builtin", "capeverde2009", "--tol", "1e-300"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot certify c* = 0.156961")
        assert "tolerance 1e-300" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestSweep:
    def test_grid_rows_and_monotonicity(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                             "--c-min", "0", "--c-max", "0.3", "--c-step", "0.05",
                             "--out", str(tmp_path))
        assert code == 0
        header, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert header == "c,R0,brdfe_stable,collapsed"
        assert len(rows) == 7
        r0s = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(r0s, r0s[1:]))
        assert [r[2] for r in rows] == ["false"] * 4 + ["true"] * 3

    def test_single_point_matches_analyze_digits(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                             "--c-min", "0", "--c-max", "0", "--c-step", "0.05",
                             "--out", str(tmp_path))
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 1
        sweep_digits = rows[0][1]
        _, out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009")
        analyze_digits = next(
            line.split("=", 1)[1].strip() for line in out.splitlines()
            if line.startswith("R0 (closed form)"))
        assert sweep_digits == analyze_digits

    def test_collapse_flag_beyond_bound(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                             "--c-min", "1.3", "--c-max", "1.45", "--c-step", "0.05",
                             "--out", str(tmp_path))
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert [r[3] for r in rows] == ["false", "false", "true", "true"]
        assert rows[2][1] == "" and rows[2][2] == ""

    def test_invalid_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                               "--c-min", "0.2", "--c-max", "0.1")
        assert code == 2
        assert "sweep grid" in err

    @pytest.mark.parametrize("grid", (
        ("--c-max", "inf"), ("--c-min", "nan"), ("--c-step", "nan"), ("--c-step", "1e-300"),
        ("--c-step", "inf"), ("--c-min", "0", "--c-max", "0", "--c-step", "1e-300"),
    ))
    def test_unbounded_grid_rejected(self, grid, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--builtin", "capeverde2009", *grid,
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: invalid sweep grid")
        assert not (tmp_path / "sweep.csv").exists()


class TestAnalyze:
    def test_uncontrolled_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009")
        assert code == 0
        r0 = float(next(line.split("=")[1] for line in out.splitlines()
                        if line.startswith("R0 (closed form)")))
        assert r0 == pytest.approx(2.396, abs=1e-3)
        assert "[trivial]" in out and "[brdfe]" in out and "[endemic]" in out
        brdfe_block = out.split("[brdfe]")[1].split("[endemic]")[0]
        assert "stability: unstable" in brdfe_block
        assert "minimum control c* = 0.15696" in out

    def test_controlled_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                               "--control", "0.2")
        assert code == 0
        r0 = float(next(line.split("=")[1] for line in out.splitlines()
                        if line.startswith("R0 (closed form)")))
        assert r0 < 1.0
        brdfe_block = out.split("[brdfe]")[1]
        assert "stability: asymptotically stable" in brdfe_block
        assert "[endemic]" not in out
        assert "endemic: no endemic equilibrium" in out

    def test_warning_is_one_line(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                               "--control", "0.05")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert "not an exact fixed point" in err
        assert ".py" not in err

    def test_collapse_variant(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"mu_b = 6.0": "mu_b = 0.0"})
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        assert code == 0
        assert "[collapsed]" in out
        assert "[trivial]" in out
        assert "[brdfe]" not in out and "[endemic]" not in out
        assert "collapses" in out

    def test_json_and_text_carry_identical_numbers(self, capsys):
        code, json_out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                                    "--json")
        assert code == 0
        doc = json.loads(json_out)
        _, text_out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009")
        for value in (doc["viability"], doc["r0_spectral"], doc["r0_closed_form"],
                      doc["r_hm"], doc["r_mh"], doc["threshold"]["c_star"],
                      doc["equilibria"][2]["state"]["I_h"]):
            assert repr(value) in text_out

    def test_scenario_file_matches_builtin(self, tmp_path, capsys):
        path = write_variant(tmp_path, {})
        _, out_file, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        _, out_builtin, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009")
        strip = lambda s: "\n".join(s.splitlines()[1:])   # scenario name differs
        assert strip(out_file) == strip(out_builtin)


class TestHugeBiteRate:
    """B = 1e160: B**2 overflows a double, R0 itself does not."""

    @pytest.fixture
    def path(self, tmp_path):
        return write_variant(tmp_path, {"\nB = 1.0\n": "\nB = 1e160\n"})

    def test_analyze_reports_both_routes(self, path, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["r0_closed_form"] == pytest.approx(doc["r0_spectral"], rel=1e-10)
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        assert code == 0
        assert "endemic: endemic closed form is not finite" in out

    def test_threshold_and_sweep(self, path, tmp_path, capsys):
        assert run_cli(capsys, "threshold", "--scenario", str(path))[0] == 0
        assert run_cli(capsys, "sweep", "--scenario", str(path),
                       "--out", str(tmp_path))[0] == 0

    def test_analyze_labels_unstable_states(self, path, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        assert code == 0
        assert out.count("stability: unstable") == 2
        assert "marginal" not in out


class TestHalfCarryingCapacity:
    """K = 720000, half of k*N_h: R0 and c* move with K."""

    @pytest.fixture
    def path(self, tmp_path):
        return write_variant(tmp_path, {"K = 1440000.0": "K = 720000.0"})

    def test_analyze(self, path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", "--scenario", str(path))
        assert code == 0
        assert err == ""   # the CLI reports warnings on stderr
        assert "R0 (spectral)    = 1.6942878373053643\n" in out
        assert "R0 (closed form) = 1.6942878373053643\n" in out
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path), "--json")
        brdfe_doc = next(e for e in json.loads(out)["equilibria"] if e["kind"] == "brdfe")
        assert brdfe_doc["residual"] < 1e-12

    def test_threshold(self, path, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--scenario", str(path))
        assert code == 0
        assert out.splitlines()[0] == "c* = 0.079823"


class TestExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--scenario", "/no/such/file")
        assert code == 2
        assert "cannot read" in err

    def test_bad_scenario_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("N_h = 480000\nwibble = 3\n")
        code, _, err = run_cli(capsys, "analyze", "--scenario", str(path))
        assert code == 2
        assert "line 2" in err and "wibble" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--builtin", "nowhere")
        assert code == 2
        assert "unknown builtin" in err

    def test_initial_condition_violation_named(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"I_h0 = 434.0": "I_h0 = -434.0"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 2
        assert "I_h0" in err

    def test_numerical_failure_names_time(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"K = 1440000.0": "K = 1e-6"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 3
        assert "underflow" in err and "at t =" in err

    def test_unbounded_output_grid_is_config_error(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"t_end = 100.0": "t_end = 1e12",
                                        "output_step = 0.5": "output_step = 1e-3"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: output grid needs")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_window_beyond_step_cap_is_config_error(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"t_end = 100.0": "t_end = 1e9",
                                        "output_step = 0.5": "output_step = 1e4"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: the window needs at least 1e+09 steps")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_step_limit_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(integrator, "MAX_STEPS", 50)
        code, _, err = run_cli(capsys, "simulate", "--builtin", "capeverde2009",
                               "--t-end", "40", "--out", str(tmp_path))
        assert code == 3
        assert "step limit" in err and "at t =" in err

    def test_regime_error_mapping(self, capsys, monkeypatch):
        def boom(args):
            raise MosquitoCollapseError("no viable mosquito population")

        monkeypatch.setattr(cli, "cmd_analyze", boom)
        code = cli.main(["analyze", "--builtin", "capeverde2009"])
        err = capsys.readouterr().err
        assert code == 4
        assert "mosquito" in err

    def test_negative_control_override(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                               "--control", "-0.1")
        assert code == 2
        assert ">= 0" in err

    @pytest.mark.parametrize("override", [
        ("--control", "-0.1"), ("--control", "nan"), ("--control", "inf"),
        ("--t-end", "-5"), ("--t-end", "nan"), ("--t-end", "inf"),
    ])
    def test_overrides_are_checked_like_scenario_keys(self, override):
        args = cli.build_parser().parse_args(
            ["simulate", "--builtin", "capeverde2009", *override])
        with pytest.raises(ScenarioError):
            cli._load(args)

    @pytest.mark.parametrize("command, values, code, expected", [
        ("threshold", {"mu_m": "1e-320"}, 3, "basic reproduction number undefined"),
        ("sweep", {"mu_h": "1e-320", "mu_m": "1e-300"}, 3,
         "basic reproduction number undefined"),
        ("analyze", {"beta_hm": "0", "mu_m": "1e-300"}, 3,
         "basic reproduction number undefined"),
        ("analyze", {"mu_b": "1e-160", "eta_A": "1e-160", "mu_m": "1e-300", "mu_A": "1e-300"},
         3, "disease-free state undefined: mu_b*mu_m underflows"),
        ("analyze", {"mu_b": "5e-324"}, 0, "basic offspring ratio = n/a"),
        ("analyze", {"mu_h": "1e-200", "nu_h": "1e-200"}, 0,
         "endemic: endemic closed form undefined: mu_h*nu_h underflows"),
    ])
    def test_underflowing_rate_product(self, command, values, code, expected, tmp_path,
                                       capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with(values))
        out_dir = ["--out", str(tmp_path / "out")] if command == "sweep" else []
        got, out, err = run_cli(capsys, command, "--scenario", str(path), *out_dir)
        assert got == code
        assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines())
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        if code == 3:
            assert len(errors) == 1 and expected in errors[0]
        else:
            assert errors == [] and expected in out

    @pytest.mark.parametrize("values, scale", [
        # k*N_h underflows to 0 itself
        ({"N_h": "1e-30", "k": "1e-300", "S_h0": "1e-30", "E_h0": "0", "I_h0": "0",
          "A_m0": "0", "S_m0": "0", "E_m0": "0", "I_m0": "0"}, "scale = 0)"),
        # k*N_h is positive, but atol*k*N_h underflows to 0
        ({"N_h": "1", "k": "1e-320", "S_h0": "1", "E_h0": "0", "I_h0": "0",
          "A_m0": "0", "S_m0": "0", "E_m0": "0", "I_m0": "0"}, "scale = 9.99989e-321)"),
    ])
    def test_underflowing_error_weight(self, values, scale, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with(values))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: the error weight atol*scale of A_m underflows to 0 ")
        assert scale in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, out", [("simulate", "file"), ("sweep", "file/sub")])
    def test_out_path_through_a_file_is_config_error(self, command, out, tmp_path):
        (tmp_path / "file").write_text("kept\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", command,
             "--builtin", "capeverde2009", "--out", str(tmp_path / out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("command, replacement, state", [
        ("analyze", {"\nB = 1.0\n": "\nB = 1e303\n"}, "trivial"),
        ("sweep", {"\nB = 1.0\n": "\nB = 1e303\n"}, "brdfe"),
        ("analyze", {"mu_b = 6.0": "mu_b = 1e308"}, "brdfe"),
        ("sweep", {"mu_b = 6.0": "mu_b = 1e308"}, "brdfe"),
    ])
    def test_overflow_is_numerical_failure(self, command, replacement, state, tmp_path):
        path = write_variant(tmp_path, replacement)
        args = ["--out", str(tmp_path / "out")] if command == "sweep" else []
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", command, "--scenario", str(path),
             *args], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f"the {state} state" in errors[0]
        assert all(line.startswith(("error: ", "warning: "))
                   for line in proc.stderr.splitlines())
        assert not (tmp_path / "out").exists()

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["analyze"])


FUZZ_VALUES = ("0", "-0.0", "-1", "5e-324", "1e-320", "1e-300", "1e-160", "1e-15",
               "1e15", "1e154", "1e300", "1.7e308", "nan", "inf")
FUZZ_FLAG_VALUES = ("nan", "inf", "-1", "0", "1e-300", "1e308")
FUZZ_FLAGS = {"analyze": ("--control",), "threshold": ("--control", "--tol"),
              "sweep": ("--control", "--c-min", "--c-max", "--c-step"),
              "simulate": ("--control", "--t-end")}
SCENARIO_KEYS = tuple(line.split(" = ")[0] for line in BUILTIN_TEXT.splitlines()[1:])


@st.composite
def fuzz_runs(draw):
    """A subcommand, 1-3 scenario keys set to extreme value text, and up to
    two of the subcommand's numeric flags set to values argparse accepts."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    keys = draw(st.lists(st.sampled_from(SCENARIO_KEYS), min_size=1, max_size=3, unique=True))
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), max_size=2, unique=True))
    return (command, {key: draw(st.sampled_from(FUZZ_VALUES)) for key in keys},
            [arg for flag in flags for arg in (flag, draw(st.sampled_from(FUZZ_FLAG_VALUES)))])


class TestExitCodeFuzz:
    # the fixtures carry nothing from one example to the next: the scenario
    # file and the output directory are rewritten, MAX_STEPS set to one value
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=fuzz_runs())
    @example(run=("threshold", {"mu_m": "1e-320"}, []))
    @example(run=("analyze", {"mu_h": "1e-200", "nu_h": "1e-200"}, ["--control", "0"]))
    def test_every_input_ends_in_a_documented_exit_code(self, run, tmp_path, monkeypatch):
        command, values, flags = run
        # a stiff variant would otherwise run up to 10**7 step attempts
        monkeypatch.setattr(integrator, "MAX_STEPS", 10**4)
        path = tmp_path / "fuzz.txt"
        path.write_text(builtin_text_with(values))
        out_dir = ["--out", str(tmp_path / "out")] if command in ("simulate", "sweep") else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(path), *flags, *out_dir])
        assert code in (0, 2, 3, 4)
        assert all(line.startswith(("error: ", "warning: "))
                   for line in err.getvalue().splitlines())


def run_without_numpy(*args):
    """Run ``python -X importtime *args`` and assert that it imported the
    package but no numpy module."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dengue_control" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []
    return proc


class TestProcessInvocation:
    def test_module_runner_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", "threshold",
             "--builtin", "capeverde2009"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "c* = 0.156961"

    def test_threshold_without_numpy(self):
        proc = run_without_numpy("-m", "dengue_control.cli", "threshold",
                                 "--builtin", "capeverde2009")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "c* = 0.156961"

    @pytest.mark.parametrize("command", ["simulate", "analyze", "threshold", "sweep"])
    def test_configuration_error_without_numpy(self, command, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N_h = 10\nB = x\n")
        proc = run_without_numpy("-m", "dengue_control.cli", command, "--scenario", str(path))
        assert proc.returncode == 2
        assert "error: line 2: value for 'B' is not a number" in proc.stderr

    def test_package_import_without_numpy(self):
        assert run_without_numpy("-c", "import dengue_control").returncode == 0


class TestPublicNames:
    def test_each_name_resolves_to_its_defining_module(self):
        assert len(dengue_control.__all__) == len(set(dengue_control.__all__)) == 49
        for name in dengue_control.__all__:
            obj = getattr(dengue_control, name)
            assert getattr(sys.modules[obj.__module__], name) is obj
            assert name in dir(dengue_control)

    def test_star_import(self):
        namespace = {}
        exec("from dengue_control import *", namespace)
        assert set(dengue_control.__all__) <= set(namespace)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dengue_control.no_such_name
