import json
import warnings

import pytest

from dengue_control import cli, integrator
from dengue_control.errors import MosquitoCollapseError
from dengue_control.scenario import builtin_capeverde2009, render_scenario


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def write_variant(tmp_path, replacements, name="variant.txt"):
    text = render_scenario(builtin_capeverde2009())
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

    def test_csv_round_trip_byte_identical(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--builtin", "capeverde2009", "--out", str(tmp_path))
        text = (tmp_path / "trajectory.csv").read_text()
        times, states = cli.parse_trajectory_csv(text)
        re_rendered = "\n".join(
            [cli.CSV_HEADER]
            + [",".join(repr(v) for v in (t,) + s.as_tuple())
               for t, s in zip(times, states)]) + "\n"
        assert re_rendered == text


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

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["analyze"])


class TestProcessInvocation:
    def test_module_runner_end_to_end(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", "threshold",
             "--builtin", "capeverde2009"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "c* = 0.156961"
