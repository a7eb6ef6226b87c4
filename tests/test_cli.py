import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import ADVERSARIAL_DOUBLES, run_without_numpy

import dengue_control
from dengue_control import cli, integrator, svgplot
from dengue_control.errors import MosquitoCollapseError, NumericalFailure, ScenarioError
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
        # doubles at 1e9 are 1.2e-7 day apart, so the window is resolvable
        # only with h_max at least 119 days (integrator._TIME_RESOLUTION)
        path = write_variant(tmp_path, {"t0 = 0.0": "t0 = 1000000000.0",
                                        "t_end = 100.0": "t_end = 1000000000.0000002",
                                        "h_max = 1.0": "h_max = 1000.0",
                                        "output_step = 0.5": "output_step = 1e-07"})
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--svg", "--out", str(tmp_path))
        assert code == 0
        assert "rows: 3 " in out
        assert (tmp_path / "compartments.svg").read_text().count("<polyline") == 8

    @pytest.mark.parametrize("vectorized", (True, False))
    def test_svg_axis_top_stays_finite_near_the_largest_double(self, vectorized, tmp_path,
                                                               capsys, monkeypatch):
        # the largest S_h times the 1.05 headroom overflows to inf
        monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: vectorized)
        path = tmp_path / "huge.txt"
        path.write_text(builtin_text_with({"N_h": "1.75e308", "k": "0.5", "m": "0.5"}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path), "--t-end", "0.5",
                               "--svg", "--out", str(tmp_path))
        assert (code, err) == (0, "")
        svg = ET.parse(tmp_path / "compartments.svg").getroot()
        ticks = [float(el.get("y1")) for el in svg.iter("{http://www.w3.org/2000/svg}line")
                 if el.get("stroke") == "#ddd"]
        assert len(ticks) >= 2 and all(map(math.isfinite, ticks))

    @pytest.mark.parametrize("name, shown", (
        ("R&D <v2>.txt", "R&D <v2>.txt"),
        ("a\x01b.txt", "a\ufffdb.txt"),
        (os.fsdecode(b"bad\xff.txt"), "bad\ufffd.txt"),
    ), ids=("markup", "control-character", "not-utf8"))
    def test_svg_title_is_escaped(self, name, shown, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(BUILTIN_TEXT)
        assert run_cli(capsys, "simulate", "--scenario", str(path), "--svg",
                       "--out", str(tmp_path))[0] == 0
        svg = ET.parse(tmp_path / "compartments.svg").getroot()
        titles = [el.text for el in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert f"Human compartments ({tmp_path / shown})" in titles

    @pytest.mark.parametrize("values", (
        [1.0, 3.0, 3.0, 2.0], [-0.0, 0.0, 0.0], [-0.0], [0.0] * 5, [1.0, math.nan, 5.0, math.nan]))
    def test_peak_is_numpy_max_and_argmax(self, values):
        # repr tells NaN, -0.0 and 0.0 apart; the summary reads a strided column
        interleaved = array("d", [x for v in values for x in (-1.0, v, 7.0)])
        expected = np.array(values)
        for column in (array("d", values), memoryview(interleaved)[1::3]):
            at, peak = cli._peak(column)
            assert (at, repr(peak)) == (expected.argmax(), repr(float(expected.max())))

    def test_summary_reads_the_row_buffer_in_place(self, tmp_path, capsys, monkeypatch):
        # as many rows as the built-in scenario at output_step 0.00010001, made
        # up rather than integrated; the 72 MB buffer is not copied
        n, width = 999_902, integrator._WIDTH
        rows = array("d", [0.0]) * (n * width)
        rows[width * 500_000] = 50.0
        rows[width * 500_000 + 1 + cli.ROW_LABELS.index("I_h")] = 434.0
        traj = Trajectory(rows, StepStats(1, 0, 7, 0.0001, 0.0001))
        monkeypatch.setattr(integrator, "integrate", lambda *args: traj)
        monkeypatch.setattr(cli, "_write_atomic", lambda path, parts: None)
        argv = ("simulate", "--builtin", "capeverde2009", "--out", str(tmp_path))
        run_cli(capsys, *argv)  # loads the modules the command imports on first use
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "rows: 999902  steps: 1 accepted, 0 rejected\n" in out
        assert "peak infected humans: 434.0 at t = 50.0\n" in out
        assert peak < 2 ** 20

    def test_csv_round_trip_byte_identical(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--builtin", "capeverde2009", "--out", str(tmp_path))
        text = (tmp_path / "trajectory.csv").read_text()
        header, *lines = text.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert header == cli.CSV_HEADER and {len(row) for row in rows} == {9}
        re_rendered = "\n".join(
            [header] + [",".join(repr(v) for v in row) for row in rows]) + "\n"
        assert re_rendered == text

    def test_csv_is_written_in_chunks(self, tmp_path, capsys, monkeypatch):
        # 7-row chunks: the 201 rows reach the CSV file as 29 parts after the
        # header, and each of the 8 SVG series as 29 parts of its points
        for module in (integrator, svgplot, cli):
            monkeypatch.setattr(module, "_DENSE_CHUNK", 7)
        written = []
        write = cli._write_atomic

        def recording_write(path, parts):
            assert not isinstance(parts, str)
            parts = list(parts)
            written.append(len(parts))
            write(path, parts)

        monkeypatch.setattr(cli, "_write_atomic", recording_write)
        assert run_cli(capsys, "simulate", "--builtin", "capeverde2009", "--svg",
                       "--out", str(tmp_path))[0] == 0
        s = builtin_capeverde2009()
        traj = integrate(s.params, s.control, s.initial, s.solver)
        assert (tmp_path / "trajectory.csv").read_text() == cli.trajectory_to_csv(traj)
        assert (tmp_path / "compartments.svg").read_text() == render_trajectory_svg(traj, s.name)
        svg_parts = len(list(svgplot.trajectory_svg_parts(traj, s.name)))
        assert written == [1 + 29, svg_parts] and svg_parts > 8 * 29

    def test_failure_mid_stream_leaves_no_file(self, tmp_path):
        def parts():
            yield "first part\n"
            raise ScenarioError("stopped")

        with pytest.raises(ScenarioError, match="stopped"):
            cli._write_atomic(tmp_path / "out" / "trajectory.csv", parts())
        assert list((tmp_path / "out").iterdir()) == []


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

    def test_csv_and_svg_bytes_without_numpy(self):
        # the same six cases on the per-row dense output and SVG mapping
        code = textwrap.dedent("""\
            import dataclasses, hashlib
            from dengue_control.cli import trajectory_to_csv
            from dengue_control.integrator import integrate
            from dengue_control.scenario import builtin_capeverde2009
            from dengue_control.svgplot import render_trajectory_svg
            s = builtin_capeverde2009()
            for c, output_step in %r:
                traj = integrate(s.params, c, s.initial,
                                 dataclasses.replace(s.solver, output_step=output_step))
                print(*(hashlib.sha256(text.encode()).hexdigest() for text in (
                    trajectory_to_csv(traj), render_trajectory_svg(traj, title=s.name))))
        """) % sorted(self.DIGESTS)
        proc = run_without_numpy("-c", code)
        assert proc.returncode == 0, proc.stderr
        digests = [tuple(line.split()) for line in proc.stdout.splitlines()]
        assert digests == [self.DIGESTS[case] for case in sorted(self.DIGESTS)]

    # SHA-256 of the analyze stdout (text, --json) on the built-in scenario and
    # of the default sweep.csv, computed before classify, brdfe and render_json
    # read the control rate as a float and render_json stopped calling asdict.
    # 0.05 and 0.12 were re-pinned when r0_spectral became correctly rounded:
    # their spectral R0 moved one ulp, to 1.6728983144582583 and 1.1660081170613767.
    # All four were re-pinned when the endemic state became the correctly
    # rounded closed form: the "refined" token left every entry, and the
    # endemic entries (c = 0, 0.05, 0.12) changed in state digits and residual.
    # All four were re-pinned when the threshold became exact: c* moved from
    # 0.1569610113717911 to 0.15696101137179116 (the largest double with R0 > 1),
    # the bracket with it, and the collapse bound from 1.3636363636363635 to
    # 1.3636363636363638 (the least double with a viability margin <= 0).
    # 0.12 and 0.2 were re-pinned when endemic existence became the exact
    # rho > 1: at 0.12 (rho = 0.586 < 1 < R0) the out-of-region root with
    # I_h = -39.2 gave way to the endemic: note, and at 0.2 the note names rho.
    # The two doubles around the collapse bound were pinned when the margin's
    # sign became exact (see TestCollapseEdge): the one below it no longer
    # reads [collapsed], the bound itself does, as before
    ANALYZE_DIGESTS = {
        0.0: ("20488a5c8c87ffa8d94a0828e6c9ef7a17778d904c3c300da6335fb0561bed97",
              "4e5159d5ba96c5dc760d494ffc79583f70705346387f5ef4c1e16edf7b742593"),
        0.05: ("6cee0c86f51af4d2372ba8fe85d81d5feb2d332e1e17c5a2d60582c2c7d7259f",
               "c7adb52cf7904da2dc27fc485ea8216e48d475f037b53445e4b3a903467b2a25"),
        0.12: ("9e7583fc3b64053f8019051267944874012e0c07ecd022ad4753c763671d95b9",
               "9044b663f13872c546da11688978b0341c88ae61e644b2a0494d71a68484e31e"),
        0.2: ("a1e66d2bf9f5588e86632d9b8f963359f966d450ff039299ae62d019c27a8b17",
              "4751dc1ad553a1196ebf7bb703112d31c611e6b468cb390001a955dcfc2fa193"),
        1.3636363636363635: (
            "9b070fe8bfaf9027cb2bde73d5e1d12efb5662d7c90fcd2360bd7c7da7d71148",
            "610d87f8fd38abd11e75b2c6b6e299e35165e442eb4b3a5d7de01c4549475f8e"),
        1.3636363636363638: (
            "39df0ad148ec5df45036709148dec666351c09865a9bc59c698c3191ca7cd21e",
            "9a23f79ed1df06b12b3186a759cb387d2d6c40827abda418e8f3dc4d331333e5"),
    }
    SWEEP_DIGEST = "ac7302269f84df3e14e20f52ea52f84aab3e0b539bdc56c395995b249b01c5e0"

    @pytest.mark.parametrize("c", sorted(ANALYZE_DIGESTS))
    def test_analyze_bytes(self, c, capsys):
        digests = []
        for json_flag in ((), ("--json",)):
            code, out, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                                   "--control", repr(c), *json_flag)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == self.ANALYZE_DIGESTS[c]

    def test_sweep_bytes(self, tmp_path, capsys):
        assert run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                       "--out", str(tmp_path))[0] == 0
        digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == self.SWEEP_DIGEST


class TestCollapseEdge:
    """The built-in scenario's collapse bound is 1.3636363636363638, the least
    double with an exact viability margin <= 0.  At the double below it the
    exact margin is +4.0e-17 while the float formula gives -3.1e-17; the
    report reads the exact sign, at the control and in its threshold section."""

    BELOW, BOUND = "1.3636363636363635", "1.3636363636363638"
    RHO_NOTE = ("no endemic equilibrium in the admissible region: "
                "rho = R0^2*mu_m/(mu_m + c) = 2.34783e-19 <= 1")

    def analyze(self, capsys, c, *flags):
        code, out, err = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                                 "--control", c, *flags)
        assert code == 0 and err == ""
        return out

    def test_below_the_bound_is_viable(self, capsys):
        lines = self.analyze(capsys, self.BELOW).splitlines()
        for line in ("mosquito viability margin = 4.0043725910911894e-17",
                     "R0 (spectral)    = 1.938178269374042e-09",
                     "R0 (closed form) = 1.938178269374042e-09",
                     "    stability: asymptotically stable  (R0 at point = 1.938178269374042e-09)",
                     "  endemic: " + self.RHO_NOTE,
                     "  mosquito collapse bound c = 1.3636363636363638"):
            assert line in lines
        assert sum(line.startswith("  [brdfe] ") for line in lines) == 1
        assert not any("[collapsed]" in line for line in lines)
        doc = json.loads(self.analyze(capsys, self.BELOW, "--json"))
        assert doc["viability"] == 4.0043725910911894e-17 and doc["collapsed"] is False
        assert doc["r0_spectral"] == doc["r0_closed_form"] == 1.938178269374042e-09
        assert [(e["kind"], e["classification"]) for e in doc["equilibria"]] == [
            ("trivial", "unstable"), ("brdfe", "asymptotically stable")]
        assert doc["endemic_note"] == self.RHO_NOTE
        assert doc["threshold"]["collapse_bound"] == float(self.BOUND)

    def test_at_the_bound_collapses(self, capsys):
        out = self.analyze(capsys, self.BOUND)
        assert "mosquito viability margin = -8.673617379884035e-17  [collapsed]\n" in out
        assert "[brdfe]" not in out and "R0 (spectral)    = n/a\n" in out
        doc = json.loads(self.analyze(capsys, self.BOUND, "--json"))
        assert doc["viability"] == -8.673617379884035e-17 and doc["collapsed"] is True
        assert [(e["kind"], e["classification"]) for e in doc["equilibria"]] == [
            ("trivial", "asymptotically stable")]


def per_value_csv(traj):
    """The oracle: each row formatted on its own, value by value."""
    rows = zip(traj.times.tolist(), traj.as_array().tolist())
    return "\n".join([cli.CSV_HEADER] + [",".join(map(repr, (t, *row))) for t, row in rows]) + "\n"


def hand_built(rows):
    values = np.array(rows, dtype=float).reshape(-1, 9)
    return Trajectory(rows=array("d", values.tobytes()), step_stats=StepStats(0, 0, 1, 0.0, 0.0))


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
        monkeypatch.setattr(cli, "_DENSE_CHUNK", 7)
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

    # the built-in scenario with one key changed: the float quadratic refused the
    # first two (exit 2), lost R0's denominator to underflow in the third (exit 3)
    # and put c* one double low in the fourth, where R0 drops from 1e294 to collapse
    @pytest.mark.parametrize("values, bracket", [
        ({"nu_h": "1e303"}, "[0.1569805113609391, 0.15698101136093912]  (width 5e-07"),
        ({"mu_b": "1e304"}, "[0.1850218199986781, 0.1850223199986781]  (width 5e-07"),
        ({"mu_m": "1e-162"}, "[1.4545452045454543, 1.4545454545454546]  (width 2.5e-07"),
        ({"B": "1e303"}, "[1.3636361136363635, 1.3636363636363638]  (width 2.5e-07"),
    ])
    def test_exact_threshold_at_extreme_rates(self, values, bracket, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with(values))
        code, out, err = run_cli(capsys, "threshold", "--scenario", str(path))
        assert (code, err) == (0, "")
        assert f"\nbracket = {bracket} <= tol 1e-06)\n" in out

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


def sweep_grid_loop(c_min, c_max, c_step):
    """The sweep grid as an append loop, the oracle of ``cli._sweep_grid``."""
    stop = c_max + min(1e-12 * max(1.0, abs(c_max)), 0.5 * c_step)
    grid = []
    i = 0
    while (c := c_min + i * c_step) <= stop:
        grid.append(min(c, c_max))
        i += 1
    return grid


class TestSweep:
    @pytest.mark.parametrize("c_min, c_max, c_step", (
        (0.0, 0.0, 0.05), (0.3, 0.3, 0.1), (0.0, -0.0, 0.1),   # zero width
        (0.0, 0.30000000000000004, 0.1), (0.0, 0.3 + 1e-13, 0.1),  # just past 3 steps
        (0.0, 1.0, 1 / 3), (0.1, 2.0, 1 / 3), (0.0, 2.0, 0.01), (0.0, 1.5, 0.00015),
        (0.1, 0.1, 1e-13), (0.0, 0.0, 1e-300), (3.0, 3.0, 1e-12),  # steps below the slack
    ))
    def test_grid_matches_append_loop_on_edge_grids(self, c_min, c_max, c_step):
        assert (list(map(repr, cli._sweep_grid(c_min, c_max, c_step)))
                == list(map(repr, sweep_grid_loop(c_min, c_max, c_step))))

    def test_grid_matches_append_loop_on_seeded_grids(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            c_min = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            c_max = c_min + float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            c_step = float(10.0 ** rng.uniform(-3.0, 0.5))
            assert (list(map(repr, cli._sweep_grid(c_min, c_max, c_step)))
                    == list(map(repr, sweep_grid_loop(c_min, c_max, c_step))))

    @settings(max_examples=300, deadline=None)
    @given(c_min=st.floats(0.0, 1e6), width=st.one_of(st.just(0.0), st.floats(0.0, 1e-12),
                                                      st.floats(0.0, 10.0)),
           ulps=st.one_of(st.floats(0.0, 16.0), st.floats(0.0, 1e12)))
    def test_accepted_grids_strictly_increase(self, c_min, width, ulps):
        c_max = c_min + width
        c_step = ulps * math.ulp(c_max)
        try:
            grid = list(cli._sweep_grid(c_min, c_max, c_step))
        except ScenarioError:
            return
        assert grid and all(a < b for a, b in zip(grid, grid[1:]))

    # a step under 4 ulps of c-max used to repeat levels: two 1.0 rows for the
    # first grid, 114 rows over 6 distinct levels for the second
    @pytest.mark.parametrize("c_max", ("1", "1.000000000000001"))
    def test_step_below_four_ulps_of_c_max_rejected(self, c_max, tmp_path, capsys):
        code, out, err = run_cli(capsys, "sweep", "--builtin", "capeverde2009", "--c-min", "1",
                                 "--c-max", c_max, "--c-step", "1e-17", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: invalid sweep grid: c-step 1e-17")
        assert "2.220446049250313e-16" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_step_of_four_ulps_of_c_max_accepted(self):
        step = 4.0 * math.ulp(1.0)
        assert list(cli._sweep_grid(1.0, 1.0, step)) == [1.0]
        assert (list(cli._sweep_grid(1.0, 1.0 + 2 * step, step))
                == [1.0, 1.0 + step, 1.0 + 2 * step])

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

    @pytest.mark.parametrize("c, c_step", (("0.1", "1e-13"), ("0", "1e-300")))
    def test_step_below_the_end_slack_gives_one_row(self, c, c_step, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--builtin", "capeverde2009", "--c-min", c,
                             "--c-max", c, "--c-step", c_step, "--out", str(tmp_path))
        assert code == 0
        _, rows = read_csv_rows(tmp_path / "sweep.csv")
        assert [row[0] for row in rows] == [repr(float(c))]

    # brdfe_stable is R0 < 1, also where the Jacobian at the disease-free
    # point overflows or its eigenvalues cannot resolve the sign of the abscissa
    @pytest.mark.parametrize("values, row", [
        ({"B": "1e303"}, "0.0,2.396084838081026e+303,false,false"),
        ({"mu_b": "1e308"}, "0.0,2.4746657797301097,false,false"),
        ({"mu_b": "1e308"}, "0.2,0.9546230496222703,true,false"),
        # the eigensolver's abscissa is -3.9e-5 here, though R0 > 1
        ({"nu_h": "5.698401065858151e-191", "K": "8.594060525582403e+296",
          "B": "1.2274103995950326e-06"}, "0.0,8.731635034714375e+46,false,false"),
        # the spectrum is strictly negative, but -mu_h lies inside the margin band
        ({"mu_h": "1.3320455243803204e-51"}, "0.2,0.8539561296861633,true,false"),
    ])
    def test_stable_column_is_r0_below_one(self, values, row, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with(values))
        code, _, err = run_cli(capsys, "sweep", "--scenario", str(path),
                               "--out", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        assert row in (tmp_path / "out" / "sweep.csv").read_text().splitlines()

    def test_table_is_written_in_chunks(self, tmp_path, capsys, monkeypatch):
        # 101 levels past the collapse bound; in 7-level chunks they reach the
        # file as 15 parts after the header, with the same bytes as in one
        argv = ("sweep", "--builtin", "capeverde2009", "--c-max", "1.5", "--c-step", "0.015")
        code, whole, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "whole"))
        assert code == 0
        monkeypatch.setattr(cli, "_DENSE_CHUNK", 7)
        written = []
        write = cli._write_atomic

        def recording_write(path, parts):
            parts = list(parts)
            written.append(len(parts))
            write(path, parts)

        monkeypatch.setattr(cli, "_write_atomic", recording_write)
        out_path = tmp_path / "chunked" / "sweep.csv"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path.parent))
        text = out_path.read_text()
        assert code == 0 and written == [1 + 15]
        assert text == (tmp_path / "whole" / "sweep.csv").read_text()
        assert out == f"wrote {out_path}\n" + text
        assert whole == f"wrote {tmp_path / 'whole' / 'sweep.csv'}\n" + text
        assert text.count("\n") == 102 and text.endswith(",,,true\n")

    def test_failure_mid_grid_leaves_no_table(self, tmp_path, capsys, monkeypatch):
        # the third 7-level chunk fails after two were written to the temporary
        # file: no sweep.csv and nothing on stdout, only the created directory
        from dengue_control import threshold

        r0 = threshold._r0     # r0_profile's R0 at its checked level

        def r0_refused_past_0_2(p, c):
            if c > 0.2:
                raise NumericalFailure("R0 refused")
            return r0(p, c)

        monkeypatch.setattr(cli, "_DENSE_CHUNK", 7)
        monkeypatch.setattr(threshold, "_r0", r0_refused_past_0_2)
        code, out, err = run_cli(capsys, "sweep", "--builtin", "capeverde2009",
                                 "--c-step", "0.015", "--out", str(tmp_path / "out"))
        assert (code, out, err) == (3, "", "error: R0 refused at c = 0.21\n")
        assert list((tmp_path / "out").iterdir()) == []

    def test_memory_stays_flat_over_ten_to_the_five_levels(self, tmp_path):
        # 100,001 levels make a 3.9 MB table; the grid, the points, the lines
        # and the text were each held whole (27 MB of growth), now one chunk is.
        # Peak RSS (KiB on Linux) is measured in a grandchild: a process starts
        # with its parent's peak, and the test runner's is above a sweep's
        child = textwrap.dedent("""
            import contextlib, os, resource, sys
            from dengue_control import cli
            argv = ["sweep", "--builtin", "capeverde2009", "--out", sys.argv[1]]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert cli.main(argv) == 0
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                assert cli.main([*argv, "--c-max", "1.5", "--c-step", "1.5e-5"]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        launch = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]])"
        proc = subprocess.run([sys.executable, "-c", launch, "-c", child, str(tmp_path)],
                              capture_output=True, text=True, timeout=60, check=True)
        assert (tmp_path / "sweep.csv").stat().st_size > 3_800_000
        assert int(proc.stdout) < 8 * 1024

    @pytest.mark.parametrize("grid", (
        ("--c-max", "inf"), ("--c-min", "nan"), ("--c-step", "nan"), ("--c-step", "1e-300"),
        ("--c-step", "inf"),
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

    @pytest.mark.parametrize("c, residual", [
        ("0.05", "1.639e-01"), ("0.12", "3.724e-01"), ("0.2", "5.808e-01")])
    def test_warning_is_one_line(self, c, residual, capsys):
        code, _, err = run_cli(capsys, "analyze", "--builtin", "capeverde2009",
                               "--control", c)
        assert code == 0
        assert err == (f"warning: classifying a state with relative residual {residual}; "
                       "it is not an exact fixed point of this flow\n")

    def test_only_the_brdfe_entry_warns_at_extreme_rates(self, tmp_path, capsys):
        # the adult outflow rounds to 0 in floats and rho < 1 < R0: there is
        # no endemic entry, its note names rho, and only the brdfe entry warns
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with({"mu_m": "1e-155", "eta_m": "1e-117"}))
        code, out, err = run_cli(capsys, "analyze", "--scenario", str(path), "--control", "0.05")
        assert code == 0
        assert err.splitlines() == [
            "warning: classifying a state with relative residual 1.593e+153; "
            "it is not an exact fixed point of this flow"]
        assert "[endemic]" not in out
        assert "\n  endemic: no endemic equilibrium in the admissible region: rho = " in out
        # the threshold search takes R0(0) from the exact sides of R0^2, where the
        # float denominator underflows
        assert "minimum control c* = 1.4545454545454544  (R0 at c* = " in out

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

    def test_non_finite_values_are_null_in_strict_json(self, tmp_path, capsys):
        # mu_b*eta_A is subnormal, so the offspring ratio overflows to inf
        path = write_variant(tmp_path, {"mu_b = 6.0": "mu_b = 1e-310"})
        code, json_out, _ = run_cli(capsys, "analyze", "--scenario", str(path), "--json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")
        doc = json.loads(json_out, parse_constant=reject)
        assert doc["offspring_ratio"] is None and doc["collapsed"] is True
        _, text_out, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        assert "basic offspring ratio = n/a" in text_out

    def test_scenario_file_matches_builtin(self, tmp_path, capsys):
        path = write_variant(tmp_path, {})
        _, out_file, _ = run_cli(capsys, "analyze", "--scenario", str(path))
        _, out_builtin, _ = run_cli(capsys, "analyze", "--builtin", "capeverde2009")
        strip = lambda s: "\n".join(s.splitlines()[1:])   # scenario name differs
        assert strip(out_file) == strip(out_builtin)

    def test_ill_conditioned_endemic_root(self, tmp_path, capsys):
        # the Jacobian at this root has a condition number of about 5e114,
        # where a damped Newton on float solves stalls; the rounded exact
        # root has a zero float residual
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with({"B": "9.352478863310842e44",
                                           "K": "8.12056863434795e75"}))
        code, out, _ = run_cli(capsys, "analyze", "--scenario", str(path), "--control", "0.12")
        assert code == 0
        assert "\n  [endemic] residual = 0.0 " in out and "endemic:" not in out


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
        # R0**2 overflows in floats; the exact closed form is finite
        assert "[endemic]" in out and "endemic:" not in out

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

    def test_appended_end_over_grid_cap_is_config_error(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"t_end = 100.0": "t_end = 999999.5",
                                        "output_step = 0.5": "output_step = 1.0"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: output grid needs") and err.count("\n") == 1
        assert not (tmp_path / "trajectory.csv").exists()

    def test_not_utf8_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"N_h = 1\xff\n")
        code, _, err = run_cli(capsys, "threshold", "--scenario", str(path))
        assert code == 2
        assert err == f"error: scenario file {path} is not UTF-8: 'utf-8' codec can't " \
                      "decode byte 0xff in position 7: invalid start byte\n"

    def test_window_beyond_step_cap_is_config_error(self, tmp_path, capsys):
        path = write_variant(tmp_path, {"t_end = 100.0": "t_end = 1e9",
                                        "output_step = 0.5": "output_step = 1e4"})
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: the window needs at least 1e+09 steps")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("t0, t_end", (
        ("1099511627776.0", "1099511627840.0"), ("1e15", "1000000000000000.3")))
    def test_window_doubles_cannot_resolve_is_config_error(self, t0, t_end, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with({"t0": t0, "t_end": t_end, "output_step": "0.1"}))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error: doubles near the window's times are ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        # R0's float denominator underflows; the threshold's integer quadratic does not
        ("threshold", {"mu_m": "1e-320"}, 0, "c* = 1.454545\n"),
        ("sweep", {"mu_h": "1e-320", "mu_m": "1e-300"}, 3,
         "basic reproduction number undefined"),
        ("analyze", {"beta_hm": "0", "mu_m": "1e-300"}, 3,
         "basic reproduction number undefined"),
        ("analyze", {"mu_b": "1e-160", "eta_A": "1e-160", "mu_m": "1e-300", "mu_A": "1e-300"},
         3, "disease-free state undefined: mu_b*mu_m underflows"),
        ("analyze", {"mu_b": "5e-324"}, 0, "basic offspring ratio = n/a"),
        # mu_h*nu_h underflows in floats; the exact closed form has a root
        ("analyze", {"mu_h": "1e-200", "nu_h": "1e-200"}, 0, "[endemic]"),
        # rho < 1 < R0 at c = 0.05, where the adult outflow rounds to 0 in
        # floats; the threshold search reads R0 at c = 0 exactly
        ("analyze", {"mu_m": "1e-155", "eta_m": "1e-117", "c": "0.05"}, 0,
         "minimum control c* = 1.4545454545454544 "),
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

    # R0(0) = nan (both products of R0 overflow), and R0(0) = inf with R0
    # finite near the collapse bound (K stays k*N_h as N_h grows); the
    # threshold is exact on integers and certifies both
    @pytest.mark.parametrize("values", [
        {"eta_m": "1e300", "mu_b": "1.7e308"},
        {"mu_m": "1e-160", "beta_hm": "1", "N_h": "7.8e162", "K": "2.34e163"},
    ])
    @pytest.mark.parametrize("command", ["threshold", "analyze", "sweep"])
    def test_overflowing_reproduction_number(self, command, values, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with(values))
        out_dir = ["--out", str(tmp_path / "out")] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *out_dir)
        if command == "threshold":
            assert code == 0 and err == "" and out.startswith("c* = ")
            return
        assert code == 3
        assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines())
        assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1

    def test_sweep_names_the_control_level_of_a_non_finite_r0(self, tmp_path, capsys):
        path = tmp_path / "variant.txt"
        path.write_text(builtin_text_with({"eta_m": "1e300", "mu_b": "1.7e308"}))
        code, out, err = run_cli(capsys, "sweep", "--scenario", str(path), "--c-min", "0.1",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == ("error: basic reproduction number is not finite (nan): "
                       "a product of rates overflows at c = 0.1\n")

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

    @pytest.mark.parametrize("replacement, state", [
        ({"\nB = 1.0\n": "\nB = 1e303\n"}, "trivial"),
        ({"mu_b = 6.0": "mu_b = 1e308"}, "brdfe"),
    ])
    def test_overflow_is_numerical_failure(self, replacement, state, tmp_path):
        path = write_variant(tmp_path, replacement)
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", "analyze", "--scenario", str(path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and f"the {state} state" in errors[0]
        assert all(line.startswith(("error: ", "warning: "))
                   for line in proc.stderr.splitlines())

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
    @example(run=("analyze", {"B": "1e-100", "beta_mh": "1e-100", "eta_m": "1e-130",
                              "mu_m": "1e-200", "mu_b": "1e300"}, []))
    # exact stability and the correctly rounded spectral R0 at extreme rates
    @example(run=("analyze", {"B": "1e100"}, []))
    @example(run=("analyze", {"eta_h": "1e-320", "mu_h": "1e-320"}, []))
    @example(run=("analyze", {"mu_m": "1e-162"}, []))
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


class TestProcessInvocation:
    def test_module_runner_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dengue_control.cli", "threshold",
             "--builtin", "capeverde2009"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "c* = 0.156961"

    @pytest.mark.parametrize("command, first_line", [
        ("threshold", "c* = 0.156961"),
        ("sweep", "0.0,2.396084838081026,false,false"),
        ("simulate", "0.0,479350.0,216.0,434.0,0.0,1440000.0,2880000.0,0.0,0.0"),
        ("simulate --svg", '<svg xmlns="http://www.w3.org/2000/svg" width="920" height="340" '
                           'viewBox="0 0 920 340" font-family="Helvetica, Arial, sans-serif">'),
        ("analyze", "scenario: capeverde2009"),
        ("analyze --json", "{"),
    ])
    def test_command_without_numpy(self, command, first_line, tmp_path):
        # the second line of the output file, or else the first line of stdout
        output = {"sweep": "sweep.csv", "simulate": "trajectory.csv",
                  "simulate --svg": "compartments.svg"}.get(command)
        out = ["--out", str(tmp_path)] if output else []
        proc = run_without_numpy("-m", "dengue_control.cli", *command.split(),
                                 "--builtin", "capeverde2009", *out)
        assert proc.returncode == 0
        lines = ((tmp_path / output).read_text().splitlines()[1:] if output
                 else proc.stdout.splitlines())
        assert lines[0] == first_line
        if command == "threshold":          # the exact threshold reads model only
            assert "dengue_control.stability" not in proc.stderr
        if command.startswith("simulate"):  # the SVG renderer loads under --svg only
            assert ("dengue_control.svgplot" in proc.stderr) == command.endswith("--svg")
        if command.startswith("analyze"):   # the whole report, byte for byte
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() \
                == TestGoldenOutput.ANALYZE_DIGESTS[0.0][command.endswith("--json")]

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
        assert len(dengue_control.__all__) == len(set(dengue_control.__all__)) == 42
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
