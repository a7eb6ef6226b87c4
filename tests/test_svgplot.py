import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ADVERSARIAL_DOUBLES, CAPE_VERDE, CAPE_VERDE_X0
from dengue_control import svgplot
from dengue_control.integrator import _DENSE_CHUNK, SolverConfig, StepStats, Trajectory, integrate
from dengue_control.svgplot import _nice_ticks, _points, _x_text, render_trajectory_svg

CHUNK_SIZES = (1, _DENSE_CHUNK - 1, _DENSE_CHUNK, _DENSE_CHUNK + 1)
# Pixel columns as the vectorized mapping and the per-row one give them
PIXELS = (np.asarray, lambda col: array("d", col))


def per_point_fstrings(xs, ys):
    """The oracle: each point formatted on its own with an f-string."""
    return " ".join(f"{X:.2f},{Y:.2f}" for X, Y in zip(xs.tolist(), ys.tolist()))


def _adversarial_trajectory(n):
    """n report rows 0.05 day apart whose states cycle through the finite
    adversarial doubles."""
    finite = [v for v in ADVERSARIAL_DOUBLES if math.isfinite(v)]
    table = np.column_stack((0.05 * np.arange(n), np.resize(np.array(finite), (n, 8))))
    return Trajectory(rows=array("d", table.tobytes()), step_stats=StepStats(0, 0, 1, 0.0, 0.0))


class TestNiceTicks:
    def test_covers_range_with_round_steps(self):
        ticks = _nice_ticks(0.0, 100.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 100.0 + 1e-9
        steps = np.diff(ticks)
        assert np.allclose(steps, steps[0])
        assert 3 <= len(ticks) <= 8

    def test_degenerate_range(self):
        assert _nice_ticks(5.0, 5.0) == [5.0]

    def test_small_magnitudes(self):
        ticks = _nice_ticks(0.0, 0.003)
        assert all(0.0 <= t <= 0.003 + 1e-12 for t in ticks)

    def test_step_below_half_an_ulp_of_the_start(self):
        # the tick step 5e-8 is below half an ulp of 1e9, so t += step
        # cannot move past the first tick
        assert _nice_ticks(1e9, 1e9 + 2.384185791015625e-07) == [1e9]


class TestRenderTrajectorySvg:
    def test_full_chart_structure(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=20.0))
        svg = render_trajectory_svg(traj, title="case study")
        assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 8
        assert svg.count("time (days)") == 2
        assert "case study" in svg

    def test_single_point_trajectory_renders(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=0.0))
        svg = render_trajectory_svg(traj)
        assert svg.count("<polyline") == 8


class TestPointFormatting:
    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_adversarial_values_match_per_point_fstrings(self, n):
        values = np.resize(np.array(ADVERSARIAL_DOUBLES), 2 * n)
        for pixels in PIXELS:
            xs, ys = pixels(values[:n]), pixels(values[n:][::-1].copy())
            x_text = _x_text(xs)
            # one string per chunk, not a string per point
            assert len(x_text) == -(-n // _DENSE_CHUNK)
            assert all(type(text) is str for text in x_text)
            assert "".join(_points(x_text, ys)) == per_point_fstrings(xs, ys)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=40))
    def test_any_doubles_match_per_point_fstrings(self, points, monkeypatch):
        # a 7-row chunk, so that the drawn points span several chunks
        monkeypatch.setattr(svgplot, "_DENSE_CHUNK", 7)
        for pixels in PIXELS:
            xs, ys = (pixels(np.array(col, dtype=float)) for col in zip(*points))
            assert "".join(_points(_x_text(xs), ys)) == per_point_fstrings(xs, ys)

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_chart_matches_per_point_formatting(self, n, monkeypatch):
        traj = _adversarial_trajectory(n)
        svg = render_trajectory_svg(traj, title="chunks")
        assert svg.count("<polyline") == 8
        with monkeypatch.context() as m:
            # the oracle formats every x and y of every polyline on its own
            m.setattr(svgplot, "_x_text", lambda xs: xs)
            m.setattr(svgplot, "_points", per_point_fstrings)
            assert svg == render_trajectory_svg(traj, title="chunks")
        # the per-row pixel mapping gives the bytes of the vectorized one
        monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: False)
        assert svg == render_trajectory_svg(traj, title="chunks")

    @pytest.mark.parametrize("numpy_loaded", (True, False))
    def test_panel_polylines_share_one_time_text(self, numpy_loaded, monkeypatch):
        traj = _adversarial_trajectory(_DENSE_CHUNK + 1)
        monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: numpy_loaded)
        calls = []
        monkeypatch.setattr(svgplot, "_x_text", lambda xs: calls.append(xs) or _x_text(xs))
        svg = render_trajectory_svg(traj)
        assert len(calls) == 2  # the time pixels are formatted once per panel
        polylines = re.findall('<polyline points="([^"]*)"', svg)
        times = [[point.split(",")[0] for point in points.split(" ")] for points in polylines]
        assert len(times) == 8 and len(times[0]) == _DENSE_CHUNK + 1
        # each panel's four polylines carry the same x text
        assert times[0] == times[1] == times[2] == times[3]
        assert times[4] == times[5] == times[6] == times[7]
