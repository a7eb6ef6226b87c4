import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ADVERSARIAL_DOUBLES, CAPE_VERDE, CAPE_VERDE_X0
from dengue_control import svgplot
from dengue_control.integrator import _DENSE_CHUNK, SolverConfig, StepStats, Trajectory, integrate
from dengue_control.svgplot import _nice_ticks, _points, _x_formats, render_trajectory_svg

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


def _check_formats(formats, xs, chunk=_DENSE_CHUNK):
    """Each chunk's format holds one conversion per point, and each point's
    x text once, in order."""
    assert len(formats) == -(-len(xs) // chunk)  # one string per chunk, not per point
    for lo, fmt in zip(range(0, len(xs), chunk), formats):
        x = xs[lo:lo + chunk].tolist()
        assert type(fmt) is str
        assert fmt.count("%") == fmt.count(",%.2f") == len(x)
        assert fmt.replace(",%.2f", "").split() == [f"{v:.2f}" for v in x]


class TestPointFormatting:
    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_adversarial_values_match_per_point_fstrings(self, n):
        values = np.resize(np.array(ADVERSARIAL_DOUBLES), 2 * n)
        for pixels in PIXELS:
            xs, ys = pixels(values[:n]), pixels(values[n:][::-1].copy())
            formats = _x_formats(xs)
            _check_formats(formats, xs)
            assert "".join(_points(formats, ys)) == per_point_fstrings(xs, ys)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=40))
    def test_any_doubles_match_per_point_fstrings(self, points, monkeypatch):
        # a 7-row chunk, so that the drawn points span several chunks
        monkeypatch.setattr(svgplot, "_DENSE_CHUNK", 7)
        for pixels in PIXELS:
            xs, ys = (pixels(np.array(col, dtype=float)) for col in zip(*points))
            formats = _x_formats(xs)
            _check_formats(formats, xs, chunk=7)
            assert "".join(_points(formats, ys)) == per_point_fstrings(xs, ys)

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_chart_matches_per_point_formatting(self, n, monkeypatch):
        traj = _adversarial_trajectory(n)
        svg = render_trajectory_svg(traj, title="chunks")
        assert svg.count("<polyline") == 8
        with monkeypatch.context() as m:
            # the oracle formats every x and y of every polyline on its own
            m.setattr(svgplot, "_x_formats", lambda xs: xs)
            m.setattr(svgplot, "_points", per_point_fstrings)
            assert svg == render_trajectory_svg(traj, title="chunks")
        # the per-row pixel mapping gives the bytes of the vectorized one
        monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: False)
        assert svg == render_trajectory_svg(traj, title="chunks")

    @pytest.mark.parametrize("traj", [
        *map(_adversarial_trajectory, CHUNK_SIZES),
        integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0, output_step=0.05)),
    ], ids=[*map(str, CHUNK_SIZES), "cape-verde"])
    def test_per_row_pixels_are_the_vectorized_doubles(self, traj, monkeypatch):
        # bit for bit, not only to the two decimals the chart shows
        pixels = {}
        for numpy_loaded in (True, False):
            seen = pixels[numpy_loaded] = []
            monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: numpy_loaded)
            monkeypatch.setattr(svgplot, "_x_formats",
                                lambda xs: seen.append(xs) or _x_formats(xs))
            monkeypatch.setattr(svgplot, "_points",
                                lambda formats, ys: seen.append(ys) or _points(formats, ys))
            render_trajectory_svg(traj)
        assert len(pixels[True]) == len(pixels[False]) == 10  # per panel, x and four series
        for vectorized, per_row in zip(pixels[True], pixels[False]):
            assert type(per_row) is array
            assert per_row.tobytes() == np.ascontiguousarray(vectorized).tobytes()

    @pytest.mark.parametrize("numpy_loaded", (True, False))
    def test_panel_format_built_once_for_its_polylines(self, numpy_loaded, monkeypatch):
        traj = _adversarial_trajectory(_DENSE_CHUNK + 1)
        monkeypatch.setattr(svgplot, "_numpy_loaded", lambda: numpy_loaded)
        built, used = [], []
        monkeypatch.setattr(svgplot, "_x_formats",
                            lambda xs: built.append(_x_formats(xs)) or built[-1])
        monkeypatch.setattr(svgplot, "_points",
                            lambda formats, ys: used.append(formats) or _points(formats, ys))
        svg = render_trajectory_svg(traj)
        assert len(built) == 2  # the format is built once per panel
        assert all(len(formats) == 2 for formats in built)  # a chunk and one row
        # each panel's four polylines use its one format
        assert len(used) == 8
        assert all(formats is built[0] for formats in used[:4])
        assert all(formats is built[1] for formats in used[4:])
        polylines = re.findall('<polyline points="([^"]*)"', svg)
        times = [[point.split(",")[0] for point in points.split(" ")] for points in polylines]
        assert len(times) == 8 and len(times[0]) == _DENSE_CHUNK + 1
        assert times[0] == times[1] == times[2] == times[3]
        assert times[4] == times[5] == times[6] == times[7]
