import numpy as np

from conftest import CAPE_VERDE, CAPE_VERDE_X0
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.svgplot import _nice_ticks, render_trajectory_svg


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
