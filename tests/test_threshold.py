import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CAPE_VERDE, draw_params, params_with
from dengue_control.errors import MosquitoCollapseError, ScenarioError
from dengue_control.reproduction import r0_closed_form, r0_spectral
from dengue_control.threshold import (
    NoControlNeeded,
    ThresholdResult,
    collapse_control_bound,
    min_control,
    r0_profile,
)


class TestMinControl:
    def test_cape_verde_threshold(self):
        result = min_control(CAPE_VERDE, tol=1e-6)
        assert isinstance(result, ThresholdResult)
        assert result.c_star == pytest.approx(0.156961, abs=1e-4)

    def test_certificate_invariants(self):
        result = min_control(CAPE_VERDE, tol=1e-6)
        lo, hi = result.bracket
        assert lo <= result.c_star <= hi
        assert hi - lo <= 1e-6
        assert r0_closed_form(CAPE_VERDE, lo) > 1.0 > r0_closed_form(CAPE_VERDE, hi)
        assert abs(result.r0_at_c_star - 1.0) < 1e-6
        assert result.iterations > 0

    def test_coarse_tolerance_still_certifies(self):
        result = min_control(CAPE_VERDE, tol=1e-2)
        lo, hi = result.bracket
        assert hi - lo <= 1e-2
        assert abs(result.r0_at_c_star - 1.0) < 1e-6

    def test_consistency_with_reproduction_module(self):
        result = min_control(CAPE_VERDE, tol=1e-6)
        assert r0_closed_form(CAPE_VERDE, result.c_star + 1e-5) < 1.0
        assert r0_closed_form(CAPE_VERDE, result.c_star - 1e-5) > 1.0

    def test_no_control_needed_without_transmission(self):
        result = min_control(params_with(beta_mh=0.0))
        assert isinstance(result, NoControlNeeded)
        assert result.r0_at_zero == 0.0

    def test_no_control_needed_when_population_collapses(self):
        result = min_control(params_with(mu_b=0.1))
        assert isinstance(result, NoControlNeeded)
        assert result.r0_at_zero is None

    def test_monotone_bracket_endpoints(self):
        assert r0_closed_form(CAPE_VERDE, 0.0) - 1.0 == pytest.approx(1.396, abs=1e-3)
        assert r0_closed_form(CAPE_VERDE, 0.3) - 1.0 < 0.0

    def test_solver_agnostic_root(self):
        # an independent bisection driven by the spectral route lands on
        # the same threshold
        tol = 1e-6
        lo, hi = 0.0, collapse_control_bound(CAPE_VERDE) * (1.0 - 1e-12)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if r0_spectral(CAPE_VERDE, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        spectral_root = 0.5 * (lo + hi)
        closed_root = min_control(CAPE_VERDE, tol=tol).c_star
        assert abs(spectral_root - closed_root) <= 2.0 * tol

    def test_invalid_tolerance(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                min_control(CAPE_VERDE, tol=bad)


class TestCollapseBound:
    def test_formula_and_value(self):
        p = CAPE_VERDE
        expected = p.eta_A * p.mu_b / (p.eta_A + p.mu_A) - p.mu_m
        bound = collapse_control_bound(p)
        assert bound == pytest.approx(expected, rel=1e-12)
        assert bound == pytest.approx(1.3636, abs=1e-4)


class TestR0Profile:
    def test_single_point_grid(self):
        points = r0_profile(CAPE_VERDE, [0.0])
        assert len(points) == 1
        assert points[0].c == 0.0
        assert not points[0].collapsed
        assert points[0].r0 == pytest.approx(2.396, abs=1e-3)

    def test_strictly_decreasing_over_grid(self):
        grid = np.arange(0.0, 0.3 + 1e-12, 0.01)
        points = r0_profile(CAPE_VERDE, grid)
        values = [pt.r0 for pt in points]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_collapse_flag_beyond_bound(self):
        bound = collapse_control_bound(CAPE_VERDE)
        points = r0_profile(CAPE_VERDE, [bound * 0.99, bound * 1.01, 2.0])
        assert [pt.collapsed for pt in points] == [False, True, True]
        assert points[1].r0 is None

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            r0_profile(CAPE_VERDE, [-0.1])


class TestSteepReproductionNumber:
    """Large bite rates push the threshold to within a few ulps of the
    collapse bound, where R0 is steeper than float resolution."""

    @pytest.mark.parametrize("bites", [1e7, 1e12])
    def test_threshold_below_collapse_bound(self, bites):
        p = params_with(B=bites)
        result = min_control(p)
        assert isinstance(result, ThresholdResult)
        lo, hi = result.bracket
        assert lo <= result.c_star < collapse_control_bound(p)
        assert hi <= collapse_control_bound(p)
        assert r0_closed_form(p, lo) > 1.0

    @given(seed=st.integers(0, 2**32 - 1), log_bites=st.floats(0.0, 14.0))
    def test_always_a_certified_outcome(self, seed, log_bites):
        p = dataclasses.replace(draw_params(np.random.default_rng(seed)), B=10.0 ** log_bites)
        result = min_control(p)
        if isinstance(result, NoControlNeeded):
            assert result.r0_at_zero <= 1.0
            return
        lo, hi = result.bracket
        assert lo <= result.c_star < hi <= collapse_control_bound(p)
        assert hi - lo <= 1e-6
        assert r0_closed_form(p, lo) > 1.0


def bisect_to_one_ulp(p):
    """Float bisection of R0(c) - 1 on [0, c_collapse] down to one ulp: the
    largest c it finds with R0 > 1, the oracle for the closed-form root."""
    def r0(c):
        try:
            return r0_closed_form(p, c)
        except MosquitoCollapseError:
            return 0.0

    lo, hi = 0.0, collapse_control_bound(p)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if r0(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return lo


class TestClosedFormRoot:
    def test_exact_root_on_cape_verde(self):
        result = min_control(CAPE_VERDE)
        assert result.c_star == pytest.approx(0.15696101137179114, rel=1e-14)
        assert result.iterations == 2

    @pytest.mark.parametrize("tol", [1e-6, 1e308])
    def test_underflowing_rate_product_is_refused(self, tol):
        # mu_m*(mu_m+eta_m) underflows to 0 while R0(0) stays finite; with a
        # tolerance wider than [0, c_collapse] only c* itself shows the fault
        p = params_with(mu_b=1e300, mu_m=1e-162, eta_m=1e-162, K=1e-14)
        with pytest.raises(ScenarioError, match="c\\* = nan"):
            min_control(p, tol=tol)

    # at B = 1e12 R0 falls through one between neighbouring floats, so only
    # the bracket width fails the certificate
    @pytest.mark.parametrize("bites, tol", [(1.0, 1e-16), (1.0, 1e-300), (1e12, 1e-300)])
    def test_tolerance_below_float_resolution_is_refused(self, bites, tol):
        with pytest.raises(ScenarioError, match=f"tolerance {tol:g}"):
            min_control(params_with(B=bites), tol=tol)

    def test_upper_end_is_checked(self):
        # on some draws R0 still rounds above one at the float just past c*:
        # a bracket of one float each side of c* must then be refused
        rng = np.random.default_rng(0)
        refused = 0
        for p in (draw_params(rng) for _ in range(200)):
            result = min_control(p)
            if not isinstance(result, ThresholdResult):
                continue
            c = result.c_star
            if (r0_closed_form(p, math.nextafter(c, 0.0)) > 1.0
                    and r0_closed_form(p, math.nextafter(c, math.inf)) > 1.0):
                with pytest.raises(ScenarioError):
                    min_control(p, tol=3.0 * math.ulp(c))
                refused += 1
        assert refused > 0

    def test_finest_resolvable_tolerance_certifies(self):
        lo, hi = min_control(CAPE_VERDE, tol=1e-15).bracket
        assert hi - lo <= 1e-15
        assert r0_closed_form(CAPE_VERDE, lo) > 1.0 >= r0_closed_form(CAPE_VERDE, hi)

    @given(seed=st.integers(0, 2**32 - 1),
           log_bites=st.one_of(st.floats(0.0, 14.0), st.floats(0.0, 160.0)))
    def test_agrees_with_bisection_oracle(self, seed, log_bites):
        p = dataclasses.replace(draw_params(np.random.default_rng(seed)), B=10.0 ** log_bites)
        for tol in (1e-2, 1e-6, 1e-12):
            result = min_control(p, tol=tol)
            if isinstance(result, NoControlNeeded):
                assert result.r0_at_zero <= 1.0
                return
            lo, hi = result.bracket
            assert lo <= result.c_star < hi <= collapse_control_bound(p)
            assert hi - lo <= tol
            assert r0_closed_form(p, lo) > 1.0
            # near c = 0 the oracle is only as sharp as R0's rounding, a few
            # 1e-17 per day, hence the absolute floor
            assert result.c_star == pytest.approx(bisect_to_one_ulp(p), rel=1e-12, abs=1e-15)
