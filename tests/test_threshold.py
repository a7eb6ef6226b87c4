import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CAPE_VERDE, draw_extreme, draw_params, params_with
from dengue_control.errors import MosquitoCollapseError, NumericalFailure, ScenarioError
from dengue_control.model import r0_closed_form, r0_factors
from dengue_control.stability import r0_spectral
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

    @pytest.mark.parametrize("p, grid, level", [
        # both products of R0 overflow: R0 = nan at every level
        (params_with(eta_m=1e300, mu_b=1.7e308), [0.5, 1.0], "0.5"),
        # R0 is finite for c > 0 and overflows to inf at c = 0
        (params_with(mu_m=1e-160, beta_hm=1.0, N_h=7.8e162, K=2.34e163), [1.0, 0.0], "0.0"),
    ])
    def test_non_finite_r0_names_its_control_level(self, p, grid, level):
        with pytest.raises(NumericalFailure, match=f"not finite .* at c = {level}$"):
            r0_profile(p, grid)


class TestSteepReproductionNumber:
    """Large bite rates push the threshold to within a few ulps of the
    collapse bound, where R0 is steeper than float resolution."""

    @pytest.mark.parametrize("p", [
        params_with(B=1e7), params_with(B=1e12),
        # the correctly rounded collapse bound, 1.6769632346526067, is c* itself,
        # where the exact margin is still positive; the least double with a
        # margin <= 0 is the next one up
        dataclasses.replace(draw_params(np.random.default_rng(1)), B=1e9),
    ], ids=["B=1e7", "B=1e12", "draw1-B=1e9"])
    def test_threshold_below_collapse_bound(self, p):
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
    def test_underflowing_rate_product_is_exact(self, tol):
        # mu_m*(mu_m+eta_m) underflows to 0 in floats, not in the integer form;
        # a tolerance wider than [0, c_collapse] brackets all of it
        p = params_with(mu_b=1e300, mu_m=1e-162, eta_m=1e-162, K=1e-14)
        result = min_control(p, tol=tol)
        assert result.c_star == 2.6512923545719024e-11
        assert result.bracket[1] == (2.500265129235457e-07 if tol == 1e-6
                                     else result.collapse_bound)
        assert_exact(p, result, tol)

    def test_underflowing_bite_product_is_exact(self):
        # B*beta_mh*eta_m = 1e-330 underflows to 0 in floats, not in the integer form
        p = params_with(B=1e-100, beta_mh=1e-100, eta_m=1e-130, mu_m=1e-200, mu_b=1e300)
        result = min_control(p)
        assert result.c_star == 5.195450742114664e-116
        assert_exact(p, result)

    def test_subnormal_denominator_of_r0_at_zero_control_certifies(self):
        # R0(0)'s float denominator holds mu_m^2 = 1e-320, a subnormal, so a
        # root taken from R0(0) in floats would miss by about 4e-5; the
        # quadratic of min_control has integer coefficients in the rates
        # (model._integer_form), where mu_m^2 is exact, so c* keeps its digits
        p = params_with(mu_m=1e-160, beta_hm=1.0, N_h=7.8e162)
        result = min_control(p)
        assert isinstance(result, ThresholdResult)
        lo, hi = result.bracket
        assert lo <= result.c_star < hi and hi - lo <= 1e-6
        assert r0_closed_form(p, lo) > 1.0 >= r0_closed_form(p, hi)
        assert r0_closed_form(p, result.c_star - 1e-7) > 1.0 > r0_closed_form(p, result.c_star + 1e-7)
        assert abs(result.c_star - bisect_to_one_ulp(p)) <= 1e-12

    @pytest.mark.parametrize("overrides", [
        dict(mu_m=1e-158, beta_hm=1.0, N_h=1e162),
        dict(mu_m=1e-161, beta_hm=1.0, N_h=1e197, B=0.5, beta_mh=0.2),
        dict(mu_m=1e-160, beta_hm=1.0, N_h=1e195),
    ])
    def test_root_matches_bisection_where_r0_at_zero_loses_digits(self, overrides):
        # R0(0) in floats rounds through a subnormal mu_m^2; the integer
        # quadratic has no such rounding, and the bisection oracle on the
        # float closed form, which never reads c = 0, shows that its root
        # kept its digits
        p = params_with(**overrides)
        result = min_control(p)
        assert isinstance(result, ThresholdResult)
        lo, hi = result.bracket
        assert lo <= result.c_star < hi and hi - lo <= 1e-6
        assert r0_closed_form(p, lo) > 1.0 >= r0_closed_form(p, hi)
        o = bisect_to_one_ulp(p)
        assert abs(result.c_star - o) <= 1e-12 * o

    def test_underflowing_dfe_product_is_exact(self):
        # mu_b*mu_m = 1e-350 underflows, so R0's two-factor split is refused
        # while R0(0) itself is finite; the root sits one double below the
        # collapse bound
        p = params_with(mu_b=1e-100, eta_h=1e300, mu_m=1e-250)
        with pytest.raises(NumericalFailure):
            r0_factors(p, 0.0)
        result = min_control(p)
        assert isinstance(result, ThresholdResult)
        bound = collapse_control_bound(p)
        assert result.c_star == math.nextafter(bound, 0.0) == 2.4242424242424243e-101
        assert result.bracket == (0.0, bound)
        assert_exact(p, result)

    def test_r0_beyond_the_largest_double_at_c_star(self):
        # R0 falls from about 1e325 at c = 0 to collapse, and is still about 1e315 at c*
        p = params_with(K=1.7e308, N_h=1e-300, B=1e20, beta_hm=1.0, beta_mh=1.0)
        with pytest.raises(NumericalFailure, match="at c\\* = 1.3636363636363635 rounds beyond"):
            min_control(p)
        assert exact_r0_squared(p, 1.3636363636363635) > Fraction(2 ** 1024) ** 2

    # the narrowest bracket is the two doubles around c*, 5.55e-17 apart on the
    # built-in scenario; at B = 1e12 R0 falls through one between neighbouring
    # floats, so again only the bracket width fails the certificate
    @pytest.mark.parametrize("bites, tol", [(1.0, 5e-17), (1.0, 1e-300), (1e12, 1e-300)])
    def test_tolerance_below_float_resolution_is_refused(self, bites, tol):
        with pytest.raises(ScenarioError, match=f"tolerance {tol:g}"):
            min_control(params_with(B=bites), tol=tol)

    def test_upper_end_is_checked(self):
        # on some draws the float R0 still rounds above one at the double just
        # past c*; the exact sign does not, so the bracket of the two doubles
        # around c* certifies
        rng = np.random.default_rng(0)
        float_above = 0
        for p in (draw_params(rng) for _ in range(200)):
            result = min_control(p)
            if not isinstance(result, ThresholdResult):
                continue
            c = result.c_star
            tight = min_control(p, tol=3.0 * math.ulp(c))
            assert tight.bracket == (math.nextafter(c, 0.0), math.nextafter(c, math.inf))
            assert_exact(p, tight, 3.0 * math.ulp(c))
            float_above += r0_closed_form(p, math.nextafter(c, math.inf)) > 1.0
        assert float_above > 0

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


# A Fraction oracle of the threshold, from the model's closed form of R0^2 and
# nothing of the package: R0 > 1 at c iff exactly_above_one(p, c).

def exact_margin(p, c) -> Fraction:
    """The viability margin eta_A*mu_b - (c + mu_m)*(eta_A + mu_A), exactly."""
    f = Fraction
    return f(p.eta_A) * f(p.mu_b) - (f(c) + f(p.mu_m)) * (f(p.eta_A) + f(p.mu_A))


def exact_r0_squared(p, c) -> Fraction | None:
    """R0(c)^2 of the rates, exactly; None where the margin is <= 0."""
    f = Fraction
    if (m := exact_margin(p, c)) <= 0:
        return None
    return (f(p.B) ** 2 * f(p.beta_hm) * f(p.beta_mh) * f(p.K) * f(p.eta_m) * f(p.nu_h) * m
            / (f(p.N_h) * f(p.mu_b) * (f(p.eta_h) + f(p.mu_h)) * f(p.mu_m) * (f(p.mu_h) + f(p.nu_h))
               * (f(c) + f(p.mu_m)) * (f(c) + f(p.eta_m) + f(p.mu_m))))


def exactly_above_one(p, c) -> bool:
    q = exact_r0_squared(p, c)
    return q is not None and q > 1


def is_nearest_sqrt(x: float, q: Fraction) -> bool:
    """Whether q lies between the squares of the midpoints around the double x."""
    up = math.nextafter(x, math.inf)
    below = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2 if x else Fraction(0)
    above = (Fraction(x) + (Fraction(up) if up < math.inf else Fraction(2 ** 1024))) / 2
    return below ** 2 <= q <= above ** 2


def assert_exact(p, result, tol=1e-6):
    """``result`` is ``min_control(p, tol)`` by the oracle: the collapse bound is
    the least double with margin <= 0; R0 > 1 at lo and at c* and R0 <= 1 at hi
    and at the double after c*, so c* is the largest double with R0 > 1; and
    each R0 is the double nearest its exact value."""
    bound = result.collapse_bound
    assert exact_margin(p, bound) <= 0 < exact_margin(p, math.nextafter(bound, -math.inf))
    if isinstance(result, NoControlNeeded):
        if result.r0_at_zero is None:
            assert exact_margin(p, 0.0) <= 0
        else:
            assert not exactly_above_one(p, 0.0)
            assert is_nearest_sqrt(result.r0_at_zero, exact_r0_squared(p, 0.0))
        return
    c, (lo, hi) = result.c_star, result.bracket
    assert 0.0 <= lo <= c < hi <= bound and hi - lo <= tol
    assert exactly_above_one(p, lo) and exactly_above_one(p, c)
    assert not exactly_above_one(p, hi)
    assert not exactly_above_one(p, math.nextafter(c, math.inf))
    assert is_nearest_sqrt(result.r0_at_c_star, exact_r0_squared(p, c))


class TestExactOracle:
    # the built-in scenario with one key changed: the exact c* and collapse bound
    @pytest.mark.parametrize("overrides, c_star, bound", [
        ({}, 0.15696101137179116, 1.3636363636363638),
        ({"nu_h": 1e303}, 0.1569807613609391, 1.3636363636363638),
        ({"mu_b": 1e304}, 0.1850220699986781, 2.4242424242424243e303),
        ({"mu_m": 1e-162}, 1.4545454545454544, 1.4545454545454546),
        ({"B": 1e303}, 1.3636363636363635, 1.3636363636363638),
    ])
    def test_scenarios_at_extreme_rates(self, overrides, c_star, bound):
        p = params_with(**overrides)
        result = min_control(p)
        assert (result.c_star, result.collapse_bound) == (c_star, bound)
        assert_exact(p, result)

    def test_draws(self):
        rng = np.random.default_rng(2)
        certified = 0
        for p in (draw_params(rng) for _ in range(2000)):
            result = min_control(p)
            assert_exact(p, result)
            certified += isinstance(result, ThresholdResult)
        assert 1000 < certified < 2000

    def test_extreme_draws(self):
        # 1-3 rates at 10^(-310...308.2); c* is exact wherever min_control
        # answers, and a refusal names it
        rnd = random.Random(7)
        outcomes = {"certified": 0, "refused": 0}
        for _ in range(2000):
            p, _ = draw_extreme(rnd)
            try:
                result = min_control(p)
            except ScenarioError as exc:
                # the two doubles around c* are farther apart than the tolerance
                c = float(re.search(r"c\* = (\S+) to within", str(exc))[1])
                assert exactly_above_one(p, c)
                assert not exactly_above_one(p, math.nextafter(c, math.inf))
                lo = max(0.0, math.nextafter(c, 0.0))
                hi = min(collapse_control_bound(p), math.nextafter(c, math.inf))
                assert hi - lo > 1e-6
                outcomes["refused"] += 1
                continue
            assert_exact(p, result)
            outcomes["certified"] += isinstance(result, ThresholdResult)
        assert outcomes["certified"] > 100 and outcomes["refused"] > 0
