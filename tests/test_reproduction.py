import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_extreme, draw_params, params_with
from dengue_control.equilibria import brdfe, jacobian, metzler_matrix
from dengue_control.errors import MosquitoCollapseError, NumericalFailure
from dengue_control.model import mosquito_viability, r0_closed_form, r0_factors
from dengue_control.stability import r0_spectral

_INFECTED = np.ix_((1, 2, 5, 6), (1, 2, 5, 6))


def _f_and_v(p, c):
    """F and V of the infected subsystem (E_h, I_h, E_m, I_m) at the
    disease-free state, as the product-rule parts of J = M + (dM/dX)X:
    F is the added term J - M and V is -M."""
    dfe = brdfe(p, c).state
    m_of_x = np.array(metzler_matrix(p, c, dfe))
    with np.errstate(invalid="ignore"):  # inf - inf outside the block at extreme rates
        return (np.array(jacobian(p, c, dfe)) - m_of_x)[_INFECTED], -m_of_x[_INFECTED]


def _ngm(p, c):
    j_f, j_v = _f_and_v(p, c)
    return j_f @ np.linalg.inv(j_v)


def _det(rows):
    """Determinant of a square matrix by the Leibniz formula, exact on Fractions."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def assert_correctly_rounded(p, c):
    """r0_spectral(p, c) is the double nearest the exact spectral radius of
    the F*V^-1 built from the float F and V, ties to even."""
    j_f, j_v = (np.vectorize(Fraction, otypes=[object])(m) for m in _f_and_v(p, c))
    r0 = r0_spectral(p, c)

    def sign_at(lam):
        d = _det((lam * j_v - j_f).tolist())
        return (d > 0) - (d < 0)
    up = math.nextafter(r0, math.inf)
    below = sign_at((Fraction(r0) + Fraction(math.nextafter(r0, 0.0))) / 2) if r0 else -1
    above = sign_at((Fraction(r0) + (Fraction(up) if up < math.inf else 2 ** 1024)) / 2)
    assert below <= 0 <= above
    if 0 in (below, above):   # a tie: the even mantissa wins
        assert r0.hex().split("p")[0][-1] in "02468ace"


class TestNextGenerationMatrix:
    def test_human_infection_entry(self):
        j_f, _ = _f_and_v(CAPE_VERDE, 0.0)
        # B*beta_mh*S_h/N_h with S_h = N_h
        assert j_f[0, 3] == pytest.approx(0.375, rel=1e-12)

    def test_infection_jacobian_has_two_entries(self):
        j_f, _ = _f_and_v(CAPE_VERDE, 0.0)
        nz = np.argwhere(j_f != 0.0)
        assert {tuple(ij) for ij in nz} == {(0, 3), (2, 1)}

    def test_transition_diagonal(self):
        # F and V typed out here, independently of the model's Jacobian
        p = CAPE_VERDE
        for c in (0.0, 0.07, 0.2):
            s_m = p.K * mosquito_viability(p, c) / (p.mu_b * p.mu_m)
            j_f = np.zeros((4, 4))
            j_f[0, 3] = p.B * p.beta_mh * p.N_h / p.N_h
            j_f[2, 1] = p.B * p.beta_hm * s_m / p.N_h
            j_v = np.array(((p.nu_h + p.mu_h, 0.0, 0.0, 0.0),
                            (-p.nu_h, p.eta_h + p.mu_h, 0.0, 0.0),
                            (0.0, 0.0, p.mu_m + p.eta_m + c, 0.0),
                            (0.0, 0.0, -p.eta_m, p.mu_m + c)))
            assert all(map(np.array_equal, _f_and_v(p, c), (j_f, j_v)))

    def test_f_is_the_two_new_infection_entries_of_the_jacobian_block(self):
        # the split r0_spectral makes: F keeps two entries of the infected
        # block of J, and V = F - block
        for c in (0.0, 0.07, 0.2):
            j_f, j_v = _f_and_v(CAPE_VERDE, c)
            block = np.array(jacobian(CAPE_VERDE, c, brdfe(CAPE_VERDE, c).state))[_INFECTED]
            kept = np.zeros((4, 4))
            kept[0, 3], kept[2, 1] = block[0, 3], block[2, 1]
            assert np.array_equal(j_f, kept)
            assert np.array_equal(j_v, kept - block)

    def test_transition_lower_triangular_positive_diagonal(self):
        _, j_v = _f_and_v(CAPE_VERDE, 0.1)
        assert np.array_equal(np.triu(j_v, k=1), np.zeros((4, 4)))
        assert np.all(np.diag(j_v) > 0.0)

    def test_no_transmission_gives_zero_matrix(self):
        p = params_with(beta_mh=0.0, beta_hm=0.0)
        assert np.array_equal(_ngm(p, 0.0), np.zeros((4, 4)))
        assert r0_spectral(p, 0.0) == 0.0

    def test_entries_nonnegative_over_draws(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            p = draw_params(rng)
            assert np.all(_ngm(p, rng.uniform(0.0, 0.3)) >= 0.0)

    def test_spectral_r0_is_radius_of_test_built_ngm(self):
        # the exact radius lies between the midpoints around the returned
        # double: det(lambda*V - F), by the Leibniz formula in Fractions, is
        # <= 0 below and >= 0 above; numpy's radius is within 4 ulps
        rng = np.random.default_rng(97)
        for _ in range(200):
            p = draw_params(rng)
            c = float(rng.uniform(0.0, 0.3))
            assert_correctly_rounded(p, c)
            radius = max(abs(v) for v in np.linalg.eigvals(_ngm(p, c)).tolist())
            r0 = r0_spectral(p, c)
            assert abs(r0 - radius) <= 4 * math.ulp(r0)

    def test_collapse_rejected(self):
        with pytest.raises(MosquitoCollapseError):
            r0_spectral(params_with(mu_b=0.1), 0.0)


class TestR0Routes:
    def test_spectral_cape_verde_uncontrolled(self):
        assert r0_spectral(CAPE_VERDE, 0.0) == pytest.approx(2.396, abs=1e-3)

    def test_spectral_at_paper_threshold(self):
        assert r0_spectral(CAPE_VERDE, 0.156961) == pytest.approx(1.0, abs=1e-3)

    def test_spectral_zero_without_mosquito_to_human_route(self):
        assert r0_spectral(params_with(beta_mh=0.0), 0.0) == 0.0

    def test_closed_form_cape_verde(self):
        r0 = r0_closed_form(CAPE_VERDE, 0.0)
        assert r0 == pytest.approx(2.3961, abs=5e-4)
        assert r0 ** 2 == pytest.approx(5.741, abs=5e-3)

    def test_doubling_bites_quadruples_square(self):
        base_sq = r0_closed_form(CAPE_VERDE, 0.0) ** 2
        doubled_sq = r0_closed_form(params_with(B=2.0), 0.0) ** 2
        assert doubled_sq == pytest.approx(4.0 * base_sq, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {"eta_h": 1e-320, "mu_h": 1e-320},   # V has a subnormal diagonal entry
        {"B": 1e100},
        {"B": 1e-150, "beta_mh": 1e-10},
        {"mu_m": 1e-160, "beta_hm": 1.0, "N_h": 7.8e162},   # R0 near 1.29e81
        {"mu_h": 1e236},                     # R0 near 1e-236, where eigvals gave 0.0
        # the largest double; halving eta_h and mu_h rounds the radius past it
        {"B": 1e300, "eta_h": 2.961688047890298e-17, "mu_h": 2.961688047890298e-17},
        {"B": 1e-310},                       # R0 = 2.39608483808097e-310, subnormal
        {"B": 1e-300, "beta_mh": 1e-20},     # a subnormal radius from normal entries
    ])
    def test_correctly_rounded_at_extreme_rates(self, overrides):
        assert_correctly_rounded(params_with(**overrides), 0.0)

    def test_correctly_rounded_over_extreme_rate_fuzz(self):
        # 1-3 rates at 10^(-310...308.2), transmission probabilities from 0 to
        # 1: each variant is refused with one of the route's errors or has
        # the correctly rounded radius
        rnd = random.Random(7)
        rounded = 0
        for _ in range(200):
            p, c = draw_extreme(rnd)
            try:
                r0_spectral(p, c)
            except (NumericalFailure, MosquitoCollapseError):
                continue
            assert_correctly_rounded(p, c)
            rounded += 1
        assert rounded >= 100, rounded

    def test_routes_agree_over_draws(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            closed = r0_closed_form(p, c)
            assert abs(r0_spectral(p, c) - closed) / closed < 1e-10

    def test_collapse_rejected(self):
        with pytest.raises(MosquitoCollapseError):
            r0_closed_form(params_with(mu_b=0.1), 0.0)

    @pytest.mark.parametrize("c", (-0.1, float("nan")))
    def test_invalid_control_is_refused_not_reported_as_overflow(self, c):
        for route in (r0_spectral, r0_closed_form):
            with pytest.raises(ValueError, match="^c must be"):
                route(CAPE_VERDE, c)

    @pytest.mark.parametrize("overrides, value", [
        ({"eta_m": 1e300, "mu_b": 1.7e308}, "nan"),
        ({"B": 1e308}, "inf"),
    ])
    def test_overflow_is_numerical_failure(self, overrides, value):
        with pytest.raises(NumericalFailure, match=f"not finite \\({value}\\)"):
            r0_closed_form(params_with(**overrides), 0.0)


class TestR0Factors:
    def test_product_is_square_of_r0(self):
        r_hm, r_mh = r0_factors(CAPE_VERDE, 0.0)
        assert r_hm * r_mh == pytest.approx(r0_closed_form(CAPE_VERDE, 0.0) ** 2, rel=1e-12)

    def test_product_identity_over_draws(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            r_hm, r_mh = r0_factors(p, c)
            assert r_hm * r_mh == pytest.approx(r0_closed_form(p, c) ** 2, rel=1e-12)

    def test_no_human_to_mosquito_route(self):
        r_hm, _ = r0_factors(params_with(beta_hm=0.0), 0.0)
        assert r_hm == 0.0

    def test_mosquito_to_human_factor_formula(self):
        p = CAPE_VERDE
        for c in (0.0, 0.1, 0.3):
            _, r_mh = r0_factors(p, c)
            expected = (p.B * p.beta_mh * p.eta_m
                        / ((c + p.mu_m) * (c + p.eta_m + p.mu_m)))
            assert r_mh == pytest.approx(expected, rel=1e-12)

    def test_mosquito_to_human_factor_decreases_with_control(self):
        values = [r0_factors(CAPE_VERDE, c)[1] for c in np.linspace(0.0, 1.0, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestR0Shape:
    def test_strictly_decreasing_in_control(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = [r0_closed_form(CAPE_VERDE, c) for c in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_threshold_crossing(self):
        grid = np.linspace(0.0, 1.0, 1000)
        signs = np.sign([r0_closed_form(CAPE_VERDE, c) - 1.0 for c in grid])
        assert np.count_nonzero(np.diff(signs)) == 1
