import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_params, params_with
from dengue_control.equilibria import brdfe, jacobian, metzler_matrix
from dengue_control.errors import MosquitoCollapseError, NumericalFailure
from dengue_control.model import mosquito_viability, r0_closed_form, r0_factors
from dengue_control.reproduction import build_ngm, r0_spectral


class TestBuildNgm:
    def test_human_infection_entry(self):
        ngm = build_ngm(CAPE_VERDE, 0.0)
        # B*beta_mh*S_h/N_h with S_h = N_h
        assert ngm.j_f[0, 3] == pytest.approx(0.375, rel=1e-12)

    def test_infection_jacobian_has_two_entries(self):
        ngm = build_ngm(CAPE_VERDE, 0.0)
        nz = np.argwhere(ngm.j_f != 0.0)
        assert {tuple(ij) for ij in nz} == {(0, 3), (2, 1)}

    def test_transition_diagonal(self):
        # F and V typed out here, independently of the model's Jacobian
        p = CAPE_VERDE
        for c in (0.0, 0.07, 0.2):
            ngm = build_ngm(p, c)
            s_m = p.K * mosquito_viability(p, c) / (p.mu_b * p.mu_m)
            j_f = np.zeros((4, 4))
            j_f[0, 3] = p.B * p.beta_mh * p.N_h / p.N_h
            j_f[2, 1] = p.B * p.beta_hm * s_m / p.N_h
            j_v = np.array(((p.nu_h + p.mu_h, 0.0, 0.0, 0.0),
                            (-p.nu_h, p.eta_h + p.mu_h, 0.0, 0.0),
                            (0.0, 0.0, p.mu_m + p.eta_m + c, 0.0),
                            (0.0, 0.0, -p.eta_m, p.mu_m + c)))
            assert np.array_equal(ngm.j_f, j_f)
            assert np.array_equal(ngm.j_v, j_v)

    def test_f_and_v_are_the_product_rule_parts(self):
        # J = M + (dM/dX)X: on the infected block at the disease-free point
        # V is -M and F is the added term J - M
        infected = np.ix_((1, 2, 5, 6), (1, 2, 5, 6))
        for c in (0.0, 0.07, 0.2):
            dfe = brdfe(CAPE_VERDE, c).state
            m_of_x = metzler_matrix(CAPE_VERDE, c, dfe)
            ngm = build_ngm(CAPE_VERDE, c)
            assert np.array_equal(ngm.j_v, -m_of_x[infected])
            assert np.array_equal(ngm.j_f, (jacobian(CAPE_VERDE, c, dfe) - m_of_x)[infected])

    def test_transition_lower_triangular_positive_diagonal(self):
        ngm = build_ngm(CAPE_VERDE, 0.1)
        assert np.array_equal(np.triu(ngm.j_v, k=1), np.zeros((4, 4)))
        assert np.all(np.diag(ngm.j_v) > 0.0)

    def test_no_transmission_gives_zero_matrix(self):
        ngm = build_ngm(params_with(beta_mh=0.0, beta_hm=0.0), 0.0)
        assert np.array_equal(ngm.ngm, np.zeros((4, 4)))

    def test_entries_nonnegative_over_draws(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            p = draw_params(rng)
            ngm = build_ngm(p, rng.uniform(0.0, 0.3))
            assert np.all(ngm.ngm >= 0.0)

    def test_collapse_rejected(self):
        with pytest.raises(MosquitoCollapseError):
            build_ngm(params_with(mu_b=0.1), 0.0)


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
