import math

import numpy as np
import pytest

from conftest import (
    CAPE_VERDE,
    CAPE_VERDE_X0,
    draw_omega_state,
    draw_params,
    draw_params_wide,
    params_with,
)
from dengue_control.equilibria import component_scales, metzler_decomposition
from dengue_control.model import (
    ControlLevel,
    State7,
    basic_offspring_number,
    in_omega,
    mosquito_viability,
    reconstruct_rh,
    rhs,
)


class TestValidation:
    def test_rejects_nonpositive_rates(self):
        for name in ("B", "mu_h", "eta_h", "mu_m", "mu_A", "eta_A", "eta_m", "nu_h", "m", "k"):
            with pytest.raises(ValueError, match=name):
                params_with(**{name: 0.0})
            with pytest.raises(ValueError, match=name):
                params_with(**{name: -0.1})

    def test_zero_recruitment_allowed(self):
        assert params_with(mu_b=0.0).mu_b == 0.0
        with pytest.raises(ValueError, match="mu_b"):
            params_with(mu_b=-1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            params_with(mu_m=math.nan)
        with pytest.raises(ValueError, match="finite"):
            params_with(N_h=math.inf)

    def test_transmission_probabilities_bounded(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match="beta_mh"):
                params_with(beta_mh=bad)
        assert params_with(beta_mh=0.0, beta_hm=1.0) is not None

    def test_population_and_capacity_positive(self):
        with pytest.raises(ValueError, match="N_h"):
            params_with(N_h=0.0)
        with pytest.raises(ValueError, match="K"):
            params_with(K=0.0)

    def test_control_level(self):
        assert ControlLevel(0.0).c == 0.0
        with pytest.raises(ValueError, match="c"):
            ControlLevel(-1e-9)
        with pytest.raises(ValueError, match="finite"):
            ControlLevel(math.nan)


class TestRhs:
    def test_trivial_equilibrium_is_fixed_point(self):
        x = State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        d = rhs(CAPE_VERDE, 0.0, x)
        assert d.as_tuple() == (0.0,) * 7

    def test_disease_free_state_is_fixed_point(self):
        # closed form evaluated by hand: A* = 3*480000*0.45/(0.08*6),
        # S* = 3*480000*0.45*11/6
        x = State7(480000.0, 0.0, 0.0, 1_350_000.0, 1_188_000.0, 0.0, 0.0)
        d = np.array(rhs(CAPE_VERDE, 0.0, x).as_tuple())
        assert np.max(np.abs(d)) < 1e-9 * CAPE_VERDE.N_h

    def test_exposure_inflow_hand_value(self):
        # B*beta_mh*(I_m/N_h)*S_h = 1*0.375*(1000/480000)*480000 = 375
        x = State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
        d = rhs(CAPE_VERDE, 0.0, x)
        assert d.E_h == pytest.approx(375.0, abs=1e-9)

    def test_nonfinite_state_rejected(self):
        x = State7(math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            rhs(CAPE_VERDE, 0.0, x)

    def test_aquatic_equation_ignores_control(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = draw_omega_state(rng, CAPE_VERDE)
            d0 = rhs(CAPE_VERDE, 0.0, x)
            d1 = rhs(CAPE_VERDE, 0.7, x)
            assert d1.A_m == d0.A_m

    def test_human_conservation_identity(self):
        rng = np.random.default_rng(11)
        p = CAPE_VERDE
        for _ in range(200):
            x = draw_omega_state(rng, p)
            d = rhs(p, rng.uniform(0.0, 0.5), x)
            r_h = p.N_h - x.S_h - x.E_h - x.I_h
            dr_h = p.eta_h * x.I_h - p.mu_h * r_h
            human_total = x.S_h + x.E_h + x.I_h + r_h
            lhs = d.S_h + d.E_h + d.I_h + dr_h
            rhs_val = p.mu_h * p.N_h - p.mu_h * human_total
            assert lhs == pytest.approx(rhs_val, rel=1e-8, abs=1e-8)


class TestReconstructRh:
    def test_all_susceptible(self):
        x = State7(CAPE_VERDE.N_h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert reconstruct_rh(CAPE_VERDE, x).R_h == 0.0

    def test_outbreak_initial_condition(self):
        x = State7(479350.0, 216.0, 434.0, 0.0, 0.0, 0.0, 0.0)
        assert reconstruct_rh(CAPE_VERDE, x).R_h == 0.0

    def test_plain_arithmetic(self):
        x = State7(400000.0, 30000.0, 20000.0, 0.0, 0.0, 0.0, 0.0)
        assert reconstruct_rh(CAPE_VERDE, x).R_h == 30000.0

    def test_negative_rh_reported_not_rejected(self):
        x = State7(CAPE_VERDE.N_h, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert reconstruct_rh(CAPE_VERDE, x).R_h == -1000.0

    def test_human_total_conserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = draw_omega_state(rng, CAPE_VERDE)
            s8 = reconstruct_rh(CAPE_VERDE, x)
            total = s8.S_h + s8.E_h + s8.I_h + s8.R_h
            assert total == pytest.approx(CAPE_VERDE.N_h, rel=1e-8)


class TestMosquitoViability:
    def test_cape_verde_uncontrolled(self):
        assert mosquito_viability(CAPE_VERDE, 0.0) == pytest.approx(0.45, rel=1e-12)

    def test_no_eggs_means_collapse(self):
        p = params_with(mu_b=0.0)
        expected = -p.mu_m * (p.mu_A + p.eta_A)
        assert mosquito_viability(p, 0.0) == pytest.approx(expected, rel=1e-12)
        assert mosquito_viability(p, 0.0) < 0.0

    def test_at_paper_threshold_control(self):
        # 0.45 - 0.33 * 0.156961
        assert mosquito_viability(CAPE_VERDE, 0.156961) == pytest.approx(0.3982029, abs=1e-6)


class TestBasicOffspringNumber:
    def test_cape_verde_value(self):
        # (0.33)*(1/11)/(6*0.08)
        assert basic_offspring_number(CAPE_VERDE, 0.0) == pytest.approx(0.0625, rel=1e-12)

    def test_sign_equivalence_with_viability(self):
        rng = np.random.default_rng(23)
        signs = set()
        for _ in range(1000):
            p, ctrl = draw_params_wide(rng)
            viability = mosquito_viability(p, ctrl)
            ratio = basic_offspring_number(p, ctrl)
            assert (ratio < 1.0) == (viability > 0.0)
            signs.add(viability > 0.0)
        assert signs == {True, False}

    def test_ratio_one_iff_zero_viability(self):
        c = CAPE_VERDE.mu_b * CAPE_VERDE.eta_A / (CAPE_VERDE.eta_A + CAPE_VERDE.mu_A) \
            - CAPE_VERDE.mu_m
        assert basic_offspring_number(CAPE_VERDE, c) == pytest.approx(1.0, abs=1e-12)
        assert abs(mosquito_viability(CAPE_VERDE, c)) < 1e-12

    def test_undefined_without_recruitment(self):
        with pytest.raises(ValueError, match="mu_b"):
            basic_offspring_number(params_with(mu_b=0.0), 0.0)


class TestInOmega:
    def test_outbreak_initial_condition(self):
        assert in_omega(CAPE_VERDE, CAPE_VERDE_X0)

    def test_negative_infected_outside(self):
        x = State7(479350.0, 216.0, -1.0, 0.0, 0.0, 0.0, 0.0)
        assert not in_omega(CAPE_VERDE, x)

    def test_aquatic_boundary_included(self):
        x = State7(CAPE_VERDE.N_h, 0.0, 0.0, CAPE_VERDE.k * CAPE_VERDE.N_h, 0.0, 0.0, 0.0)
        assert in_omega(CAPE_VERDE, x)

    def test_slack_absorbs_integration_drift(self):
        bound = CAPE_VERDE.m * CAPE_VERDE.N_h
        inside = State7(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e-10 * bound)
        outside = State7(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e-8 * bound)
        assert in_omega(CAPE_VERDE, inside)
        assert not in_omega(CAPE_VERDE, outside)

    def test_human_bound(self):
        x = State7(CAPE_VERDE.N_h, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert not in_omega(CAPE_VERDE, x)

    def test_nonfinite_outside(self):
        x = State7(math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert not in_omega(CAPE_VERDE, x)


class TestMetzlerDecomposition:
    def test_reconstruction_matches_rhs(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            x = draw_omega_state(rng, p)
            form = metzler_decomposition(p, c, x)
            recon = form.m_of_x @ x.as_array() + form.inflow
            r = np.array(rhs(p, c, x).as_tuple())
            assert np.all(np.abs(recon - r) <= 1e-10 * (np.abs(r) + component_scales(p)))

    def test_inflow_vector(self):
        form = metzler_decomposition(CAPE_VERDE, 0.0,
                                     State7(CAPE_VERDE.N_h, 0, 0, 0, 0, 0, 0))
        expected = np.zeros(7)
        expected[0] = CAPE_VERDE.mu_h * CAPE_VERDE.N_h
        assert np.array_equal(form.inflow, expected)

    def test_offdiagonals_nonnegative_on_omega(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            p = draw_params(rng)
            x = draw_omega_state(rng, p)
            m = metzler_decomposition(p, rng.uniform(0.0, 0.5), x).m_of_x
            off = m - np.diag(np.diag(m))
            assert np.all(off >= 0.0)

    def test_infection_entry_with_thousand_infected_mosquitoes(self):
        x = State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
        m = metzler_decomposition(CAPE_VERDE, 0.0, x).m_of_x
        expected = CAPE_VERDE.B * CAPE_VERDE.beta_mh * 1000.0 / CAPE_VERDE.N_h
        assert m[1, 0] == pytest.approx(expected, rel=1e-12)
        assert m[1, 0] == pytest.approx(0.375 * 1000.0 / 480000.0, rel=1e-12)
        assert m[1, 0] >= 0.0


class TestFixedPointIdentity:
    def test_equilibria_have_small_absolute_residuals(self):
        from dengue_control.equilibria import brdfe, refined_endemic, trivial_equilibrium

        p = CAPE_VERDE
        bound = 1e-9 * max(p.N_h, p.m * p.N_h)
        for eq in (trivial_equilibrium(p), brdfe(p, 0.0), refined_endemic(p, 0.0)):
            d = np.array(rhs(p, 0.0, eq.state).as_tuple())
            assert np.max(np.abs(d)) < bound
