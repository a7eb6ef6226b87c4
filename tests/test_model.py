import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CAPE_VERDE,
    CAPE_VERDE_X0,
    draw_omega_state,
    draw_params,
    draw_params_wide,
    params_with,
)
from dengue_control.equilibria import (
    brdfe,
    endemic_closed_form,
    jacobian,
    metzler_matrix,
    trivial_equilibrium,
)
from dengue_control.integrator import SolverConfig, integrate, _r_h
from dengue_control.model import (
    ROW_LABELS,
    STATE_LABELS,
    ControlLevel,
    State7,
    basic_offspring_number,
    component_scales,
    in_omega,
    mosquito_viability,
    r0_closed_form,
    r0_factors,
    rhs,
    _rate,
    _rhs_of,
)
from dengue_control.stability import classify, r0_spectral
from dengue_control.threshold import r0_profile


def reference_rhs(p, c, x):
    """The model formula as it read before the rates were bound once per
    run, with every rate read from ``p`` on each call; the oracle for
    ``_rhs_of``, which must give the same bits."""
    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x

    foi_h = p.B * p.beta_mh * i_m / p.N_h      # mosquito -> human force of infection
    foi_m = p.B * p.beta_hm * i_h / p.N_h      # human -> mosquito force of infection
    adults = s_m + e_m + i_m

    return (
        p.mu_h * p.N_h - (foi_h + p.mu_h) * s_h,
        foi_h * s_h - (p.nu_h + p.mu_h) * e_h,
        p.nu_h * e_h - (p.eta_h + p.mu_h) * i_h,
        p.mu_b * (1.0 - a_m / p.K) * adults - (p.eta_A + p.mu_A) * a_m,
        -(foi_m + p.mu_m + c) * s_m + p.eta_A * a_m,
        foi_m * s_m - (p.mu_m + p.eta_m + c) * e_m,
        p.eta_m * e_m - (p.mu_m + c) * i_m,
    )


def hex_bits(values):
    return tuple(map(float.hex, values))


class TestBoundRhs:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 2.0), wide=st.booleans())
    def test_equals_reference_formula_bit_for_bit(self, seed, c, wide):
        rng = np.random.default_rng(seed)
        p = draw_params_wide(rng)[0] if wide else draw_params(rng)
        y = draw_omega_state(rng, p)
        assert hex_bits(_rhs_of(p, c)(y)) == hex_bits(reference_rhs(p, c, y))

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.floats(), min_size=7, max_size=7), c=st.floats(0.0, 1.7e308))
    def test_any_doubles_equal_reference(self, x, c):
        # non-finite states, signed zeros and overflowing products included
        assert hex_bits(_rhs_of(CAPE_VERDE, c)(x)) == hex_bits(reference_rhs(CAPE_VERDE, c, x))

    def test_lanes_with_per_lane_control_equal_reference(self):
        rng = np.random.default_rng(14)
        lanes = 64
        p = draw_params(rng)
        states = [draw_omega_state(rng, p) for _ in range(lanes)]
        c = rng.uniform(0.0, 2.0, lanes)
        got = _rhs_of(p, c)(list(np.array(states).T))
        for lane, (x, cl) in enumerate(zip(states, c.tolist())):
            assert hex_bits(q[lane] for q in got) == hex_bits(reference_rhs(p, cl, x))

    def test_rhs_binds_the_control_level(self):
        assert rhs(CAPE_VERDE, ControlLevel(0.2), CAPE_VERDE_X0) == \
            reference_rhs(CAPE_VERDE, 0.2, CAPE_VERDE_X0)


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


# each bad control level's error, as ControlLevel raised it before the rule
# "c finite and >= 0" moved into model._rate
BAD_CONTROLS = (
    (math.nan, "c must be finite, got nan"),
    (math.inf, "c must be finite, got inf"),
    (-math.inf, "c must be finite, got -inf"),
    (-1.0, "c must be >= 0, got -1.0"),
    ("x", "could not convert string to float: 'x'"),
)

TAKES_CONTROL = {
    "ControlLevel": lambda c: ControlLevel(c),
    "brdfe": lambda c: brdfe(CAPE_VERDE, c),
    "classify": lambda c: classify(CAPE_VERDE, c, trivial_equilibrium(CAPE_VERDE)),
    "r0_closed_form": lambda c: r0_closed_form(CAPE_VERDE, c),
    "r0_profile": lambda c: r0_profile(CAPE_VERDE, [0.0, c]),
    "mosquito_viability": lambda c: mosquito_viability(CAPE_VERDE, c),
    "integrate": lambda c: integrate(CAPE_VERDE, c, CAPE_VERDE_X0, SolverConfig()),
}


class TestBadControlLevel:
    @pytest.mark.parametrize("name", sorted(TAKES_CONTROL))
    @pytest.mark.parametrize("c, message", BAD_CONTROLS)
    def test_same_error_through_every_entry_point(self, name, c, message):
        with pytest.raises(ValueError) as info:
            TAKES_CONTROL[name](c)
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("c", (0.0, 5e-324, 0.05, 1e308))
    def test_rate_of_a_level_is_the_rate_of_its_float(self, c):
        assert _rate(ControlLevel(c)) == _rate(c) == ControlLevel(c).c == c


@pytest.fixture
def rate_calls(monkeypatch):
    """The control levels passed to ``_rate``, counted in every package
    module that imported it."""
    calls = []

    def counted(c):
        calls.append(c)
        return _rate(c)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("dengue_control.") and vars(m).get("_rate") is _rate]
    assert {m.__name__ for m in modules} >= {"dengue_control.model", "dengue_control.equilibria",
                                             "dengue_control.stability", "dengue_control.threshold"}
    for m in modules:
        monkeypatch.setattr(m, "_rate", counted)
    return calls


class TestControlCheckedOnce:
    """Each public call checks its control level once; the private helpers
    it calls take the checked float."""

    @pytest.mark.parametrize("c", (0.0, 0.05, 0.12, 0.2))
    def test_brdfe_and_classify_check_c_once_each(self, rate_calls, c):
        trivial = trivial_equilibrium(CAPE_VERDE)
        rate_calls.clear()
        eq = brdfe(CAPE_VERDE, c)
        assert rate_calls == [c]
        classify(CAPE_VERDE, c, eq)
        assert rate_calls == [c, c]
        classify(CAPE_VERDE, c, trivial)
        assert rate_calls == [c, c, c]

    @pytest.mark.parametrize("name, call", (
        ("mosquito_viability", lambda c: mosquito_viability(CAPE_VERDE, c)),
        ("r0_closed_form", lambda c: r0_closed_form(CAPE_VERDE, c)),
        ("r0_factors", lambda c: r0_factors(CAPE_VERDE, c)),
        ("r0_spectral", lambda c: r0_spectral(CAPE_VERDE, c)),
        ("endemic_closed_form", lambda c: endemic_closed_form(CAPE_VERDE, c)),
        ("jacobian", lambda c: jacobian(CAPE_VERDE, c, CAPE_VERDE_X0)),
    ))
    def test_other_public_calls_check_c_once(self, rate_calls, name, call):
        call(0.05)
        assert rate_calls == [0.05], name

    def test_r0_profile_checks_each_level_once(self, rate_calls):
        grid = [i * 0.005 for i in range(61)] + [5.0]       # 5.0 collapses
        points = r0_profile(CAPE_VERDE, grid)
        assert rate_calls == grid and points[-1].collapsed

    def test_classify_shares_one_report_per_label(self):
        rng = np.random.default_rng(2041)
        by_label = {}
        for _ in range(40):
            p, c = draw_params(rng), float(rng.uniform(0.0, 0.3))
            for eq in (trivial_equilibrium(p), brdfe(p, c)):
                rep = classify(p, c, eq)
                assert by_label.setdefault(rep.classification, rep) is rep
        assert len(by_label) == 2     # stable and unstable both drawn


class TestState7:
    def test_fields_are_the_state_labels(self):
        assert State7._fields == STATE_LABELS
        assert ROW_LABELS == ("S_h", "E_h", "I_h", "R_h", "A_m", "S_m", "E_m", "I_m")

    def test_is_the_seven_tuple(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = tuple(rng.uniform(-1.0, 1.0, size=7).tolist())
            assert State7(*x) == x and tuple(State7(*x)) == x

    def test_from_array_takes_floats(self):
        x = State7.from_array(np.arange(7))
        assert x == tuple(map(float, range(7))) and all(type(v) is float for v in x)

    @pytest.mark.parametrize("n", [0, 6, 8])
    def test_from_array_rejects_other_lengths(self, n):
        with pytest.raises(ValueError, match=f"expected 7 components, got {n}"):
            State7.from_array([1.0] * n)


class TestRhs:
    def test_trivial_equilibrium_is_fixed_point(self):
        x = State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        d = rhs(CAPE_VERDE, 0.0, x)
        assert d == (0.0,) * 7

    def test_disease_free_state_is_fixed_point(self):
        # closed form evaluated by hand: A* = 3*480000*0.45/(0.08*6),
        # S* = 3*480000*0.45*11/6
        x = State7(480000.0, 0.0, 0.0, 1_350_000.0, 1_188_000.0, 0.0, 0.0)
        d = np.array(rhs(CAPE_VERDE, 0.0, x))
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


def full_row(x):
    """x as the CSV-ordered row (S_h, E_h, I_h, R_h, A_m, S_m, E_m, I_m) that
    trajectories report, R_h recovered from the human total by ``_r_h``."""
    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x
    return [s_h, e_h, i_h, _r_h(CAPE_VERDE.N_h, s_h, e_h, i_h), a_m, s_m, e_m, i_m]


class TestReconstructRh:
    def test_all_susceptible(self):
        x = State7(CAPE_VERDE.N_h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert full_row(x)[3] == 0.0

    def test_outbreak_initial_condition(self):
        x = State7(479350.0, 216.0, 434.0, 0.0, 0.0, 0.0, 0.0)
        assert full_row(x)[3] == 0.0

    def test_plain_arithmetic(self):
        x = State7(400000.0, 30000.0, 20000.0, 0.0, 0.0, 0.0, 0.0)
        assert full_row(x)[3] == 30000.0

    def test_negative_rh_reported_not_rejected(self):
        x = State7(CAPE_VERDE.N_h, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert full_row(x)[3] == -1000.0

    def test_human_total_conserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = draw_omega_state(rng, CAPE_VERDE)
            row = full_row(x)
            assert row[:3] + row[4:] == list(x)
            total = row[0] + row[1] + row[2] + row[3]
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
        # the ratio's limit where mu_b*eta_A is 0; reports print it as n/a
        assert basic_offspring_number(params_with(mu_b=0.0), 0.0) == math.inf
        assert basic_offspring_number(params_with(mu_b=5e-324), 0.0) == math.inf


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
            inflow = np.zeros(7)
            inflow[0] = p.mu_h * p.N_h
            recon = metzler_matrix(p, c, x) @ np.array(x) + inflow
            r = np.array(rhs(p, c, x))
            assert np.all(np.abs(recon - r) <= 1e-10 * (np.abs(r) + component_scales(p)))

    def test_inflow_vector(self):
        # F = rhs - M(X)X is the constant recruitment (mu_h*N_h, 0, ..., 0)
        x = State7(CAPE_VERDE.N_h, 0, 0, 0, 0, 0, 0)
        inflow = (np.array(rhs(CAPE_VERDE, 0.0, x))
                  - metzler_matrix(CAPE_VERDE, 0.0, x) @ np.array(x))
        expected = np.zeros(7)
        expected[0] = CAPE_VERDE.mu_h * CAPE_VERDE.N_h
        assert np.array_equal(inflow, expected)

    def test_offdiagonals_nonnegative_on_omega(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            p = draw_params(rng)
            x = draw_omega_state(rng, p)
            m = metzler_matrix(p, rng.uniform(0.0, 0.5), x)
            off = m - np.diag(np.diag(m))
            assert np.all(off >= 0.0)

    def test_infection_entry_with_thousand_infected_mosquitoes(self):
        x = State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
        m = metzler_matrix(CAPE_VERDE, 0.0, x)
        expected = CAPE_VERDE.B * CAPE_VERDE.beta_mh * 1000.0 / CAPE_VERDE.N_h
        assert m[1][0] == pytest.approx(expected, rel=1e-12)
        assert m[1][0] == pytest.approx(0.375 * 1000.0 / 480000.0, rel=1e-12)
        assert m[1][0] >= 0.0


class TestFixedPointIdentity:
    def test_equilibria_have_small_absolute_residuals(self):
        from dengue_control.equilibria import brdfe, endemic_closed_form, trivial_equilibrium

        p = CAPE_VERDE
        bound = 1e-9 * max(p.N_h, p.m * p.N_h)
        for eq in (trivial_equilibrium(p), brdfe(p, 0.0), endemic_closed_form(p, 0.0)):
            d = np.array(rhs(p, 0.0, eq.state))
            assert np.max(np.abs(d)) < bound
