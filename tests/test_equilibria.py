import math
import re

import numpy as np
import pytest

import dengue_control.equilibria as eq_mod
from conftest import CAPE_VERDE, draw_params, params_with
from dengue_control.equilibria import (
    EquilibriumKind,
    brdfe,
    endemic_closed_form,
    refine,
    refined_endemic,
    residual,
    trivial_equilibrium,
)
from dengue_control.errors import MosquitoCollapseError, NoEndemicEquilibrium, NumericalFailure
from dengue_control.model import (
    State7,
    component_scales,
    in_omega,
    mosquito_viability,
    r0_closed_form,
    _rhs_of,
)
from dengue_control.stability import r0_spectral
from dengue_control.threshold import min_control


def _numpy_newton(p, c, guess):
    """State and residual of refine's damped Newton iteration with each step
    from np.linalg.solve, the oracle of its elimination."""
    f = _rhs_of(p, c)
    x = np.array(guess, dtype=float)
    r, res = eq_mod._scaled_rhs(p, f, guess)
    for _ in range(eq_mod._MAX_NEWTON_ITERATIONS):
        if res < eq_mod.REFINE_TOL:
            return State7.from_array(x), res
        step = np.linalg.solve(np.array(eq_mod.jacobian(p, c, x.tolist())), -np.array(r))
        lam = 1.0
        for _ in range(eq_mod._MAX_DAMPING_HALVINGS):
            x_new = x + lam * step
            r_new, res_new = eq_mod._scaled_rhs(p, f, x_new.tolist())
            if all(map(math.isfinite, r_new)) and res_new < res:
                break
            lam *= 0.5
        x, r, res = x_new, r_new, res_new
    return None


class TestTrivialEquilibrium:
    def test_cape_verde_state(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        assert eq.state == State7(480000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert eq.kind is EquilibriumKind.TRIVIAL
        assert eq.residual_norm < 1e-12

    def test_exact_zero_residual(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        assert residual(CAPE_VERDE, 0.0, eq.state) == 0.0

    def test_control_independent(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        for c in (0.0, 0.156961, 1.0):
            assert residual(CAPE_VERDE, c, eq.state) == 0.0


class TestBrdfe:
    def test_cape_verde_components(self):
        eq = brdfe(CAPE_VERDE, 0.0)
        assert eq.state.A_m == pytest.approx(1_350_000.0, rel=1e-12)
        assert eq.state.S_m == pytest.approx(1_188_000.0, rel=1e-12)
        assert eq.state.S_h == CAPE_VERDE.N_h
        assert eq.kind is EquilibriumKind.BRDFE

    def test_residual_small_without_control(self):
        assert brdfe(CAPE_VERDE, 0.0).residual_norm < 1e-9

    def test_collapse_when_recruitment_too_low(self):
        # mu_b at mu_m*(mu_A+eta_A)/eta_A makes the viability margin zero
        critical = CAPE_VERDE.mu_m * (CAPE_VERDE.mu_A + CAPE_VERDE.eta_A) / CAPE_VERDE.eta_A
        for mu_b in (critical, 0.5 * critical):
            with pytest.raises(MosquitoCollapseError, match="collaps"):
                brdfe(params_with(mu_b=mu_b), 0.0)

    def test_output_in_region_and_r0_substitution(self):
        # substituting the constructed (S_h, S_m) into the free-state
        # reproduction-number square must reproduce the closed form
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            assert mosquito_viability(p, c) > 0.0
            eq = brdfe(p, c)
            assert in_omega(p, eq.state)
            s_h, s_m = eq.state.S_h, eq.state.S_m
            free_form_sq = (
                p.B ** 2 * s_h * s_m * p.beta_hm * p.beta_mh * p.eta_m * p.nu_h
                / (p.N_h ** 2 * (p.eta_h + p.mu_h) * (c + p.mu_m)
                   * (c + p.eta_m + p.mu_m) * (p.mu_h + p.nu_h)))
            assert free_form_sq == pytest.approx(r0_closed_form(p, c) ** 2, rel=1e-12)

    def test_residual_recorded_honestly_under_control(self):
        # the zero-control adult balance is not a fixed point of the
        # controlled flow; the mismatch must be visible, not hidden
        assert brdfe(CAPE_VERDE, 0.2).residual_norm > 1e-3


class TestEndemicClosedForm:
    def test_uncontrolled_interior_point(self):
        eq = endemic_closed_form(CAPE_VERDE, 0.0)
        assert all(v > 0.0 for v in eq.state)
        assert in_omega(CAPE_VERDE, eq.state)
        assert eq.refined is False

    def test_exact_fixed_point_without_control(self):
        assert endemic_closed_form(CAPE_VERDE, 0.0).residual_norm < 1e-12

    @pytest.mark.parametrize("c", (0.02, 0.05, 0.08, 0.12))
    def test_exact_fixed_point_under_control(self, c):
        assert endemic_closed_form(CAPE_VERDE, c).residual_norm < 1e-12

    def test_exact_fixed_point_over_draws(self):
        rng = np.random.default_rng(71)
        returned = 0
        for _ in range(200):
            p = draw_params(rng)
            try:
                eq = endemic_closed_form(p, rng.uniform(0.0, 0.3))
            except NoEndemicEquilibrium:
                continue
            returned += 1
            assert eq.residual_norm < 1e-12
        assert returned > 50

    def test_overflow_is_numerical_failure(self):
        # R0**2 overflows, R0 does not
        with pytest.raises(NumericalFailure, match="not finite"):
            endemic_closed_form(params_with(B=1e160), 0.0)

    @pytest.mark.parametrize("c, overrides, message", [
        # rho < 1 < R0, so I_h < 0, and B*beta_hm*I_h/N_h rounds to -(mu_m + c)
        (0.05, {"mu_m": 1e-155, "eta_m": 1e-117},
         "B*beta_hm*I_h/N_h + mu_m + c cancels to 0"),
        # under a control far above mu_m both terms of the sum underflow
        (5.1335707262570364e+23,
         {"mu_m": 1.5e-323, "mu_b": 2.8431427459866402e+290, "eta_A": 169477269024.86108,
          "B": 3.796938811717206e-120, "beta_hm": 1.7581591354438667e-199,
          "K": 2.2927603694941114e+206, "N_h": 8.474825526553334e-52,
          "eta_m": 7.541409674859549e-90},
         "rho*L + B*beta_hm/(mu_m + c) underflows to 0"),
    ], ids=("adult-outflow", "infected-human-denominator"))
    def test_vanishing_denominator_is_numerical_failure(self, c, overrides, message):
        with pytest.raises(NumericalFailure,
                           match=f"^endemic closed form undefined: {re.escape(message)}$"):
            endemic_closed_form(params_with(**overrides), c)

    def test_extreme_rates_end_in_documented_errors(self):
        # 1-4 rates set to 10^(-320...308), the control a usual level or as
        # extreme; about 0.3% of such draws reach a vanishing denominator
        rng = np.random.default_rng(37)
        names = ("N_h", "B", "beta_mh", "beta_hm", "mu_h", "eta_h", "mu_m", "mu_b", "mu_A",
                 "eta_A", "eta_m", "nu_h", "K")
        vanishing = ("B*beta_hm*I_h/N_h + mu_m + c cancels to 0",
                     "rho*L + B*beta_hm/(mu_m + c) underflows to 0")
        vanished = 0
        for _ in range(10000):
            overrides = {name: float(10.0 ** rng.uniform(-320.0, 0.0 if "beta" in name else 308.0))
                         for name in rng.choice(names, size=rng.integers(1, 5), replace=False)}
            c = float(rng.choice([0.0, 0.05, 0.12, 0.2, 10.0 ** rng.uniform(-320.0, 308.0)]))
            try:
                endemic_closed_form(params_with(**overrides), c)
            except NoEndemicEquilibrium:
                pass
            except NumericalFailure as exc:
                vanished += str(exc).endswith(vanishing)
        assert vanished > 0

    def test_error_when_r0_below_one(self):
        with pytest.raises(NoEndemicEquilibrium, match="reproduction"):
            endemic_closed_form(CAPE_VERDE, 0.2)

    def test_error_on_collapse(self):
        with pytest.raises(NoEndemicEquilibrium, match="collaps"):
            endemic_closed_form(params_with(mu_b=0.1), 0.0)

    def test_exposed_infected_mosquito_ratio(self):
        for c in (0.0, 0.05):
            eq = endemic_closed_form(CAPE_VERDE, c)
            expected = (CAPE_VERDE.mu_m + c) / CAPE_VERDE.eta_m
            assert eq.state.E_m / eq.state.I_m == pytest.approx(expected, rel=1e-12)


class TestRefine:
    def test_already_a_root_returns_immediately(self):
        guess = brdfe(CAPE_VERDE, 0.0)
        eq = refine(CAPE_VERDE, 0.0, guess.state)
        assert eq.state == guess.state
        assert eq.refined is True
        assert eq.kind is EquilibriumKind.BRDFE

    def test_polishes_endemic_closed_form(self):
        eq = refine(CAPE_VERDE, 0.0, endemic_closed_form(CAPE_VERDE, 0.0).state)
        assert eq.kind is EquilibriumKind.ENDEMIC
        assert eq.residual_norm < 1e-10

    def test_recovers_root_from_perturbed_guess(self):
        root = refined_endemic(CAPE_VERDE, 0.0)
        bumped = State7(
            root.state.S_h, root.state.E_h, root.state.I_h * 1.01,
            root.state.A_m, root.state.S_m, root.state.E_m, root.state.I_m)
        eq = refine(CAPE_VERDE, 0.0, bumped)
        rel = max(abs(a - b) / max(abs(b), 1e-30)
                  for a, b in zip(eq.state, root.state))
        assert rel < 1e-8

    def test_nonfinite_guess_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            refine(CAPE_VERDE, 0.0, State7(float("nan"), 0, 0, 0, 0, 0, 0))

    def test_nonconvergence_carries_last_residual(self, monkeypatch):
        monkeypatch.setattr(eq_mod, "_MAX_NEWTON_ITERATIONS", 1)
        far = State7(1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5)
        with pytest.raises(NumericalFailure) as exc_info:
            refine(CAPE_VERDE, 0.0, far)
        assert exc_info.value.residual is not None
        assert exc_info.value.residual > 0.0

    def test_trivial_state_refines_to_trivial_kind(self):
        eq = refine(CAPE_VERDE, 0.0, trivial_equilibrium(CAPE_VERDE).state)
        assert eq.kind is EquilibriumKind.TRIVIAL
        assert eq.residual_norm == 0.0

    @staticmethod
    def overshooting_guess():
        """A seeded guess inside the region whose full first Newton step
        raises the scaled residual (2.51 to about 1.3e3)."""
        rng = np.random.default_rng(0)
        x = State7.from_array(rng.uniform(0.0, 1.0, (2, 7))[1]
                              * component_scales(CAPE_VERDE) / 3.0)
        assert in_omega(CAPE_VERDE, x)
        f = _rhs_of(CAPE_VERDE, 0.0)
        r, res = eq_mod._scaled_rhs(CAPE_VERDE, f, x)
        step = np.linalg.solve(eq_mod.jacobian(CAPE_VERDE, 0.0, x), -np.array(r))
        assert eq_mod._scaled_rhs(CAPE_VERDE, f, (np.array(x) + step).tolist())[1] > res
        return x

    def test_damping_recovers_from_an_overshooting_step(self):
        eq = refine(CAPE_VERDE, 0.0, self.overshooting_guess())
        assert eq.kind is EquilibriumKind.ENDEMIC
        assert eq.residual_norm < 1e-10

    def test_exhausted_damping_stalls_with_last_residual(self, monkeypatch):
        guess = self.overshooting_guess()
        # one trial, the full step, which raises the residual
        monkeypatch.setattr(eq_mod, "_MAX_DAMPING_HALVINGS", 1)
        with pytest.raises(NumericalFailure, match="refinement stalled") as exc_info:
            refine(CAPE_VERDE, 0.0, guess)
        assert exc_info.value.residual == residual(CAPE_VERDE, 0.0, guess)

    def test_singular_jacobian_is_numerical_failure(self, monkeypatch):
        # the S_h column zeroed: the elimination meets an exactly zero pivot
        jacobian = eq_mod.jacobian
        monkeypatch.setattr(eq_mod, "jacobian", lambda p, c, x: tuple(
            (0.0, *row[1:]) for row in jacobian(p, c, x)))
        with pytest.raises(NumericalFailure, match="singular Jacobian") as exc_info:
            refine(CAPE_VERDE, 0.0, State7(1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5))
        assert exc_info.value.residual > 0.0

    def test_elimination_pivots_and_refuses_a_zero_pivot(self):
        assert eq_mod._solve(((0.0, 1.0), (2.0, 0.0)), (3.0, 4.0)) == [2.0, 3.0]
        with pytest.raises(ZeroDivisionError):
            eq_mod._solve(((1.0, 2.0), (2.0, 4.0)), (1.0, 1.0))

    def test_matches_a_newton_on_numpy_solve(self):
        # refine's iterates come from its own elimination; the refined states
        # and residuals equal those of the same Newton on np.linalg.solve
        rng = np.random.default_rng(300)
        checked = 0
        for _ in range(300):
            p = draw_params(rng)
            for c in (0.0, 0.05, 0.12, float(rng.uniform(0.0, 0.3))):
                try:
                    guess = endemic_closed_form(p, c).state
                except NoEndemicEquilibrium:
                    continue
                eq = refine(p, c, guess)
                assert (eq.state, eq.residual_norm) == _numpy_newton(p, c, guess)
                checked += eq.kind is EquilibriumKind.ENDEMIC
        assert checked >= 700

    def test_stalls_where_the_jacobian_is_too_ill_conditioned_to_step(self):
        # the Jacobian's condition number here is about 5e114: the I_h and
        # S_m components of a Newton step are rounding noise in any
        # elimination (a Newton on np.linalg.solve's noise happened to land
        # on a root); refine's stalls and reports it
        p = params_with(B=9.352478863310842e44, K=8.12056863434795e75)
        guess = endemic_closed_form(p, 0.12).state
        jac = np.array(eq_mod.jacobian(p, 0.12, guess))
        assert np.linalg.cond(jac) > 1e100
        with pytest.raises(NumericalFailure, match="refinement stalled") as exc_info:
            refine(p, 0.12, guess)
        assert exc_info.value.residual == residual(p, 0.12, guess)

    def test_finds_true_controlled_balance_from_reference_state(self):
        # the exact disease-free fixed point under control solves
        # eta_A*A = (mu_m + c)*S; refining the reference state must land
        # there, not on the zero-control balance it started from
        c = 0.2
        eq = refine(CAPE_VERDE, c, brdfe(CAPE_VERDE, c).state)
        assert eq.kind is EquilibriumKind.BRDFE
        viability = mosquito_viability(CAPE_VERDE, c)
        kn = CAPE_VERDE.k * CAPE_VERDE.N_h
        a_expected = kn * viability / (CAPE_VERDE.eta_A * CAPE_VERDE.mu_b)
        s_expected = CAPE_VERDE.eta_A * a_expected / (CAPE_VERDE.mu_m + c)
        assert eq.state.A_m == pytest.approx(a_expected, rel=1e-9)
        assert eq.state.S_m == pytest.approx(s_expected, rel=1e-9)


class TestEndemicExistenceWindow:
    def test_refined_root_exists_below_threshold(self):
        # the closed-form guess refines to a residual-certified root for
        # every control level below the declared threshold; its components
        # stay positive only below the lower level where the actual flow's
        # disease-free state turns stable (the zero-control-balance gap)
        c_star = min_control(CAPE_VERDE).c_star
        for c in np.linspace(0.0, c_star * 0.95, 8):
            eq = refine(CAPE_VERDE, c, endemic_closed_form(CAPE_VERDE, c).state)
            assert eq.residual_norm < 1e-10
        for c in (0.0, 0.05, 0.08):
            eq = refine(CAPE_VERDE, c, endemic_closed_form(CAPE_VERDE, c).state)
            assert all(v > 0.0 for v in eq.state)

    def test_no_interior_endemic_root_above_threshold(self):
        c_star = min_control(CAPE_VERDE).c_star
        guesses = (
            State7(400000.0, 500.0, 500.0, 1e6, 5e5, 300.0, 300.0),
            State7(470000.0, 50.0, 50.0, 1.2e6, 8e5, 20.0, 20.0),
        )
        for c in (c_star * 1.2, 0.3):
            for guess in guesses:
                eq = refine(CAPE_VERDE, c, guess)
                positive_interior = (eq.kind is EquilibriumKind.ENDEMIC
                                     and all(v > 0.0 for v in eq.state))
                assert not positive_interior

    def test_infected_humans_change_sign_below_paper_threshold(self):
        # I_h of the closed form turns negative where R0 at the controlled
        # flow's disease-free state crosses one, while the paper's R0 > 1
        lo, hi = 0.08, 0.09
        assert endemic_closed_form(CAPE_VERDE, lo).state.I_h > 0.0
        assert endemic_closed_form(CAPE_VERDE, hi).state.I_h < 0.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if endemic_closed_form(CAPE_VERDE, mid).state.I_h > 0.0:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(0.0837170033, abs=1e-9)
        assert r0_closed_form(CAPE_VERDE, hi) > 1.0

    def test_refined_endemic_guard(self):
        with pytest.raises(NoEndemicEquilibrium):
            refined_endemic(CAPE_VERDE, 0.2)

    def test_refined_endemic_refuses_a_disease_free_root(self):
        # at the sign change of I_h the closed form sits on the disease-free
        # state, and Newton refinement lands there
        with pytest.raises(NoEndemicEquilibrium, match="collapsed to a disease-free state"):
            refined_endemic(CAPE_VERDE, 0.0837170033)


class TestResidual:
    def test_trivial_exact_zero(self):
        assert residual(CAPE_VERDE, 0.0, trivial_equilibrium(CAPE_VERDE).state) == 0.0

    def test_brdfe_tiny(self):
        assert residual(CAPE_VERDE, 0.0, brdfe(CAPE_VERDE, 0.0).state) < 1e-12

    def test_initial_condition_not_a_fixed_point(self):
        x0 = State7(479350.0, 216.0, 434.0, 3.0 * 480000.0, 6.0 * 480000.0, 0.0, 0.0)
        assert residual(CAPE_VERDE, 0.0, x0) > 0.0

    @pytest.mark.parametrize("p", (CAPE_VERDE, params_with(N_h=1e-30, k=1e-300)),
                             ids=("cape-verde", "aquatic-scale-underflows"))
    def test_matches_the_array_max_norm(self, p):
        # the max over the numpy quotients is the reference: a NaN anywhere
        # gives NaN, and a zero scale gives inf (or NaN for 0/0, as at the
        # mosquito-free state)
        rng = np.random.default_rng(11)
        states = [np.array([p.N_h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])]
        for bad in (None, math.nan, math.inf, -math.inf):
            for i in range(7):
                states.append(rng.uniform(0.0, 1e6, 7))
                if bad is not None:
                    states[-1][i] = bad
        for x in states:
            with np.errstate(all="ignore"):
                expected = np.max(np.abs(_rhs_of(p, 0.1)(x.tolist())) / component_scales(p))
            got = residual(p, 0.1, State7.from_array(x))
            assert type(got) is float and repr(got) == repr(float(expected))


class TestCarryingCapacity:
    """K set to half of k*N_h: the analysis reads K, as the flow does."""

    HALF_K = params_with(K=0.5 * CAPE_VERDE.k * CAPE_VERDE.N_h)

    def test_disease_free_point_is_a_fixed_point(self):
        assert brdfe(self.HALF_K, 0.0).residual_norm < 1e-12

    def test_endemic_closed_form_is_a_fixed_point(self):
        assert endemic_closed_form(self.HALF_K, 0.0).residual_norm < 1e-12

    def test_r0_scales_with_root_of_capacity(self):
        expected = r0_closed_form(CAPE_VERDE, 0.0) * np.sqrt(0.5)
        assert r0_closed_form(self.HALF_K, 0.0) == pytest.approx(expected, rel=1e-12)
        assert r0_spectral(self.HALF_K, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_threshold(self):
        assert min_control(self.HALF_K, tol=1e-6).c_star == pytest.approx(0.0798233, abs=1e-6)
