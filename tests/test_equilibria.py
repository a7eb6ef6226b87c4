import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dengue_control.equilibria as eq_mod
from conftest import CAPE_VERDE, draw_extreme, draw_params, params_with
from dengue_control.equilibria import (
    REFINE_TOL,
    EquilibriumKind,
    brdfe,
    endemic_closed_form,
    jacobian,
    refined_endemic,
    residual,
    trivial_equilibrium,
)
from dengue_control.errors import MosquitoCollapseError, NoEndemicEquilibrium, NumericalFailure
from dengue_control.model import (
    ModelParams,
    State7,
    component_scales,
    in_omega,
    mosquito_viability,
    r0_closed_form,
    _rhs_of,
)
from dengue_control.scenario import builtin_capeverde2009
from dengue_control.stability import r0_spectral
from dengue_control.threshold import min_control

#: At c = 0.12 the Jacobian at this endemic root has a condition number of
#: about 5e114, and a damped Newton on float solves stalls near it
STALL = params_with(B=9.352478863310842e44, K=8.12056863434795e75)


def _exact(p, c):
    """The rates of p and the control c as Fractions, by field name."""
    return SimpleNamespace(c=Fraction(c), **{name: Fraction(getattr(p, name))
                                             for name in ModelParams.__dataclass_fields__})


def _exact_rhs(p, c, x):
    """The model's right-hand side at x in exact rational arithmetic."""
    q = _exact(p, c)
    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x
    foi_h = q.B * q.beta_mh * i_m / q.N_h
    foi_m = q.B * q.beta_hm * i_h / q.N_h
    return (q.mu_h * q.N_h - (foi_h + q.mu_h) * s_h,
            foi_h * s_h - (q.nu_h + q.mu_h) * e_h,
            q.nu_h * e_h - (q.eta_h + q.mu_h) * i_h,
            q.mu_b * (1 - a_m / q.K) * (s_m + e_m + i_m) - (q.eta_A + q.mu_A) * a_m,
            -(foi_m + q.mu_m + q.c) * s_m + q.eta_A * a_m,
            foi_m * s_m - (q.mu_m + q.eta_m + q.c) * e_m,
            q.eta_m * e_m - (q.mu_m + q.c) * i_m)


def _exact_existence(p, c):
    """The viability margin and rho = R0^2*mu_m/(mu_m + c), R0 squared at the
    controlled flow's disease-free state, in Fractions; rho is None where the
    margin is <= 0 and R0 is not defined."""
    q = _exact(p, c)
    removal = q.mu_m + q.c
    margin = q.eta_A * q.mu_b - q.c * (q.eta_A + q.mu_A) - q.mu_m * (q.mu_A + q.eta_A)
    if margin <= 0:
        return margin, None
    r0_sq = (q.B ** 2 * q.K / q.N_h * q.beta_hm * q.beta_mh * q.eta_m * q.nu_h * margin
             / (q.mu_b * (q.eta_h + q.mu_h) * q.mu_m * removal * (removal + q.eta_m)
                * (q.mu_h + q.nu_h)))
    return margin, r0_sq * q.mu_m / removal


def _exact_endemic(p, c):
    """The endemic root in Fractions, step by step as the paper builds it:
    rho from ``_exact_existence``, I_h from the equation linear in rho, A_m
    from the aquatic balance and each other component from its own
    balance."""
    q = _exact(p, c)
    removal = q.mu_m + q.c
    margin, rho = _exact_existence(p, c)
    big_l = (q.mu_h + q.nu_h) * (q.mu_h + q.eta_h) / (q.mu_h * q.nu_h)
    i_h = q.N_h * (rho - 1) / (rho * big_l + q.B * q.beta_hm / removal)
    a_m = q.K * margin / (q.eta_A * q.mu_b)
    foi_m = q.B * q.beta_hm * i_h / q.N_h
    s_m = q.eta_A * a_m / (foi_m + removal)
    e_m = foi_m * s_m / (removal + q.eta_m)
    return (q.N_h - big_l * i_h, (q.mu_h + q.eta_h) / q.nu_h * i_h, i_h,
            a_m, s_m, e_m, q.eta_m * e_m / removal)


def _numpy_newton(p, c, guess):
    """State and residual of a damped Newton iteration on rhs = 0 from
    ``guess``, each step from np.linalg.solve: the step is halved (up to 30
    times) until the scaled residual falls, and a root is declared below
    REFINE_TOL; None after 100 iterations or where damping is exhausted."""
    f = _rhs_of(p, c)
    x = np.array(guess, dtype=float)
    r, res = eq_mod._scaled_rhs(p, f, guess)
    for _ in range(100):
        if res < REFINE_TOL:
            return State7.from_array(x), res
        step = np.linalg.solve(np.array(jacobian(p, c, x.tolist())), -np.array(r))
        lam = 1.0
        for _ in range(30):
            x_new = x + lam * step
            r_new, res_new = eq_mod._scaled_rhs(p, f, x_new.tolist())
            if all(map(math.isfinite, r_new)) and res_new < res:
                break
            lam *= 0.5
        else:
            return None
        x, r, res = x_new, r_new, res_new
    return None


def _infected_level(p, x) -> float:
    """The largest infected component of x relative to its compartment scale."""
    scales = component_scales(p)
    return max(abs(x[i]) / scales[i] for i in (1, 2, 5, 6))


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
        assert eq.kind is EquilibriumKind.ENDEMIC

    def test_exact_fixed_point_without_control(self):
        assert endemic_closed_form(CAPE_VERDE, 0.0).residual_norm < 1e-12

    @pytest.mark.parametrize("c", (0.02, 0.05, 0.08, 0.0837170032746723))
    def test_exact_fixed_point_under_control(self, c):
        assert endemic_closed_form(CAPE_VERDE, c).residual_norm < 1e-12

    def test_exact_fixed_point_over_draws(self):
        rng = np.random.default_rng(71)
        returned = 0
        for _ in range(250):
            p = draw_params(rng)
            try:
                eq = endemic_closed_form(p, rng.uniform(0.0, 0.3))
            except NoEndemicEquilibrium:
                continue
            returned += 1
            assert eq.residual_norm < 1e-12
        assert returned > 50

    def test_overflow_is_numerical_failure(self):
        # S_m of the exact root lies beyond the largest double
        p = params_with(beta_hm=5.25254638158142e-159, eta_A=2.4597204498718987e+307)
        with pytest.raises(NumericalFailure,
                           match="^endemic closed form is not finite at these parameters$"):
            endemic_closed_form(p, 0.12)
        with pytest.raises(OverflowError):
            [float(v) for v in _exact_endemic(p, 0.12)]

    def test_extreme_rates_end_in_documented_errors(self):
        # 1-4 rates set to 10^(-320...308), the control a usual level or as
        # extreme: "not finite" is raised only where a component of the
        # exact root lies beyond the largest double
        rng = np.random.default_rng(37)
        names = ("N_h", "B", "beta_mh", "beta_hm", "mu_h", "eta_h", "mu_m", "mu_b", "mu_A",
                 "eta_A", "eta_m", "nu_h", "K")
        overflowed = 0
        for _ in range(10000):
            overrides = {name: float(10.0 ** rng.uniform(-320.0, 0.0 if "beta" in name else 308.0))
                         for name in rng.choice(names, size=rng.integers(1, 5), replace=False)}
            c = float(rng.choice([0.0, 0.05, 0.12, 0.2, 10.0 ** rng.uniform(-320.0, 308.0)]))
            p = params_with(**overrides)
            try:
                endemic_closed_form(p, c)
            except NoEndemicEquilibrium:
                pass
            except NumericalFailure as exc:
                if "endemic" in str(exc):
                    with pytest.raises(OverflowError):
                        [float(v) for v in _exact_endemic(p, c)]
                    overflowed += 1
        assert overflowed > 0

    def test_error_when_r0_below_one(self):
        with pytest.raises(NoEndemicEquilibrium, match=r"^no endemic equilibrium in the "
                           r"admissible region: rho = R0\^2\*mu_m/\(mu_m \+ c\) = 0\.227826 <= 1$"):
            endemic_closed_form(CAPE_VERDE, 0.2)

    def test_error_on_collapse(self):
        with pytest.raises(NoEndemicEquilibrium, match="collaps"):
            endemic_closed_form(params_with(mu_b=0.1), 0.0)
        # the exact margin, about -1e600, rounds beyond the largest double
        with pytest.raises(NoEndemicEquilibrium, match=r"\(viability margin = -inf\)$"):
            endemic_closed_form(params_with(mu_m=1e300, eta_A=1e300), 0.0)

    def test_exposed_infected_mosquito_ratio(self):
        for c in (0.0, 0.05):
            eq = endemic_closed_form(CAPE_VERDE, c)
            expected = (CAPE_VERDE.mu_m + c) / CAPE_VERDE.eta_m
            assert eq.state.E_m / eq.state.I_m == pytest.approx(expected, rel=1e-12)

    def test_refined_endemic_is_the_closed_form(self):
        assert refined_endemic is endemic_closed_form


class TestExactRoot:
    """Each endemic component is the double nearest the exact rational root,
    whose right-hand side is exactly zero."""

    @staticmethod
    def assert_nearest_to_exact_root(p, c):
        eq = endemic_closed_form(p, c)
        root = _exact_endemic(p, c)
        assert not any(_exact_rhs(p, c, root))
        assert eq.state == tuple(map(float, root)), (p, c)
        return eq

    def test_over_draws(self):
        rng = np.random.default_rng(2029)
        checked = 0
        for _ in range(320):
            p = draw_params(rng)
            for c in (0.0, 0.02, 0.05):
                try:
                    eq = self.assert_nearest_to_exact_root(p, c)
                except NoEndemicEquilibrium:
                    continue
                assert eq.residual_norm < REFINE_TOL
                checked += 1
        assert checked >= 700

    @pytest.mark.parametrize("p, c, exists", [
        (STALL, 0.12, True),
        # mu_h*nu_h underflows in floats
        (params_with(mu_h=1e-200, nu_h=1e-200), 0.0, True),
        (params_with(mu_h=1e-200, nu_h=1e-200), 0.05, False),
        # R0^2 overflows in floats
        (params_with(B=1e160), 0.0, True),
        (params_with(B=1e160), 0.05, True),
        # the adult outflow rounds to 0 in floats
        (params_with(mu_m=1e-155, eta_m=1e-117), 0.05, False),
        # under a control far above mu_m, rho*L + B*beta_hm/(mu_m + c)
        # underflows to 0 in floats
        (params_with(mu_m=1.5e-323, mu_b=2.8431427459866402e+290, eta_A=169477269024.86108,
                     B=3.796938811717206e-120, beta_hm=1.7581591354438667e-199,
                     K=2.2927603694941114e+206, N_h=8.474825526553334e-52,
                     eta_m=7.541409674859549e-90), 5.1335707262570364e+23, False),
    ], ids=("stall", "mu_h-nu_h-underflow", "mu_h-nu_h-underflow-controlled",
            "huge-bite-rate", "huge-bite-rate-controlled", "adult-outflow",
            "infected-human-denominator"))
    def test_at_extreme_rates(self, p, c, exists):
        if exists:
            self.assert_nearest_to_exact_root(p, c)
            return
        # rho <= 1 < R0: the exact root has I_h <= 0, outside the region
        _, rho = _exact_existence(p, c)
        assert rho <= 1 < rho * (Fraction(p.mu_m) + Fraction(c)) / Fraction(p.mu_m)
        assert _exact_endemic(p, c)[2] <= 0
        with pytest.raises(NoEndemicEquilibrium, match="rho = "):
            endemic_closed_form(p, c)

    @pytest.mark.parametrize("c", (0.0, 0.05, 0.08, 0.0837170032746723))
    def test_on_the_builtin_scenario(self, c):
        # 0.0837170032746723 is the largest double with rho > 1, where the
        # closed form sits next to the disease-free state
        self.assert_nearest_to_exact_root(builtin_capeverde2009().params, c)

    def test_stall_case_is_a_root(self):
        assert endemic_closed_form(STALL, 0.12).residual_norm == 0.0


class TestExistenceOracle:
    """A state comes back exactly where the exact viability margin is positive
    and the exact rho exceeds one, every component >= 0 and the double nearest
    the Fraction root; elsewhere NoEndemicEquilibrium, or NumericalFailure
    only where a component of the Fraction root lies beyond the largest
    double."""

    @staticmethod
    def outcome(p, c):
        """The outcome at (p, c), checked against the oracle: "state",
        "none" or "overflow"."""
        margin, rho = _exact_existence(p, c)
        if margin <= 0 or rho <= 1:
            with pytest.raises(NoEndemicEquilibrium,
                               match="collapses" if margin <= 0 else "rho = "):
                endemic_closed_form(p, c)
            return "none"
        try:
            expected = tuple(map(float, _exact_endemic(p, c)))
        except OverflowError:
            with pytest.raises(NumericalFailure, match="not finite"):
                endemic_closed_form(p, c)
            return "overflow"
        state = endemic_closed_form(p, c).state
        assert state == expected and min(state) >= 0.0, (p, c)
        return "state"

    def test_over_draws(self):
        rng = np.random.default_rng(3803)
        outcomes = Counter(self.outcome(draw_params(rng), c)
                           for _ in range(200) for c in (0.0, 0.05, 0.1))
        assert outcomes["state"] >= 300 and outcomes["none"] >= 100, outcomes

    def test_over_extreme_rates(self):
        rnd = random.Random(7)
        outcomes = Counter()
        for _ in range(6000):
            try:
                p, c = draw_extreme(rnd)
            except ValueError:
                continue
            outcomes[self.outcome(p, c)] += 1
        assert outcomes["state"] >= 500 and 0 < outcomes["overflow"] <= 11, outcomes


class TestNewtonCrossCheck:
    """A damped Newton iteration on numpy's solver finds the roots the
    closed forms give."""

    @pytest.mark.parametrize("c", (0.0, 0.05))
    def test_recovers_the_closed_form_from_a_perturbed_guess(self, c):
        root = endemic_closed_form(CAPE_VERDE, c).state
        assert _numpy_newton(CAPE_VERDE, c, root) == (
            root, endemic_closed_form(CAPE_VERDE, c).residual_norm)
        state, res = _numpy_newton(CAPE_VERDE, c, root._replace(I_h=root.I_h * 1.01))
        assert res < REFINE_TOL
        assert max(abs(a - b) / abs(b) for a, b in zip(state, root)) < 1e-8

    def test_finds_true_controlled_balance_from_reference_state(self):
        # the exact disease-free fixed point under control solves
        # eta_A*A = (mu_m + c)*S; Newton from the reference state must land
        # there, not on the zero-control balance it started from
        c = 0.2
        state, _ = _numpy_newton(CAPE_VERDE, c, brdfe(CAPE_VERDE, c).state)
        assert _infected_level(CAPE_VERDE, state) < 1e-8
        viability = mosquito_viability(CAPE_VERDE, c)
        kn = CAPE_VERDE.k * CAPE_VERDE.N_h
        a_expected = kn * viability / (CAPE_VERDE.eta_A * CAPE_VERDE.mu_b)
        s_expected = CAPE_VERDE.eta_A * a_expected / (CAPE_VERDE.mu_m + c)
        assert state.A_m == pytest.approx(a_expected, rel=1e-9)
        assert state.S_m == pytest.approx(s_expected, rel=1e-9)


class TestEndemicExistenceWindow:
    def test_root_exists_below_threshold(self):
        # a positive, residual-certified root below the level where the
        # controlled flow's own disease-free state turns stable (rho = 1 near
        # c = 0.0837); above it, up to the paper's c* (R0 = 1) and past it,
        # NoEndemicEquilibrium
        c_star = min_control(CAPE_VERDE).c_star
        for c in np.linspace(0.0, 0.0837170032, 8):
            eq = endemic_closed_form(CAPE_VERDE, c)
            assert eq.residual_norm < REFINE_TOL and all(v > 0.0 for v in eq.state)
        for c in np.linspace(0.0837170034, c_star * 1.2, 8):
            with pytest.raises(NoEndemicEquilibrium, match="rho = "):
                endemic_closed_form(CAPE_VERDE, c)

    def test_no_interior_endemic_root_above_threshold(self):
        c_star = min_control(CAPE_VERDE).c_star
        guesses = (
            State7(400000.0, 500.0, 500.0, 1e6, 5e5, 300.0, 300.0),
            State7(470000.0, 50.0, 50.0, 1.2e6, 8e5, 20.0, 20.0),
        )
        found = 0
        for c in (c_star * 1.2, 0.3):
            for guess in guesses:
                if (root := _numpy_newton(CAPE_VERDE, c, guess)) is not None:
                    state = root[0]
                    found += 1
                    assert not (_infected_level(CAPE_VERDE, state) > 1e-8
                                and all(v > 0.0 for v in state))
        assert found > 0

    def test_infected_humans_change_sign_below_paper_threshold(self):
        # the root's I_h turns negative where R0 at the controlled flow's
        # disease-free state crosses one, while the paper's R0 > 1; from there
        # on NoEndemicEquilibrium is raised.  Bisected on the exception down to
        # two adjacent doubles
        def exists(c):
            try:
                endemic_closed_form(CAPE_VERDE, c)
            except NoEndemicEquilibrium:
                return False
            return True

        lo, hi = 0.08, 0.09
        assert exists(lo) and not exists(hi)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exists(mid) else (lo, mid)
        assert lo == 0.0837170032746723 == pytest.approx(0.0837170033, abs=1e-9)
        assert _exact_endemic(CAPE_VERDE, lo)[2] > 0 >= _exact_endemic(CAPE_VERDE, hi)[2]
        assert r0_closed_form(CAPE_VERDE, hi) > 1.0


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

    def test_brdfe_records_the_residual_of_its_state(self):
        # brdfe takes its residual from the bound right-hand side, not
        # through residual(); the two agree to the bit on the built-in grid
        # c = 0 ... 0.33 (step 1e-4) and on 300 draws with c in U[0, 0.3]
        p = builtin_capeverde2009().params
        cases = [(p, i * 1e-4) for i in range(3301)]
        rng = np.random.default_rng(2037)
        cases += [(draw_params(rng), float(rng.uniform(0.0, 0.3))) for _ in range(300)]
        for p, c in cases:
            eq = brdfe(p, c)
            assert eq.residual_norm.hex() == residual(p, c, eq.state).hex(), (p, c)


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
