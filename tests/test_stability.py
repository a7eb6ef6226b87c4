import dataclasses
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_omega_state, draw_params, params_with
from dengue_control.equilibria import (Equilibrium, EquilibriumKind, brdfe, jacobian,
                                       refined_endemic, trivial_equilibrium)
from dengue_control.errors import NoEndemicEquilibrium, NumericalFailure
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.model import (
    ControlLevel, State7, component_scales, in_omega, r0_closed_form, _rhs_of)
from dengue_control.report import build_report
from dengue_control.scenario import builtin_capeverde2009
from dengue_control.stability import (Classification, classify, r0_spectral, _charpoly,
                                      _diff_sign, _disease_free_sign, _integer_rows,
                                      _root_abscissa_sign)


def _fd_jacobian(p, c, x):
    f = _rhs_of(p, c)
    base = np.array(x)
    steps = 1e-6 * np.array(component_scales(p))
    jac = np.empty((7, 7))
    for j in range(7):
        up, dn = base.copy(), base.copy()
        up[j] += steps[j]
        dn[j] -= steps[j]
        jac[:, j] = (np.array(f(up.tolist())) - np.array(f(dn.tolist()))) / (2.0 * steps[j])
    return jac


def _entry_r0(c):
    """R0 at the point of each equilibrium entry of ``build_report`` on the
    Cape Verde scenario at control c, by kind."""
    scenario = dataclasses.replace(builtin_capeverde2009(), params=CAPE_VERDE,
                                   control=ControlLevel(c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
        return {e.kind: e.r0_at_point for e in build_report(scenario).equilibria}


def _typed_jacobian(p, c, x):
    """The model's Jacobian typed entry by entry (19 entries), independently
    of the Metzler form the package derives it from."""
    s_h, _, i_h, a_m, s_m, e_m, i_m = x
    foi_h = p.B * p.beta_mh * i_m / p.N_h
    foi_m = p.B * p.beta_hm * i_h / p.N_h
    adults = s_m + e_m + i_m
    crowding = p.mu_b * (1.0 - a_m / p.K)

    jac = np.zeros((7, 7))
    jac[0, 0] = -(foi_h + p.mu_h)
    jac[0, 6] = -p.B * p.beta_mh * s_h / p.N_h
    jac[1, 0] = foi_h
    jac[1, 1] = -(p.nu_h + p.mu_h)
    jac[1, 6] = p.B * p.beta_mh * s_h / p.N_h
    jac[2, 1] = p.nu_h
    jac[2, 2] = -(p.eta_h + p.mu_h)
    jac[3, 3] = -p.mu_b * adults / p.K - (p.eta_A + p.mu_A)
    jac[3, 4] = crowding
    jac[3, 5] = crowding
    jac[3, 6] = crowding
    jac[4, 2] = -p.B * p.beta_hm * s_m / p.N_h
    jac[4, 3] = p.eta_A
    jac[4, 4] = -(foi_m + p.mu_m + c)
    jac[5, 2] = p.B * p.beta_hm * s_m / p.N_h
    jac[5, 4] = foi_m
    jac[5, 5] = -(p.mu_m + p.eta_m + c)
    jac[6, 5] = p.eta_m
    jac[6, 6] = -(p.mu_m + c)
    return jac


_SCALED_FIELDS = ("N_h", "B", "mu_h", "eta_h", "mu_m", "mu_b", "mu_A", "eta_A",
          "eta_m", "nu_h", "m", "k", "K")


class TestJacobian:
    def test_product_rule_matches_typed_jacobian(self):
        # rates over x10^(+-3), c up to 100, states partly outside the
        # admissible region, and exact zeros of both signs
        rng = np.random.default_rng(89)
        for i in range(1000):
            p = dataclasses.replace(
                CAPE_VERDE, beta_mh=rng.uniform(0.0, 1.0), beta_hm=rng.uniform(0.0, 1.0),
                **{name: getattr(CAPE_VERDE, name) * 10.0 ** rng.uniform(-3.0, 3.0)
                   for name in _SCALED_FIELDS})
            c = rng.uniform(0.0, 100.0)
            y = rng.uniform(-0.5, 1.5, size=7) * component_scales(p)
            y[rng.integers(7)] = (0.0, -0.0)[i % 2]
            x = State7.from_array(y)
            rows = jacobian(p, c, x)
            assert type(rows) is tuple and [type(r) for r in rows] == [tuple] * 7
            assert {type(v) for r in rows for v in r} == {float}
            derived = np.array(rows)
            assert np.array(jacobian(p, c, tuple(x))).tobytes() == derived.tobytes()
            typed = _typed_jacobian(p, c, x)
            assert np.array_equal(derived, typed)
            assert np.array_equal(np.signbit(derived), np.signbit(typed))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            x = draw_omega_state(rng, p)
            analytic = np.array(jacobian(p, c, x))
            numeric = _fd_jacobian(p, c, x)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_human_block_decouples_at_trivial_equilibrium(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        vals = np.linalg.eigvals(jacobian(CAPE_VERDE, 0.0, eq.state))
        assert min(abs(v - (-CAPE_VERDE.mu_h)) for v in vals) < 1e-12

    def test_incubation_passthrough_entry_constant(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            x = draw_omega_state(rng, CAPE_VERDE)
            jac = jacobian(CAPE_VERDE, rng.uniform(0.0, 1.0), x)
            assert jac[6][5] == CAPE_VERDE.eta_m

    def test_logistic_coupling_entry(self):
        x = State7(1e5, 10.0, 10.0, 7e5, 1e6, 50.0, 50.0)
        jac = jacobian(CAPE_VERDE, 0.0, x)
        expected = CAPE_VERDE.mu_b * (1.0 - x.A_m / CAPE_VERDE.K)
        assert jac[3][4] == pytest.approx(expected, rel=1e-14)


class TestSpectrumOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_classify_reads_the_jacobian_spectrum(self, seed):
        # the label is the sign of the abscissa of numpy's eigenvalues of the
        # Jacobian wherever that abscissa lies outside the rounding band
        # 1e-9*max|lambda| of the eigensolver; 12 seeds give over 700 states
        rng = np.random.default_rng(1000 + seed)
        checked = 0
        for _ in range(12):
            p = draw_params(rng)
            for c in (0.0, 0.05, 0.12, 0.2, float(rng.uniform(0.0, 0.3))):
                points = [trivial_equilibrium(p), brdfe(p, c)]
                try:
                    points.append(refined_endemic(p, c))
                except NoEndemicEquilibrium:
                    pass
                for eq in points:
                    vals = np.linalg.eigvals(np.array(jacobian(p, c, eq.state)))
                    abscissa = float(vals.real.max())
                    if abs(abscissa) <= 1e-9 * float(np.abs(vals).max()):
                        continue
                    label = (Classification.ASYMPTOTICALLY_STABLE if abscissa < 0.0
                             else Classification.UNSTABLE)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
                        assert classify(p, c, eq).classification is label
                    checked += 1
        assert checked >= 60

    def test_disease_free_blocks_agree_with_the_general_route(self):
        # both routes are exact, so they agree on every disease-free state,
        # the marginal one of TestClassify included
        rng = np.random.default_rng(1013)
        states = [(p, c, eq.state) for p, c in
                  ((draw_params(rng), float(rng.uniform(0.0, 0.3))) for _ in range(40))
                  for eq in (trivial_equilibrium(p), brdfe(p, c))]
        states.append(TestClassify.cycle_at_balance())
        for p, c, x in states:
            jac = jacobian(p, c, x)
            assert _disease_free_sign(jac) == _root_abscissa_sign(
                _charpoly(_integer_rows(jac)))

    @pytest.mark.parametrize("overrides, route, message", [
        ({"nu_h": 1e308, "mu_h": 1e308}, "classify",
         "cannot classify the trivial state: matrix contains non-finite entries"),
        ({"mu_m": 1e308, "eta_A": 1.7e308, "mu_b": 1.7e308}, "r0_spectral",
         "cannot compute the spectral R0 at the brdfe state: "
         "next-generation matrix contains non-finite entries"),
        # a subnormal eta_h + mu_h leaves F and V finite and the radius near
        # 1e160 (TestR0Routes in test_reproduction); the bite rate takes it
        # past the largest double
        ({"eta_h": 1e-320, "mu_h": 1e-320, "B": 1e300}, "r0_spectral",
         "cannot compute the spectral R0 at the brdfe state: "
         "the radius rounds beyond the largest double"),
    ], ids=("classify-overflow", "r0_spectral-overflow", "r0_spectral-subnormal"))
    def test_non_finite_matrix_is_numerical_failure(self, overrides, route, message):
        # a finite state whose matrix or radius overflows is refused, not solved
        p = params_with(**overrides)
        with pytest.raises(NumericalFailure,
                           match=f"^{re.escape(message)} \\(overflow at these parameters\\)$"):
            if route == "classify":
                classify(p, 0.0, trivial_equilibrium(p))
            else:
                r0_spectral(p, 0.0)


def _expand(*factors):
    """The product of integer polynomials, highest degree first."""
    poly = [1]
    for factor in factors:
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return poly


class TestRootAbscissaSign:
    @pytest.mark.parametrize("poly, sign", [
        (_expand(*[[1, 1]] * 7), -1),                    # (l+1)^7
        (_expand([1, 0, 1], [1, 1]), 0),                 # (l^2+1)(l+1)
        ([1, 1, 2, 2, 3], 1),                            # a zero in Routh's first column
        ([1, 2, 2, 4, 11, 10], 1),                       # a zero in Routh's first column
        (_expand([1, 0, 1], [1, 0, 2], [1, 3]), 0),      # two imaginary pairs
        (_expand([1, 0, 1], [1, 0, 1], [1, 2]), 0),      # a double imaginary pair
        (_expand([1, 0, 1], [1, -1]), 1),                # an imaginary pair and a root at 1
        ([1, 0, 0, 0, 1], 1),                            # l^4 + 1: roots off both axes
        (_expand([1, 1], [1, -1]), 1),                   # roots +-1 share the even/odd gcd
        ([1, 0, 0], 0),                                  # a double root at 0
        ([1, 5, 6, 0], 0),                               # a simple root at 0
        ([3], -1),                                       # no roots
    ])
    def test_known_polynomials(self, poly, sign):
        assert _root_abscissa_sign(poly) == sign

    def test_products_of_known_factors(self):
        # real roots and conjugate pairs with small integer parts, so the
        # abscissa is the largest real part among them
        rnd = random.Random(17)
        for _ in range(500):
            factors, parts = [], []
            for _ in range(rnd.randint(1, 4)):
                re = rnd.randint(-3, 3)
                if rnd.random() < 0.5:
                    factors.append([1, -re])
                else:
                    factors.append([1, -2 * re, re * re + rnd.randint(1, 3) ** 2])
                parts.append(re)
            assert _root_abscissa_sign(_expand(*factors)) == (max(parts) > 0) - (max(parts) < 0)

    def test_characteristic_polynomial_of_integer_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a = rng.integers(-20, 21, size=(n, n))
            assert _charpoly(a.tolist()) == np.round(np.poly(a)).astype(np.int64).tolist()

    def test_integer_form_keeps_every_bit(self):
        # each entry is an integer times 2^-s for one s, the least that works
        rows = ((0.1, -0.0, 5e-324), (1.7e308, -3.0, 0.5))
        ints = _integer_rows(rows)
        s = 1074
        assert [[Fraction(v, 2 ** s) for v in r] for r in ints] \
            == [list(map(Fraction, r)) for r in rows]
        assert any(v % 2 for r in ints for v in r)


class TestProductPredicate:
    def test_sign_matches_fractions(self):
        # products of 1-4 factors across the whole range, zeros and
        # subnormals included, against exact ones: equal as multisets, one
        # ulp apart, or unrelated
        rnd = random.Random(23)

        def draw():
            magnitude = rnd.choice((lambda: rnd.uniform(0.5, 2.0),
                                    lambda: 2.0 ** rnd.uniform(-1070.0, 1020.0),
                                    lambda: 5e-324 * rnd.randint(1, 1000),
                                    lambda: 0.0))()
            return rnd.choice((-1.0, 1.0)) * magnitude

        for _ in range(3000):
            left = [draw() for _ in range(rnd.randint(1, 4))]
            right = rnd.choice((
                lambda: [draw() for _ in range(rnd.randint(1, 4))],
                lambda: rnd.sample(left, len(left)),
                lambda: [math.nextafter(left[0], rnd.choice((0.0, math.inf))), *left[1:]],
            ))()
            diff = math.prod(map(Fraction, left)) - math.prod(map(Fraction, right))
            assert _diff_sign(left, right) == (diff > 0) - (diff < 0)


class TestClassify:
    def test_controlled_disease_free_state_stable(self):
        with pytest.warns(UserWarning, match="residual"):
            report = classify(CAPE_VERDE, 0.2, brdfe(CAPE_VERDE, 0.2))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
        r0 = _entry_r0(0.2)["brdfe"]
        assert r0 is not None and r0 < 1.0
        assert r0 == r0_closed_form(CAPE_VERDE, 0.2)

    def test_uncontrolled_disease_free_state_unstable(self):
        report = classify(CAPE_VERDE, 0.0, brdfe(CAPE_VERDE, 0.0))
        assert report.classification is Classification.UNSTABLE
        r0 = _entry_r0(0.0)
        assert r0["brdfe"] == pytest.approx(2.396, abs=1e-3)
        assert r0["brdfe"] == r0_closed_form(CAPE_VERDE, 0.0)
        assert r0["endemic"] is None

    def test_trivial_equilibrium_unstable_with_viable_mosquitoes(self):
        report = classify(CAPE_VERDE, 0.0, trivial_equilibrium(CAPE_VERDE))
        assert report.classification is Classification.UNSTABLE
        assert _entry_r0(0.0)["trivial"] is None

    @staticmethod
    def cycle_at_balance():
        """Parameters, c and a disease-free state whose infected cycle has
        prod(a_i) = P exactly: a = (1, 1, 1, 0.5) and P = 1*0.5*2*0.5."""
        p = params_with(N_h=1.0, B=1.0, beta_mh=1.0, beta_hm=1.0, mu_h=0.5, nu_h=0.5,
                        eta_h=0.5, mu_m=0.25, eta_m=0.5, K=3.0)
        return p, 0.25, State7(1.0, 0.0, 0.0, 3.0, 2.0, 0.0, 0.0)

    def test_marginal_at_exact_threshold(self):
        # the (A_m, S_m) block has trace < 0 and determinant > 0 (A_m = K), so
        # the abscissa is the cycle's Perron root, exactly 0
        p, c, x = self.cycle_at_balance()
        jac = jacobian(p, c, x)
        assert math.prod(-jac[i][i] for i in (1, 2, 5, 6)) \
            == jac[1][6] * jac[2][1] * jac[5][2] * jac[6][5] == 0.5
        eq = Equilibrium(EquilibriumKind.BRDFE, x, residual_norm=0.0)
        assert classify(p, c, eq).classification is Classification.MARGINAL
        vals = np.linalg.eigvals(np.array(jac))
        assert abs(vals.real.max()) < 1e-12

    def test_label_flips_between_adjacent_doubles_of_c(self):
        # bisect the doubles of c to the crossing of the brdfe label: no band
        # absorbs it, so two adjacent levels carry opposite labels, and the
        # closed-form R0 is 1 to rounding there
        def label(c):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return classify(CAPE_VERDE, c, brdfe(CAPE_VERDE, c)).classification
        lo, hi = 0.15, 0.16
        assert label(lo) is Classification.UNSTABLE
        assert label(hi) is Classification.ASYMPTOTICALLY_STABLE
        while math.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            if label(mid) is Classification.UNSTABLE:
                lo = mid
            else:
                hi = mid
        assert label(hi) in (Classification.ASYMPTOTICALLY_STABLE, Classification.MARGINAL)
        assert r0_closed_form(CAPE_VERDE, lo) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("bites", (1e9, 1e17, 1e100))
    def test_unstable_states_stay_unstable_at_large_bite_rates(self, bites):
        # the disease-free abscissa grows like sqrt(B); the margin must not
        # outgrow it
        p = params_with(B=bites)
        for eq in (trivial_equilibrium(p), brdfe(p, 0.0)):
            assert classify(p, 0.0, eq).classification is Classification.UNSTABLE

    def test_report_fields_consistent(self):
        eq = brdfe(CAPE_VERDE, 0.0)
        report = classify(CAPE_VERDE, 0.0, eq)
        vals = np.linalg.eigvals(np.array(jacobian(CAPE_VERDE, 0.0, eq.state)))
        assert report.classification is Classification.UNSTABLE and max(vals.real) > 0.0
        assert dataclasses.asdict(report).keys() == {"classification"}


class TestSimulationConcordance:
    def test_perturbation_decays_or_departs_as_classified(self):
        # distance is measured on the infected block: the susceptible
        # human deficit relaxes at rate mu_h (decades), while the theorem
        # content is the fate of infections
        stable_p = params_with(beta_mh=0.1, beta_hm=0.1)
        unstable_p = CAPE_VERDE
        assert r0_closed_form(stable_p, 0.0) < 1.0
        assert r0_closed_form(unstable_p, 0.0) > 1.0

        for p, expect_decay in ((stable_p, True), (unstable_p, False)):
            eq = brdfe(p, 0.0)
            report = classify(p, 0.0, eq)
            assert (report.classification is Classification.ASYMPTOTICALLY_STABLE) \
                == expect_decay

            scales = np.array(component_scales(p))
            direction = np.array([-1.0, 0.5, 0.5, -1.0, -1.0, 0.5, 0.5])
            start = State7.from_array(
                np.array(eq.state) + 1e-4 * scales * direction)
            assert in_omega(p, start)

            traj = integrate(p, 0.0, start, SolverConfig(t_end=200.0))
            data = traj.as_array()
            infected = np.abs(data[:, [1, 2, 6, 7]]) / np.array(
                [p.N_h, p.N_h, p.m * p.N_h, p.m * p.N_h])
            d_start = infected[0].max()
            d_end = infected[-1].max()
            if expect_decay:
                assert d_end < d_start
            else:
                assert infected.max() > 10.0 * d_start


class TestTheorem2Concordance:
    def test_classification_matches_r0_threshold(self):
        rng = np.random.default_rng(83)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while checked < 50:
                p = draw_params(rng)
                c = rng.uniform(0.0, 0.3)
                r0 = r0_closed_form(p, c)
                if abs(r0 - 1.0) <= 1e-3:
                    continue
                report = classify(p, c, brdfe(p, c))
                if r0 > 1.0:
                    assert report.classification is Classification.UNSTABLE
                else:
                    assert report.classification is Classification.ASYMPTOTICALLY_STABLE
                checked += 1

    def test_endemic_root_classified_stable_uncontrolled(self):
        report = classify(CAPE_VERDE, 0.0, refined_endemic(CAPE_VERDE, 0.0))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
