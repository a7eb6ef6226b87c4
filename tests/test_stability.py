import dataclasses
import math
import random
import re
import sys
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_extreme, draw_omega_state, draw_params, params_with
from dengue_control.equilibria import (Equilibrium, EquilibriumKind, brdfe,
                                       endemic_closed_form, jacobian, trivial_equilibrium,
                                       _ENTRY_AT, _jacobian_entries)
from dengue_control.errors import MosquitoCollapseError, NoEndemicEquilibrium, NumericalFailure
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.model import (
    ControlLevel, ModelParams, State7, component_scales, in_omega, r0_closed_form, _rhs_of)
from dengue_control.report import build_report
from dengue_control.scenario import builtin_capeverde2009
from dengue_control import stability
from dengue_control.stability import (Classification, classify, r0_spectral, _cycle_charpoly,
                                      _diff_sign, _disease_free_sign, _finite, _integer_rows,
                                      _root_abscissa_sign, _sqrt_ratio)


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
                    points.append(endemic_closed_form(p, c))
                except NoEndemicEquilibrium:
                    pass
                for eq in points:
                    vals = np.linalg.eigvals(np.array(jacobian(p, c, eq.state)))
                    abscissa = float(vals.real.max())
                    if abs(abscissa) <= 1e-9 * float(np.abs(vals).max()):
                        continue
                    label = (Classification.ASYMPTOTICALLY_STABLE if abscissa < 0.0
                             else Classification.UNSTABLE)
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
            e = _jacobian_entries(p, c, x)
            assert _disease_free_sign(e) == _root_abscissa_sign(
                _cycle_charpoly(_integer_rows([e])[0]))

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


def berkowitz(a) -> list[int]:
    """Coefficients of det(lambda*I - a), highest degree first, for a square
    integer matrix ``a``, by Berkowitz's division-free algorithm (Inf.
    Process. Lett. 18, 1984): the trailing principal submatrices, largest
    last, each multiply the polynomial by a Toeplitz matrix.  The oracle of
    ``_cycle_charpoly``."""
    n = len(a)
    poly = [1]
    for k in reversed(range(n)):
        row, col = a[k][k + 1:], [a[i][k] for i in range(k + 1, n)]
        sub = [r[k + 1:] for r in a[k + 1:]]
        toeplitz = [1, -a[k][k]]
        for last in reversed(range(n - k - 1)):
            toeplitz.append(-sum(map(mul, row, col)))
            if last:
                col = [sum(map(mul, r, col)) for r in sub]
        # the Toeplitz product: entry i is sum over j of poly[j]*toeplitz[i - j]
        poly = [sum(map(mul, poly[:i + 1], toeplitz[i::-1]))
                for i in range(len(poly) + 1)]
    return poly


def _integer_matrix(ints) -> list[list[int]]:
    """The 19 integer entries of ``_cycle_charpoly`` placed in a 7x7 matrix."""
    rows = [[0] * 7 for _ in range(7)]
    for (i, j), v in zip(_ENTRY_AT, ints):
        rows[i][j] = v
    return rows


class TestRootAbscissaSign:
    KNOWN = [
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
    ]

    @pytest.mark.parametrize("poly, sign", KNOWN)
    def test_known_polynomials(self, poly, sign):
        assert _root_abscissa_sign(poly) == sign

    @staticmethod
    def _no_gcd(monkeypatch):
        def refuse(a, b):
            raise AssertionError("reached the gcd route")
        monkeypatch.setattr(stability, "_poly_gcd", refuse)

    def test_a_negative_coefficient_settles_the_sign(self, monkeypatch):
        # a polynomial whose roots all have real parts <= 0 is a product of
        # (l + a) and (l^2 + 2bl + b^2 + w^2) with a, b >= 0, so none of its
        # coefficients is negative
        self._no_gcd(monkeypatch)
        rnd = random.Random(43)
        checked = 0
        for _ in range(2000):
            factors, parts = [], []
            for _ in range(rnd.randint(1, 4)):
                part = rnd.randint(-3, 3)
                factors.append([1, -part] if rnd.random() < 0.5
                               else [1, -2 * part, part * part + rnd.randint(1, 3) ** 2])
                parts.append(part)
            poly = _expand(*factors)
            if min(poly) < 0:
                assert _root_abscissa_sign(poly) == 1 and max(parts) > 0
                checked += 1
        assert checked >= 500, checked

    @pytest.mark.parametrize("poly, sign", KNOWN)
    def test_only_a_negative_coefficient_skips_the_gcd_route(self, poly, sign, monkeypatch):
        # (l^2+1)(l-1) and (l+1)(l-1) take the exit; every other row that
        # fails the Hurwitz test, (l^2+1)(l+1) and l^4 + 1 among them, still
        # reaches the gcd
        self._no_gcd(monkeypatch)
        if min(poly) < 0:
            assert _root_abscissa_sign(poly) == sign == 1
        elif sign == -1:
            assert _root_abscissa_sign(poly) == -1
        else:
            with pytest.raises(AssertionError, match="^reached the gcd route$"):
                _root_abscissa_sign(poly)

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
            assert berkowitz(a.tolist()) == np.round(np.poly(a)).astype(np.int64).tolist()

    def test_integer_form_keeps_every_bit(self):
        # each entry is an integer times 2^-s for one s, the least that works
        rows = ((0.1, -0.0, 5e-324), (1.7e308, -3.0, 0.5))
        ints = _integer_rows(rows)
        s = 1074
        assert [[Fraction(v, 2 ** s) for v in r] for r in ints] \
            == [list(map(Fraction, r)) for r in rows]
        assert any(v % 2 for r in ints for v in r)


class TestCycleCharpoly:
    """``_cycle_charpoly`` gives Berkowitz's polynomial of the whole integer
    Jacobian, coefficient for coefficient."""

    @staticmethod
    def _assert_matches(p, c, x) -> bool:
        """Compare the two where the Jacobian is finite; at a disease-free
        state, also check the product of its three blocks,
        (l - d_0) * Y * (prod(l + a_i) - P).  Whether it compared."""
        e = _jacobian_entries(p, c, x)
        if not all(map(math.isfinite, e)):
            return False
        ints = _integer_rows([e])[0]
        poly = _cycle_charpoly(ints)
        assert poly == berkowitz(_integer_rows(jacobian(p, c, x)))
        if x[1] == x[2] == x[5] == x[6] == 0.0:
            d, (j34, j43) = ints[:7], (ints[11], ints[15])
            y = [1, -d[3] - d[4], d[3] * d[4] - j34 * j43]
            cycle = _expand(*([1, -d[i]] for i in (1, 2, 5, 6)))
            cycle[-1] -= math.prod(ints[i] for i in (9, 10, 16, 18))
            assert poly == _expand([1, -d[0]], y, cycle)
        return True

    def test_at_the_equilibria_of_draws(self):
        rng = np.random.default_rng(3407)
        compared = 0
        for _ in range(330):
            p = draw_params(rng)
            for c in (0.0, 0.05, float(rng.uniform(0.0, 0.3))):
                points = [trivial_equilibrium(p), brdfe(p, c)]
                try:
                    points.append(endemic_closed_form(p, c))
                except NoEndemicEquilibrium:
                    pass
                compared += sum(self._assert_matches(p, c, eq.state) for eq in points)
        assert compared >= 2400, compared

    def test_at_the_stall_case(self):
        # entries of about 680 bits at the endemic state
        p, c = params_with(B=9.352478863310842e44, K=8.12056863434795e75), 0.12
        x = endemic_closed_form(p, c).state
        assert self._assert_matches(p, c, x)
        assert max(map(abs, _integer_rows([_jacobian_entries(p, c, x)])[0])).bit_length() > 600

    def test_at_random_states(self):
        # signed zeros, negative, subnormal and 2^(+-1000) components, a third
        # of the states disease-free
        rng = np.random.default_rng(3413)
        rnd = random.Random(3413)

        def component(scale):
            return rnd.choice((0.0, -0.0, 5e-324 * rnd.randint(1, 1000),
                               -5e-324 * rnd.randint(1, 1000), 2.0 ** 1000, -2.0 ** -1000,
                               2.0 ** rnd.uniform(-1000.0, 1000.0),
                               scale * rnd.uniform(-1.5, 1.5), scale * rnd.uniform(0.0, 1.0)))

        compared = 0
        for i in range(3000):
            p = draw_params(rng)
            x = [component(s) for s in component_scales(p)]
            if i % 3 == 0:
                x[1] = x[2] = x[5] = x[6] = 0.0
            compared += self._assert_matches(p, rnd.uniform(0.0, 0.3), State7(*x))
        assert compared >= 2000, compared


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


def _exact_diff_sign(left, right) -> int:
    """The sign of prod(left) - prod(right) in Fractions: the oracle."""
    diff = math.prod(map(Fraction, left)) - math.prod(map(Fraction, right))
    return (diff > 0) - (diff < 0)


_UP, _DOWN = math.inf, 0.0
_BIG, _TINY = 2.0 ** 250, 2.0 ** -250


class TestFilteredProductPredicate:
    """``_diff_sign`` answers from the float products only where its rounding
    bound proves the sign, and from the integer ratios (``_ratio``)
    everywhere else."""

    @pytest.mark.parametrize("left, right, exact_route", [
        # well separated: the float filter decides
        ((2.0, 3.0), (5.0,), False),
        ((0.1, 0.2, 0.3, 0.4), (0.003,), False),
        ((-2.0, 3.0), (5.0,), False),
        ((-2.0, -3.0), (-5.0, 1.0), False),
        # exact ties and one-ulp neighbours: the integer ratios decide
        ((2.0, 3.0), (6.0,), True),
        ((0.1, 0.7, 1e-3, 3e5), (3e5, 1e-3, 0.7, 0.1), True),
        ((0.1, 0.2, 0.3), (0.1, 0.2, math.nextafter(0.3, _UP)), True),
        ((0.1, 0.2, 0.3), (0.1, 0.2, math.nextafter(0.3, _DOWN)), True),
        ((1.0,), (math.nextafter(1.0, _UP),), True),
        ((-1.0, -1.0), (1.0,), True),
        # zeros, -0.0 among them
        ((-0.0, 1.0), (0.0,), True),
        ((-0.0, -5.0), (3.0,), True),
        ((0.0, 2.0), (-0.0, 7.0, -1.0), True),
        # factors at 2^250 and one ulp either side
        ((_BIG,), (1.0,), False),
        ((math.nextafter(_BIG, _DOWN),), (1.0,), False),
        ((math.nextafter(_BIG, _UP),), (1.0,), True),
        ((-_BIG, _BIG, _BIG, _BIG), (1.0,), False),
        ((1.0,), (-math.nextafter(_BIG, _UP),), True),
        # factors and products at 2^-250 and one ulp either side
        ((_TINY,), (1.0,), False),
        ((math.nextafter(_TINY, _UP),), (1.0,), False),
        ((math.nextafter(_TINY, _DOWN),), (1.0,), True),
        ((2.0 ** -125, 2.0 ** -125), (3.0,), False),
        ((2.0 ** -125, math.nextafter(2.0 ** -125, _DOWN)), (3.0,), True),
        ((2.0 ** -600, 2.0 ** 200, 2.0 ** 150), (1.0,), False),
        ((2.0 ** -600, 2.0 ** 200, 2.0 ** 150), (_TINY, 0.5), True),
        # a subnormal partial product: doubles near 2^-1060 carry 15 bits, so
        # (1 + 2^-20) 2^-1060 rounds to 2^-1060 and the float product is
        # 2^-250, below the right side, while the exact one is above it; the
        # factors beyond 2^250 send it to the exact route
        (((1.0 + 2.0 ** -20) * 2.0 ** -1000, 2.0 ** -60, 2.0 ** 405, 2.0 ** 405),
         ((1.0 + 2.0 ** -21) * _TINY,), True),
        # the same within the factor limit: the product falls below 2^-250
        (((1.0 + 2.0 ** -20) * 2.0 ** -1000, 2.0 ** -60, _BIG, _BIG),
         ((1.0 + 2.0 ** -21) * 2.0 ** -560,), True),
        # a partial product that underflows to 0
        ((2.0 ** -1000, 2.0 ** -100, 2.0 ** 250, 2.0 ** 250), (2.0 ** -601,), True),
        # subnormal factors
        ((5e-324, 2.0), (1e-323,), True),
        ((5e-324,), (-5e-324,), True),
    ])
    def test_edges_match_fractions_and_take_the_expected_route(
            self, left, right, exact_route, monkeypatch):
        calls = []
        ratio = stability._ratio
        monkeypatch.setattr(stability, "_ratio", lambda f: calls.append(f) or ratio(f))
        for a, b in ((left, right), (right, left)):
            calls.clear()
            assert _diff_sign(a, b) == _exact_diff_sign(a, b)
            assert bool(calls) is exact_route

    def test_random_factors_near_the_limits_match_fractions(self):
        # factors and products around 2^250, 2^-250 and the subnormal range,
        # compared with their neighbours and with products an ulp apart
        rnd = random.Random(33)

        def draw():
            e = rnd.choice((250, -250, -1022, -1074, 0, rnd.randint(-1074, 1019)))
            x = math.ldexp(rnd.uniform(0.5, 2.0), e + rnd.randint(-3, 3))
            return rnd.choice((-1.0, 1.0)) * min(x, 1.7e308)

        for _ in range(3000):
            left = [draw() for _ in range(rnd.randint(1, 4))]
            right = rnd.choice((
                lambda: [draw() for _ in range(rnd.randint(1, 4))],
                lambda: [math.nextafter(left[0], rnd.choice((0.0, math.inf))), *left[1:]],
                lambda: [math.prod(left)],
                lambda: [rnd.choice((-1.0, 1.0)) * _TINY],
            ))()
            if not math.isfinite(math.prod(right)):
                continue
            assert _diff_sign(left, right) == _exact_diff_sign(left, right)


class TestFinite:
    def test_finite_entries_whose_sum_overflows(self):
        assert _finite([1e308] * 49)
        assert _finite([1e308] * 24 + [-1e308] * 25)
        assert _finite([-1.7e308] * 49)

    @pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf],
                                     [math.inf, -math.inf]])
    @pytest.mark.parametrize("fill", [0.0, 1.0, 1e308])
    def test_a_non_finite_entry_is_found(self, bad, fill):
        # the bad entries first, last and apart, among finite ones that may
        # overflow the sum on their own
        for where in ((0, 1), (47, 48), (3, 40)):
            values = [fill] * 49
            for i, v in zip(where, bad):
                values[i] = v
            assert not _finite(values)


class TestFilteredLabels:
    """``classify`` gives the same label with ``_diff_sign`` replaced by an
    exact-only sign in Fractions."""

    @staticmethod
    def _labels(cases, monkeypatch, exact_only):
        with monkeypatch.context() as m:
            if exact_only:
                m.setattr(stability, "_diff_sign", _exact_diff_sign)
            return [classify(p, c, state(p, c)).classification for p, c, state in cases]

    def test_at_the_theorem_2_flip_neighbours(self, monkeypatch):
        # the draws and bisection of TestTheorem2Concordance's spectral test
        def label(p, c):
            return classify(p, c, brdfe(p, c)).classification

        rng = np.random.default_rng(2031)
        cases = []
        for _ in range(200):
            p = draw_params(rng)
            cases.append((p, float(rng.uniform(0.0, 0.3)), brdfe))
            lo, hi = 0.0, 0.3
            if label(p, lo) is Classification.UNSTABLE \
                    and label(p, hi) is not Classification.UNSTABLE:
                while math.nextafter(lo, 1.0) < hi:
                    mid = 0.5 * (lo + hi)
                    if label(p, mid) is Classification.UNSTABLE:
                        lo = mid
                    else:
                        hi = mid
                cases += [(p, lo, brdfe), (p, hi, brdfe)]
        assert len(cases) >= 400
        assert self._labels(cases, monkeypatch, False) == self._labels(cases, monkeypatch, True)

    def test_on_the_builtin_grid(self, monkeypatch):
        p = builtin_capeverde2009().params
        cases = [(p, i * 1e-4, state) for i in range(3301)
                 for state in (brdfe, lambda p, c: trivial_equilibrium(p))]
        labels = self._labels(cases, monkeypatch, False)
        assert labels == self._labels(cases, monkeypatch, True)
        assert {Classification.UNSTABLE, Classification.ASYMPTOTICALLY_STABLE} <= set(labels)


def _parent_abscissa_sign(poly) -> int:
    """``_root_abscissa_sign`` without the negative-coefficient exit: every
    polynomial that fails the Hurwitz test takes the gcd route."""
    if stability._hurwitz_stable(poly):
        return -1
    n = len(poly) - 1
    even = [c if (n - i) % 2 == 0 else 0 for i, c in enumerate(poly)]
    odd = [c if (n - i) % 2 else 0 for i, c in enumerate(poly)]
    g = stability._poly_gcd(even, odd)
    if len(g) == 1 or not stability._hurwitz_stable(
            stability._primitive(stability._divmod(poly, g)[0])):
        return 1
    square_free = stability._divmod(g, stability._poly_gcd(g, stability._derivative(g)))[0]
    rising = [a + b for a, b in zip(square_free, [0, *stability._derivative(square_free)])]
    return 0 if stability._hurwitz_stable(stability._primitive(rising)) else 1


class TestCycleLabels:
    """``classify`` and ``r0_spectral`` answer as they do with the entries
    read from the typed Jacobian, Berkowitz's polynomial of its integer
    form and no negative-coefficient exit, the route they replaced."""

    @staticmethod
    def _answers(cases, monkeypatch, oracle):
        def typed_entries(p, c, x):
            jac = _typed_jacobian(p, c, x)
            return tuple(jac[i, j].item() for i, j in _ENTRY_AT)

        def answer(route, *args):
            try:
                return repr(route(*args))
            except (NumericalFailure, MosquitoCollapseError) as exc:
                return type(exc).__name__, str(exc)

        answers = []
        with monkeypatch.context() as m:
            if oracle:
                m.setattr(stability, "_jacobian_entries", typed_entries)
                m.setattr(stability, "_cycle_charpoly",
                          lambda ints: berkowitz(_integer_matrix(ints)))
                m.setattr(stability, "_root_abscissa_sign", _parent_abscissa_sign)
            for p, c, states in cases:
                answers.append(answer(r0_spectral, p, c))
                answers += [answer(classify, p, c, eq) for eq in states]
        return answers

    @staticmethod
    def _cases(draws):
        """Each (p, c) with the states that the equilibria give there."""
        cases = []
        for p, c in draws:
            states = [trivial_equilibrium(p)]
            for build in (brdfe, endemic_closed_form):
                try:
                    states.append(build(p, c))
                except (NoEndemicEquilibrium, MosquitoCollapseError, NumericalFailure):
                    pass
            cases.append((p, c, states))
        return cases

    def _assert_identical(self, cases, monkeypatch):
        answers = self._answers(cases, monkeypatch, False)
        assert answers == self._answers(cases, monkeypatch, True)
        return answers

    def test_at_the_equilibria_of_draws(self, monkeypatch):
        rng = np.random.default_rng(3301)
        cases = self._cases((draw_params(rng), float(rng.uniform(0.0, 0.3)))
                            for _ in range(3200))
        answers = self._assert_identical(cases, monkeypatch)
        labels = {repr(stability._REPORT[s]) for s in (-1, 1)}
        assert labels <= set(answers)
        assert sum(len(states) for _, _, states in cases) >= 7000

    def test_at_extreme_rates(self, monkeypatch):
        # the variants of test_correctly_rounded_over_extreme_rate_fuzz
        rnd = random.Random(7)
        draws = []
        for _ in range(6000):
            try:
                draws.append(draw_extreme(rnd))
            except ValueError:
                continue
        answers = self._assert_identical(self._cases(draws), monkeypatch)
        assert sum(isinstance(a, tuple) for a in answers) >= 100


#: The least real that rounds to infinity: halfway from the largest double to
#: 2^1024, a tie that rounds up, as the largest double is odd.
_OVERFLOW_EDGE = 2 ** 1024 - 2 ** 970


def _upper_midpoint(x: float) -> Fraction:
    up = math.nextafter(x, math.inf)
    return (Fraction(x) + (Fraction(up) if up < math.inf else Fraction(2 ** 1024))) / 2


def assert_nearest_sqrt(x: float, q: Fraction) -> None:
    """x is the double nearest sqrt(q), ties to even: q lies between the
    squares of the midpoints around x, and on one of them only if x is even."""
    below = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2 if x else Fraction(0)
    above = _upper_midpoint(x)
    assert below ** 2 <= q <= above ** 2
    if q in (below ** 2, above ** 2):
        assert x.hex().split("p")[0][-1] in "02468ace"


class TestSqrtRatio:
    # each case against Fractions and math.nextafter only

    DOUBLES = (5e-324, 1.5e-323, 2.5e-322, 1e-310, 2.225073858507201e-308,
               2.2250738585072014e-308, 1e-200, 0.1, 1.0, 2.0, 2.396084838081026, 3.0,
               1e100, 1.3407807929942596e154, 1e300, sys.float_info.max)

    @pytest.mark.parametrize("d", (1, 2, 3, 2 ** 2000))
    def test_zero(self, d):
        assert _sqrt_ratio(0, d) == 0.0

    def test_exact_squares_of_doubles(self):
        rnd = random.Random(31)
        doubles = [*self.DOUBLES, *(2.0 ** rnd.uniform(-1074.0, 1024.0) for _ in range(300)),
                   *(5e-324 * rnd.randint(1, 2 ** 52) for _ in range(100))]
        for x in doubles:
            q = Fraction(x) ** 2
            assert _sqrt_ratio(q.numerator, q.denominator) == x
            assert _sqrt_ratio(3 * q.numerator, 3 * q.denominator) == x

    def test_squared_midpoints_round_to_even(self):
        rnd = random.Random(37)
        doubles = [0.0, *self.DOUBLES[:-1],
                   *(2.0 ** rnd.uniform(-1074.0, 1023.0) for _ in range(300))]
        for x in doubles:
            q = _upper_midpoint(x) ** 2
            r = _sqrt_ratio(q.numerator, q.denominator)
            assert r in (x, math.nextafter(x, math.inf))
            assert_nearest_sqrt(r, q)
        assert _sqrt_ratio(1, 2 ** 2150) == 0.0              # (2^-1075)^2: a tie, to 0
        assert _sqrt_ratio(9, 2 ** 2150) == 1e-323           # (3*2^-1075)^2: to 2*2^-1074

    def test_random_ratios(self):
        rnd = random.Random(41)
        for _ in range(2000):
            n = rnd.getrandbits(rnd.randint(1, 2200))
            d = rnd.getrandbits(rnd.randint(1, 2200)) + 1
            q = Fraction(n, d)
            try:
                r = _sqrt_ratio(n, d)
            except OverflowError:
                assert q >= _OVERFLOW_EDGE ** 2
            else:
                assert q < _OVERFLOW_EDGE ** 2
                assert_nearest_sqrt(r, q)

    def test_overflow_edge(self):
        with pytest.raises(OverflowError):
            _sqrt_ratio(_OVERFLOW_EDGE ** 2, 1)
        assert _sqrt_ratio(_OVERFLOW_EDGE ** 2 - 1, 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            _sqrt_ratio(2 ** 5000, 3)


class TestClassify:
    def test_controlled_disease_free_state_stable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the inexact brdfe state draws no warning
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

    @staticmethod
    def singular_mosquito_block():
        """Parameters and a disease-free state (S_m = 1.25) whose (A_m, S_m)
        block has entries -4, 2, 1 and -0.5: determinant exactly 0, trace
        < 0, and a stable infected cycle."""
        p = ModelParams(N_h=1000.0, B=1.0, beta_mh=0.25, beta_hm=0.25, mu_h=0.5, eta_h=0.5,
                        mu_m=0.5, mu_b=2.0, mu_A=0.5, eta_A=1.0, eta_m=0.5, nu_h=0.5,
                        m=1.0, k=1.0, K=1.0)
        return p, State7(1000.0, 0.0, 0.0, 0.0, 1.25, 0.0, 0.0)

    def test_marginal_where_the_mosquito_determinant_is_zero(self):
        p, x = self.singular_mosquito_block()
        jac = jacobian(p, 0.0, x)
        assert jac[3][3] * jac[4][4] == jac[3][4] * jac[4][3] == 2.0
        eq = Equilibrium(EquilibriumKind.BRDFE, x, residual_norm=0.0)
        assert classify(p, 0.0, eq).classification is Classification.MARGINAL
        e = _jacobian_entries(p, 0.0, x)
        assert _root_abscissa_sign(_cycle_charpoly(_integer_rows([e])[0])) == 0
        assert abs(np.linalg.eigvals(np.array(jac)).real.max()) < 1e-12

    def test_negative_mosquito_state_takes_the_general_route(self):
        # S_m < 0 turns the cycle's E_m entry negative, so the cycle is not
        # a Metzler block and the disease-free blocks do not decide; the
        # (A_m, S_m) block then has eigenvalues -1.5 and 1.5
        p, x = self.singular_mosquito_block()
        x = x._replace(S_m=-1.0)
        jac = jacobian(p, 0.0, x)
        assert _disease_free_sign(_jacobian_entries(p, 0.0, x)) is None
        eq = Equilibrium(EquilibriumKind.BRDFE, x, residual_norm=0.0)
        assert classify(p, 0.0, eq).classification is Classification.UNSTABLE
        assert np.linalg.eigvals(np.array(jac)).real.max() == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_non_finite_state_is_refused(self, bad):
        x = State7(CAPE_VERDE.N_h, 0.0, bad, 0.0, 1.0, 0.0, 0.0)
        eq = Equilibrium(EquilibriumKind.ENDEMIC, x, residual_norm=0.0)
        message = ("cannot classify the endemic state: state contains non-finite "
                   "components (overflow at these parameters)")
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            classify(CAPE_VERDE, 0.0, eq)

    def test_label_flips_between_adjacent_doubles_of_c(self):
        # bisect the doubles of c to the crossing of the brdfe label: no band
        # absorbs it, so two adjacent levels carry opposite labels, and the
        # closed-form R0 is 1 to rounding there
        def label(c):
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

    def test_classification_matches_spectral_r0_with_no_band(self):
        # both read the infected cycle's P and prod(a_i) at the brdfe state,
        # where the (A_m, S_m) determinant M*(mu_m + c)/mu_m is positive, so
        # they agree at every c: at a drawn level and at the two adjacent
        # doubles where the label flips (where R0 often rounds to 1.0 exactly,
        # which says nothing of the sign of P - prod(a_i))
        def label(p, c):
            return classify(p, c, brdfe(p, c)).classification

        rng = np.random.default_rng(2031)
        checked = flips = 0
        for _ in range(200):
            p = draw_params(rng)
            levels = [float(rng.uniform(0.0, 0.3))]
            lo, hi = 0.0, 0.3
            if label(p, lo) is Classification.UNSTABLE \
                    and label(p, hi) is not Classification.UNSTABLE:
                while math.nextafter(lo, 1.0) < hi:
                    mid = 0.5 * (lo + hi)
                    if label(p, mid) is Classification.UNSTABLE:
                        lo = mid
                    else:
                        hi = mid
                levels += [lo, hi]
                flips += 1
            for c in levels:
                r0 = r0_spectral(p, c)
                if r0 == 1.0:
                    continue
                assert label(p, c) is (Classification.UNSTABLE if r0 > 1.0
                                       else Classification.ASYMPTOTICALLY_STABLE)
                checked += 1
        assert flips >= 100 and checked >= 250, (flips, checked)

    def test_endemic_root_classified_stable_uncontrolled(self):
        report = classify(CAPE_VERDE, 0.0, endemic_closed_form(CAPE_VERDE, 0.0))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
