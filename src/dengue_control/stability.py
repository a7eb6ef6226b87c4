"""Readings of the model's linearization: local stability of an equilibrium
and the next-generation route to the basic reproduction number.

The linearization target is the reduced 7-dimensional system (recovered
humans eliminated); the eliminated direction contributes a known -mu_h
eigenvalue that is documented here rather than computed.  The analytic
Jacobian J is read as its 19 structurally nonzero entries, d_i = J_ii and
the J_ij (``equilibria._jacobian_entries``), with c checked once per public
call.  No eigensolver is used, and every answer is exact in the float
entries of J: ``classify`` reads the sign of its spectral abscissa (the
largest real part of an eigenvalue); MARGINAL means an abscissa of exactly 0.

``classify`` takes one of two routes, both with exact signs:

* At a disease-free state (E_h, I_h, E_m and I_m exactly 0) with
  nonnegative S_h and S_m, the Jacobian splits into three blocks: -mu_h,
  the (A_m, S_m) 2x2 block and the infected 4-cycle, a Metzler block with
  diagonal -a_i and cycle product P, whose characteristic equation is
  prod(lambda + a_i) = P.  The 2x2 block is stable iff its trace < 0 and
  its determinant > 0; the cycle iff prod(a_i) > P (its Perron root is
  real, van den Driessche and Watmough, Math. Biosci. 180, 2002, Thm 2).
  Each sign is that of a difference of two products of entries
  (``_diff_sign``): the float difference where an a-priori rounding bound
  proves its sign (Shewchuk, Discrete Comput. Geom. 18, 1997), otherwise
  the exact one from the entries' integer ratios, so every sign is exact.
* Every other state goes through the Routh-Hurwitz criterion (Gantmacher,
  The Theory of Matrices II, ch. XV) on integers: each entry is an integer
  times 2^-s for one s, and the integer polynomial, whose roots are those
  of J times 2^s, is the expansion of the determinant over J's seven
  cycles (Harary, SIAM Rev. 4, 1962; ``_cycle_charpoly``),

      det(lambda*I - J) = H*Q - X*Y - Z*(lambda - d_3),
      H = (lambda - d_0)(lambda - d_1)(lambda - d_2),
      Y = (lambda - d_3)(lambda - d_4) - w_1,
      Q = Y*(lambda - d_5)(lambda - d_6) - w_2*(lambda - d_6) - w_3,
      X = w_4 + w_6*(lambda - d_0),   Z = w_5 + w_7*(lambda - d_0),

  with the cycle products w_1 = J_34 J_43, w_2 = J_35 J_54 J_43,
  w_3 = J_36 J_65 J_54 J_43, w_4 = J_06 J_65 J_52 J_21 J_10,
  w_5 = J_06 J_65 J_54 J_42 J_21 J_10, w_6 = J_16 J_65 J_52 J_21 and
  w_7 = J_16 J_65 J_54 J_42 J_21.  The state is stable iff every Hurwitz
  minor is positive.  Otherwise a negative coefficient proves a root with
  positive real part (with none, the monic polynomial is a product of
  factors lambda + a and lambda^2 + 2b*lambda + b^2 + omega^2, a, b >= 0),
  and else the roots on the imaginary axis are among the common roots of
  the even and odd parts of the polynomial (``_root_abscissa_sign``).

``r0_spectral`` returns the spectral radius rho of the next-generation
matrix F*V^-1 of the infected subsystem (E_h, I_h, E_m, I_m), as in van
den Driessche and Watmough, correctly rounded (ties to even).  F - V is the
4-cycle above at the disease-free point S_h = N_h, S_m = K*M/(mu_b*mu_m)
(``model._paper_dfe``, the point ``equilibria.brdfe`` returns): F keeps the
cycle's two new-infection entries, so rho^2 = P/prod(a_i) exactly, the
ratio of the two products ``classify`` compares there, and rho is its
correctly rounded square root (``_sqrt_ratio``).  Its cross-checks are the
radius of F*V^-1 from a determinant of lambda*V - F that assumes no cycle
(``assert_correctly_rounded`` in ``tests/test_reproduction.py``) and
``model.r0_closed_form``,

    R0^2 = B^2 (K/N_h) beta_hm beta_mh eta_m nu_h M
           / (mu_b (eta_h+mu_h) mu_m (c+mu_m) (c+eta_m+mu_m) (mu_h+nu_h))

with M the mosquito viability margin and K the carrying capacity, exactly
the spectral radius at that point.  R0 itself (not its square) is the
canonical return value; a free-state reproduction number is deliberately
not exposed.

A matrix with a non-finite entry is a NumericalFailure, as is a radius
that rounds beyond the largest double.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import zip_longest

from .equilibria import Equilibrium, _jacobian_entries
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, _integer_rows, _paper_dfe, _rate, _sqrt_ratio


class Classification(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class StabilityReport:
    """What ``classify`` returns.  A record of one field, kept so that the
    callers that read ``.classification`` (``report.build_report`` and the
    workloads in ``perfbench/``) keep working."""

    classification: Classification


#: One shared (frozen) report per sign of the spectral abscissa.
_REPORT = {-1: StabilityReport(Classification.ASYMPTOTICALLY_STABLE),
           0: StabilityReport(Classification.MARGINAL),
           1: StabilityReport(Classification.UNSTABLE)}


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _ratio(factors) -> tuple[int, int]:
    """The product of float ``factors`` as integers (num, den), den > 0."""
    num = den = 1
    for f in factors:
        n, d = f.as_integer_ratio()
        num, den = num * n, den * d
    return num, den


#: Limits of ``_diff_sign``'s float filter: the largest factor, the least
#: product, and the relative gap that proves the sign of the difference.
_FILTER_MAX, _FILTER_MIN, _FILTER_GAP = 2.0 ** 250, 2.0 ** -250, 2.0 ** -50


def _diff_sign(left, right) -> int:
    """The exact sign of prod(left) - prod(right) for at most four float
    factors a side.

    The float products l and r decide it where every factor is at most
    2^250 in magnitude, |l| and |r| are at least 2^-250, and
    |l - r| > 2^-50 (|l| + |r|).  Under those limits no partial product
    overflows (it stays below 2^1000) or is subnormal (one that were would
    leave the product below 2^-272), so l and r each have a relative error
    of at most gamma_3 = 3u/(1 - 3u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1), and 2^-50 covers both
    errors and those of the subtraction and the bound.  Elsewhere (zeros,
    near-ties, extreme factors) the sign comes from the integer ratios:
    n_l/d_l - n_r/d_r has the sign of n_l*d_r - n_r*d_l, as every d > 0."""
    l, r = math.prod(left), math.prod(right)
    al, ar = abs(l), abs(r)
    if (al >= _FILTER_MIN and ar >= _FILTER_MIN and abs(l - r) > _FILTER_GAP * (al + ar)
            and max(map(abs, (*left, *right))) <= _FILTER_MAX):
        return _sign(l - r)
    (n, d), (m, e) = _ratio(left), _ratio(right)
    return _sign(n * e - m * d)


def _infected_cycle(e) -> tuple[list[float], tuple[float, ...]]:
    """The infected 4-cycle of a Jacobian at a disease-free state, from its
    entries ``e``: the decay rates a_i = -J_ii of (E_h, I_h, E_m, I_m) and
    the cycle's entries I_m -> E_h -> I_h -> E_m -> I_m, whose product is P.
    The block's other entries are 0."""
    return [-e[1], -e[2], -e[5], -e[6]], (e[9], e[10], e[16], e[18])


def _disease_free_sign(e) -> int | None:
    """Sign of the spectral abscissa of a Jacobian at a disease-free state,
    by its three diagonal blocks; None where the infected cycle is not a
    Metzler block (negative S_h or S_m).  Each a_i is a sum of positive
    rates."""
    a, cycle = _infected_cycle(e)
    if min(cycle) < 0.0:
        return None
    (p, q), (r, s) = (e[3], e[11]), (e[15], e[4])
    det = _diff_sign((p, s), (q, r))
    if det < 0:
        mosquito = 1                                # a real root > 0
    elif det == 0:
        mosquito = max(_sign(p + s), 0)             # roots 0 and the trace
    else:
        mosquito = _sign(p + s)
    # the Perron root lambda* of prod(lambda + a_i) = P has the sign of P - prod(a_i)
    return max(_sign(e[0]), mosquito, _diff_sign(cycle, a))


def _times(poly, d) -> list[int]:
    """The integer polynomial ``poly`` (highest degree first) times lambda - d."""
    return [u - d * v for u, v in zip([*poly, 0], [0, *poly])]


def _cycle_charpoly(e) -> list[int]:
    """Coefficients of det(lambda*I - J), highest degree first, from J's 19
    entries ``e`` as integers, in the order of ``_jacobian_entries``: the
    expansion over J's seven cycles in the module docstring."""
    d0, d1, d2, d3, d4, d5, d6, j06, j10, j16, j21, j34, j35, j36, j42, j43, j52, j54, j65 = e
    back, direct, via_s = j54 * j43, j65 * j21 * j52, j65 * j21 * j54 * j42
    w4, w5, w6, w7 = j06 * j10 * direct, j06 * j10 * via_s, j16 * direct, j16 * via_s
    y = [1, -d3 - d4, d3 * d4 - j34 * j43]
    q = _times(y, d5)
    q[-1] -= j35 * back
    q = _times(q, d6)
    q[-1] -= j36 * j65 * back
    hq = _times(_times(_times(q, d0), d1), d2)
    # X*Y + Z*(lambda - d3) with X = w6*lambda + x and Z = w7*lambda + z
    x, z = w4 - w6 * d0, w5 - w7 * d0
    tail = (w6, w6 * y[1] + x + w7, w6 * y[2] + x * y[1] + z - w7 * d3, x * y[2] - z * d3)
    return [*hq[:4], *(h - t for h, t in zip(hq[4:], tail))]


def _hurwitz_stable(poly) -> bool:
    """Whether every root of ``poly`` (integer coefficients, highest degree
    first, the leading one positive) has a negative real part: every
    Hurwitz minor positive.  The minors are the first column of the
    fraction-free Routh array, whose row k+1 is the cross product of rows
    k-1 and k divided exactly by the minor of order k-2."""
    if min(poly) <= 0:
        return False                     # a necessary condition, for speed
    rows = [poly[0::2], poly[1::2]]
    for k in range(1, len(poly) - 1):
        (a0, *a), (b0, *b) = rows[k - 1], rows[k]
        minor = rows[k - 2][0] if k >= 3 else 1
        rows.append([(b0 * aj - a0 * bj) // minor
                     for aj, bj in zip_longest(a, b, fillvalue=0)])
        if rows[-1][0] <= 0:
            return False
    return True


def _primitive(poly) -> list[int]:
    """The integer polynomial ``poly`` without its leading zeros, divided by
    the gcd of its coefficients, its leading coefficient positive."""
    poly = list(poly)
    while poly and poly[0] == 0:
        poly.pop(0)
    if not poly:
        return poly
    g = math.gcd(*poly) * _sign(poly[0])
    return [c // g for c in poly]


def _divmod(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomials ``a`` and ``b``
    (highest degree first) by long division, scaling the running remainder
    by b[0] wherever a step would leave the integers (pseudo-division), so
    the remainder is that of ``a`` times a power of b[0].  Exact division
    where b is primitive and divides ``a`` (Gauss's lemma)."""
    rem, quot = list(a), []
    while len(rem) >= len(b):
        if rem[0] % b[0]:                # pseudo-division: scale a to keep integers
            rem, quot = [c * b[0] for c in rem], [c * b[0] for c in quot]
        factor = rem[0] // b[0]
        quot.append(factor)
        rem = [r - factor * c for r, c in zip_longest(rem[1:], b[1:], fillvalue=0)]
    return quot, rem


def _poly_gcd(a, b) -> list[int]:
    """Primitive greatest common divisor of two integer polynomials, not
    both zero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_divmod(a, b)[1])
    return a


def _derivative(poly) -> list[int]:
    return [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]


def _root_abscissa_sign(poly) -> int:
    """Exact sign of the largest real part of a root of ``poly``, integer
    coefficients, highest degree first, leading one positive.

    p = ``poly`` has a root on the imaginary axis iff its even part E and
    odd part O share that root, so g = gcd(E, O) holds every such root with
    its multiplicity, and q = p/g has none.  Where p fails the Hurwitz
    test, the sign is 0 iff q passes it and every root of g lies on the
    imaginary axis; g's roots are symmetric about 0, so with g_sf its
    square-free part that holds iff g_sf + g_sf' passes it (Hermite-Biehler).
    """
    if _hurwitz_stable(poly):
        return -1
    if min(poly) < 0:
        return 1                         # a stable or marginal p has no negative coefficient
    n = len(poly) - 1
    even = [c if (n - i) % 2 == 0 else 0 for i, c in enumerate(poly)]
    odd = [c if (n - i) % 2 else 0 for i, c in enumerate(poly)]
    g = _poly_gcd(even, odd)
    if len(g) == 1 or not _hurwitz_stable(_primitive(_divmod(poly, g)[0])):
        return 1
    square_free = _divmod(g, _poly_gcd(g, _derivative(g)))[0]
    rising = [a + b for a, b in zip(square_free, [0, *_derivative(square_free)])]
    return 0 if _hurwitz_stable(_primitive(rising)) else 1


def classify(p: ModelParams, c: ControlLevel | float, eq: Equilibrium) -> StabilityReport:
    """Local stability of an equilibrium: the exact sign of the spectral
    abscissa of the float Jacobian at the state (the routes are in the
    module docstring); MARGINAL where it is exactly 0.  Whether the state is
    a fixed point of the flow is for the caller to judge from
    ``eq.residual_norm``.

    Raises NumericalFailure when the state or its Jacobian is not finite.
    """
    cc = _rate(c)
    x = eq.state
    if x.is_finite() and _finite(e := _jacobian_entries(p, cc, x)):
        sign = _disease_free_sign(e) if x[1] == x[2] == x[5] == x[6] == 0.0 else None
        if sign is None:
            sign = _root_abscissa_sign(_cycle_charpoly(_integer_rows([e])[0]))
        return _REPORT[sign]
    what = ("matrix contains non-finite entries" if x.is_finite()
            else "state contains non-finite components")
    raise NumericalFailure(
        f"cannot classify the {eq.kind.value} state: {what} (overflow at these parameters)")


def r0_spectral(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Spectral radius of the next-generation matrix K = F*V^-1, correctly
    rounded (ties to even).  K is a two-cycle (humans infect mosquitoes
    infect humans), so its spectrum is {rho, -rho, 0, 0} and
    rho^2 = trace(K^2)/2 = P/prod(a_i), the infected cycle's ratio.  Raises
    NumericalFailure when the cycle is not finite or the radius rounds
    beyond the largest double.  Correctly rounded for the float F and V,
    whose entries are already rounded, not for the rates: an entry can
    underflow, so with B = 2.78e-189, N_h = 3.85e-281 and c = 0.12 on the
    built-in scenario this is 0.0, where R0 is 3.6194003461192025e-46.
    """
    cc = _rate(c)
    a, cycle = _infected_cycle(_jacobian_entries(p, cc, _paper_dfe(p, cc)))
    what = "cannot compute the spectral R0 at the brdfe state"
    if not _finite((*a, *cycle)):
        raise NumericalFailure(f"{what}: next-generation matrix contains non-finite "
                               "entries (overflow at these parameters)")
    (num, den), (a_num, a_den) = _ratio(cycle), _ratio(a)
    try:
        return _sqrt_ratio(num * a_den, den * a_num)
    except OverflowError:
        raise NumericalFailure(f"{what}: the radius rounds beyond the largest double "
                               "(overflow at these parameters)") from None
