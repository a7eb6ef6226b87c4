"""Readings of the model's linearization: local stability of an equilibrium
and the next-generation route to the basic reproduction number.

The linearization target is the reduced 7-dimensional system (recovered
humans eliminated); the eliminated direction contributes a known -mu_h
eigenvalue that is documented here rather than computed.  The analytic
Jacobian is ``equilibria.jacobian``, which takes the state as any sequence
of 7 floats (a ``State7`` included) and returns seven row tuples.  No
eigensolver is used, and every answer is exact in the float entries of that
Jacobian: ``classify`` reads the sign of its spectral abscissa (the largest
real part of an eigenvalue), and MARGINAL means an abscissa of exactly 0.

``classify`` takes one of two routes, both decided in exact arithmetic:

* At a disease-free state (E_h, I_h, E_m and I_m exactly 0) with
  nonnegative S_h and S_m, the Jacobian splits into three blocks: -mu_h,
  the (A_m, S_m) 2x2 block and the infected 4-cycle, a Metzler block with
  diagonal -a_i and cycle product P, whose characteristic equation is
  prod(lambda + a_i) = P.  The 2x2 block is stable iff its trace < 0 and
  its determinant > 0; the cycle iff prod(a_i) > P (its Perron root is
  real, van den Driessche and Watmough, Math. Biosci. 180, 2002, Thm 2).
  Each sign is that of a difference of two products of entries, taken
  exactly from the entries' integer ratios (``_diff_sign``).
* Every other state goes through the Routh-Hurwitz criterion (Gantmacher,
  The Theory of Matrices II, ch. XV) on integers: each entry is an integer
  times 2^-s for one s, Berkowitz's division-free algorithm gives the
  characteristic polynomial of the integer matrix (its roots are those of
  the Jacobian times 2^s, so the signs of their real parts are unchanged),
  and the state is stable iff every Hurwitz minor is positive.  Otherwise
  the roots on the imaginary axis are among the common roots of the even
  and odd parts of that polynomial (``_root_abscissa_sign``).

``r0_spectral`` returns the spectral radius of the next-generation matrix
F*V^-1 of the infected subsystem (E_h, I_h, E_m, I_m), as in van den
Driessche and Watmough, correctly rounded: the double nearest the exact
radius of the matrix that the float entries of F and V define, ties to
even.  F - V is the infected block of the Jacobian at the disease-free
point S_h = N_h, S_m = K*M/(mu_b*mu_m) (``model._paper_dfe``, the point
``equilibria.brdfe`` returns); F keeps the block's two new-infection
entries, so V is lower triangular with a positive diagonal and
det(lambda*V - F) = det(lambda*I - F*V^-1) * det V has the sign of the
characteristic polynomial of F*V^-1, with no inverse formed.  Its
independent cross-check is ``model.r0_closed_form``,

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
import struct
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, zip_longest
from operator import mul

from .equilibria import Equilibrium, jacobian
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, _paper_dfe, _rate

#: Residual above which classify() warns that the input is not close
#: enough to a fixed point for its linearization to mean much.
RESIDUAL_WARN = 1e-6

#: Rows and columns of the infected subsystem (E_h, I_h, E_m, I_m) in the state.
_INFECTED = (1, 2, 5, 6)

#: Steps, in ulps, of r0_spectral's search outward from its candidate.
_GALLOP = (1, 2, 4, 8, 16, 32)

#: Column pairs of a 4x4 matrix, in the order of ``_det4``'s minors.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Classification(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


#: Label of each sign of the spectral abscissa.
_LABEL = {-1: Classification.ASYMPTOTICALLY_STABLE, 0: Classification.MARGINAL,
          1: Classification.UNSTABLE}


@dataclass(frozen=True)
class StabilityReport:
    """What ``classify`` returns.  A record of one field, kept so that the
    callers that read ``.classification`` (``report.build_report`` and the
    workloads in ``perfbench/``) keep working."""

    classification: Classification


def _require_finite(rows, what: str) -> None:
    """NumericalFailure, its message opening with ``what``, if an entry of
    ``rows`` is not finite."""
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise NumericalFailure(
            f"{what} contains non-finite entries (overflow at these parameters)")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _diff_sign(left, right) -> int:
    """The exact sign of prod(left) - prod(right) for float factors, from
    their integer ratios: prod(n_l)/prod(d_l) - prod(n_r)/prod(d_r) has the
    sign of prod(n_l)*prod(d_r) - prod(n_r)*prod(d_l), as every d > 0."""
    n = d = 1
    for f in left:
        num, den = f.as_integer_ratio()
        n, d = n * num, d * den
    m = e = 1
    for f in right:
        num, den = f.as_integer_ratio()
        m, e = m * num, e * den
    return _sign(n * e - m * d)


def _disease_free_sign(jac) -> int | None:
    """Sign of the spectral abscissa of a Jacobian at a disease-free state,
    by its three diagonal blocks; None where the infected cycle is not a
    Metzler block with a positive decay diagonal (negative S_h or S_m)."""
    a = [-jac[i][i] for i in _INFECTED]
    cycle = (jac[1][6], jac[2][1], jac[5][2], jac[6][5])
    if min(a) <= 0.0 or min(cycle) < 0.0:
        return None
    (p, q), (r, s) = (jac[3][3], jac[3][4]), (jac[4][3], jac[4][4])
    det = _diff_sign((p, s), (q, r))
    if det < 0:
        mosquito = 1                                # a real root > 0
    elif det == 0:
        mosquito = max(_sign(p + s), 0)             # roots 0 and the trace
    else:
        mosquito = _sign(p + s)
    # the Perron root lambda* of prod(lambda + a_i) = P has the sign of P - prod(a_i)
    return max(_sign(jac[0][0]), mosquito, _diff_sign(cycle, a))


def _integer_rows(rows) -> list[list[int]]:
    """``rows`` of floats times 2^s as integers, for the least s that makes
    every entry one."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    scale = max(d for row in ratios for _, d in row)     # each d is a power of 2
    return [[n * (scale // d) for n, d in row] for row in ratios]


def _charpoly(a) -> list[int]:
    """Coefficients of det(lambda*I - a), highest degree first, for a square
    integer matrix ``a``, by Berkowitz's division-free algorithm (Inf.
    Process. Lett. 18, 1984): the trailing principal submatrices, largest
    last, each multiply the polynomial by a Toeplitz matrix."""
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
    module docstring); MARGINAL where it is exactly 0.

    Raises NumericalFailure when the state or its Jacobian is not finite.
    """
    cc = _rate(c)
    if eq.residual_norm > RESIDUAL_WARN:
        warnings.warn(
            f"classifying a state with relative residual {eq.residual_norm:.3e}; "
            "it is not an exact fixed point of this flow",
            stacklevel=2)

    what = f"cannot classify the {eq.kind.value} state"
    x = eq.state
    if not x.is_finite():
        raise NumericalFailure(
            f"{what}: state contains non-finite components (overflow at these parameters)")
    jac = jacobian(p, cc, x)
    _require_finite(jac, f"{what}: matrix")
    sign = _disease_free_sign(jac) if x[1] == x[2] == x[5] == x[6] == 0.0 else None
    if sign is None:
        sign = _root_abscissa_sign(_charpoly(_integer_rows(jac)))
    return StabilityReport(classification=_LABEL[sign])


def _det4(rows) -> int:
    """Determinant of a 4x4 integer matrix, by its Laplace expansion along
    the first two rows: products of complementary 2x2 minors."""
    a, b, c, d = rows
    s = [a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS]
    t = [c[i] * d[j] - c[j] * d[i] for i, j in _PAIRS]
    return s[0] * t[5] - s[1] * t[4] + s[2] * t[3] + s[3] * t[2] - s[4] * t[1] + s[5] * t[0]


def _bits(x: float) -> int:
    """The bit pattern of the double ``x``; doubles >= 0 order as their patterns."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_MAX_BITS = _bits(sys.float_info.max)


def _upper_mid(bits: int) -> tuple[int, int]:
    """The midpoint of the double with pattern ``bits`` >= 0 and the next one
    up (2^1024 above the largest double) as an integer ratio n/d, d > 0."""
    n1, d1 = _double(bits).as_integer_ratio()
    n2, d2 = (_double(bits + 1).as_integer_ratio() if bits < _MAX_BITS else (2 ** 1024, 1))
    d = max(d1, d2)                       # both are powers of 2
    return n1 * (d // d1) + n2 * (d // d2), 2 * d


def r0_spectral(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Spectral radius of the next-generation matrix F*V^-1, correctly
    rounded (ties to even).

    F - V is the infected block of the model's Jacobian at the disease-free
    point; F keeps the block's two new-infection entries, so V is lower
    triangular with a positive diagonal.  The NGM has a two-cycle structure
    (humans infect mosquitoes infect humans), so its spectrum is
    {rho, -rho, 0, 0} and, for lambda > 0, det(lambda*V - F) is negative
    below rho and positive above it.  That sign is taken exactly, from the
    full 4x4 matrices rather than from the cycle's shortcut, so the route
    cross-checks the closed form: at the two midpoints around a float
    candidate sqrt(trace(K^2)/2), K = F*V^-1 in floats, and, where the
    candidate fails, by a search over the ordered doubles.  Raises
    NumericalFailure when F or V is not finite or the radius rounds beyond
    the largest double.
    """
    cc = _rate(c)
    jac = jacobian(p, cc, _paper_dfe(p, cc))
    block = [[jac[i][j] for j in _INFECTED] for i in _INFECTED]
    what = "cannot compute the spectral R0 at the brdfe state"
    _require_finite(block, f"{what}: next-generation matrix")
    j_f = [[0.0] * 4 for _ in range(4)]
    j_f[0][3] = block[0][3]   # mosquito -> human: E_h gains from I_m
    j_f[2][1] = block[2][1]   # human -> mosquito: E_m gains from I_h
    j_v = [[f - b for f, b in zip(rf, rb)] for rf, rb in zip(j_f, block)]
    ints = _integer_rows(j_f + j_v)
    int_f, int_v = ints[:4], ints[4:]
    signs = {}

    def sign_above(bits: int) -> int:
        """Sign of det(lambda*V - F) at the midpoint above double ``bits``."""
        if bits not in signs:
            n, d = _upper_mid(bits)
            signs[bits] = _sign(_det4([[n * v - d * f for f, v in zip(rf, rv)]
                                       for rf, rv in zip(int_f, int_v)]))
        return signs[bits]

    # the rows k of K = F*V^-1 solve k*V = f, by back substitution as V is
    # lower triangular; the trace of K^2 is 2*rho^2
    k = [[0.0] * 4 for _ in range(4)]
    for row, f in zip(k, j_f):
        if any(f):
            for j in reversed(range(4)):
                row[j] = (f[j] - sum(row[m] * j_v[m][j] for m in range(j + 1, 4))) / j_v[j][j]
    trace = sum(k[i][j] * k[j][i] for i in range(4) for j in range(4))
    # the least pattern whose upper midpoint is not below rho lies in
    # (lo, hi]: gallop up to 63 ulps from the candidate's pattern for a
    # bracket, then bisect (over all doubles where the candidate is far off)
    lo, hi = -1, _MAX_BITS + 1
    if 0.0 <= trace <= sys.float_info.max:
        at = _bits(abs(math.sqrt(trace / 2.0)))
        if sign_above(at) >= 0:
            hi = at
            for step in _GALLOP:
                if hi - step < 0 or sign_above(hi - step) < 0:
                    lo = max(hi - step, -1)
                    break
                hi -= step
        else:
            lo = at
            for step in _GALLOP:
                if lo + step > _MAX_BITS or sign_above(lo + step) >= 0:
                    hi = min(lo + step, _MAX_BITS + 1)
                    break
                lo += step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign_above(mid) >= 0:
            hi = mid
        else:
            lo = mid
    if hi <= _MAX_BITS and sign_above(hi) == 0 and hi % 2:
        hi += 1                           # rho is the midpoint: round to even
    if hi > _MAX_BITS:
        raise NumericalFailure(f"{what}: the radius rounds beyond the largest double "
                               "(overflow at these parameters)")
    return _double(hi)
