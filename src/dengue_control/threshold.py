"""Minimum constant adulticide level keeping the reproduction number below one.

R0 falls strictly with the control rate c, to zero at the collapse bound:
the least c with viability margin M(c) = eta_A*mu_b - (c+mu_m)*(eta_A+mu_A) <= 0,
past which the mosquito population is not viable and no R0 is defined.  With
A = B^2*beta_hm*beta_mh*K*eta_m*nu_h and D = N_h*mu_b*(eta_h+mu_h)*mu_m*(mu_h+nu_h),
R0(c)^2 = A*M(c)/(D*(c+mu_m)*(c+eta_m+mu_m)), so R0 > 1 iff the quadratic
f(c) = A*M(c) - D*(c+mu_m)*(c+eta_m+mu_m) is positive; f falls for c >= 0.  On
the rates as integers over one power of two (``model._integer_form``), f*d^2 at a
double c = n/d is an integer.  ``min_control`` takes the root from an integer
square root in its cancellation-free form (Higham, Accuracy and Stability of
Numerical Algorithms, section 1.8) and steps to the largest double with f > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import gt

from .errors import MosquitoCollapseError, NumericalFailure, ScenarioError
from .model import ModelParams, _integer_form, _r0, _rate, _sqrt_ratio


@dataclass(frozen=True)
class ThresholdResult:
    """Exact threshold: ``c_star`` is the largest double with R0 > 1."""

    c_star: float
    r0_at_c_star: float
    bracket: tuple[float, float]
    iterations: int
    collapse_bound: float


@dataclass(frozen=True)
class NoControlNeeded:
    """R0(0) <= 1, or ``r0_at_zero`` None: the mosquito population collapses uncontrolled."""

    r0_at_zero: float | None
    collapse_bound: float


@dataclass(frozen=True)
class ProfilePoint:
    """One sweep entry; ``r0`` is None at a level that collapses the mosquito population."""

    c: float
    r0: float | None
    collapsed: bool


def collapse_control_bound(p: ModelParams) -> float:
    """Least control level at which the exact mosquito viability margin is <= 0,
    computed once per parameter set: every collapse decision of the package,
    the sign of ``mosquito_viability`` included, is c >= this bound."""
    return p._collapse_bound


def min_control(p: ModelParams, tol: float = 1e-6) -> ThresholdResult | NoControlNeeded:
    """Minimum constant control with R0 < 1, to within ``tol`` per day.

    Returns NoControlNeeded when R0(0) <= 1.  Otherwise ``c_star`` is the
    largest double with R0 > 1; the bracket (c* - tol/4, c* + tol/4), widened
    to the doubles next to c* and capped at 0 and the collapse bound, has
    R0 > 1 at its low end and R0 <= 1 at its high end; ``iterations`` counts
    the exact sign tests that placed c*.  Raises ScenarioError when the bracket
    is wider than ``tol``, NumericalFailure when R0(c*) overflows a double.
    """
    if not tol > 0.0:
        raise ScenarioError(f"tolerance must be > 0, got {tol}")
    one, n_h, cap, bite_mh, bite_hm, mu_h, eta_h, mu_m, mu_b, mu_A, eta_A, eta_m, nu_h, _ = \
        _integer_form(p, 0.0)
    scale, recruit, alpha, bound = one * one, eta_A * mu_b, eta_A + mu_A, p._collapse_bound
    a = bite_hm * bite_mh * cap * eta_m * nu_h
    dd = n_h * mu_b * (eta_h + mu_h) * mu_m * (mu_h + nu_h)
    tested = []                 # c = 0, then the sign tests that place c*, then c*

    def sides(c: float) -> tuple[int, int]:
        """A*M(c) and D*(c + mu_m)*(c + eta_m + mu_m), times d^2 for c = n/d."""
        tested.append(c)
        n, d = c.as_integer_ratio()
        u = n * scale + mu_m * d
        return a * (recruit * d - u * alpha) * d, dd * u * (u + eta_m * d)

    num, den = sides(0.0)
    if num <= den:          # no control needed, or none possible where M(0) <= 0
        return NoControlNeeded(_sqrt_ratio(num, den) if bound > 0.0 else None, bound)
    # f = f0 - b*x - D*x^2 at x = c*scale; its root 2*f0/(b + sqrt(b^2 + 4*D*f0)), 64 bits finer
    f0, b = num - den, a * alpha + dd * (2 * mu_m + eta_m)
    c = (f0 << 65) / (((b << 64) + math.isqrt((b * b + 4 * dd * f0) << 128)) * scale)
    up = gt(*sides(c))          # walk towards the root while the sign holds
    while gt(*sides(step := math.nextafter(c, math.inf if up else 0.0))) == up:
        c = step
    c = c if up else step
    lo = max(0.0, min(c - tol / 4, math.nextafter(c, 0.0)))
    hi = min(bound, max(c + tol / 4, math.nextafter(c, math.inf)))
    if not hi - lo <= tol:
        raise ScenarioError(f"cannot certify c* = {c!r} to within tolerance {tol:g}: the "
                            f"narrowest bracket of doubles around it is {hi - lo:.3g} wide")
    try:
        r0 = _sqrt_ratio(*sides(c))
    except OverflowError:
        raise NumericalFailure(f"basic reproduction number at c* = {c!r} rounds beyond "
                               "the largest double") from None
    return ThresholdResult(c_star=c, r0_at_c_star=r0, bracket=(lo, hi),
                           iterations=len(tested) - 2, collapse_bound=bound)


def r0_profile(p: ModelParams, grid) -> list[ProfilePoint]:
    """Pointwise R0 over a grid of control levels (all >= 0); levels at or
    beyond the collapse bound are flagged instead of given a value.  Raises
    NumericalFailure, naming the control level, where R0 is not finite or
    its denominator underflows."""
    points = []
    for c in grid:
        c = _rate(c)
        try:
            r0 = _r0(p, c)
        except MosquitoCollapseError:
            r0 = None
        except NumericalFailure as exc:
            raise NumericalFailure(f"{exc} at c = {c!r}") from exc
        points.append(ProfilePoint(c=c, r0=r0, collapsed=r0 is None))
    return points
