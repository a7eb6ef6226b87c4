"""Minimum constant adulticide level keeping the reproduction number below one.

The reproduction number is strictly decreasing in the control rate and
drops to zero at the collapse bound

    c_collapse = eta_A*mu_b/(eta_A + mu_A) - mu_m

beyond which the mosquito population itself is not viable and no
reproduction number is defined.  R0^2 is a constant times the viability
margin, linear in c, over (c+mu_m)(c+eta_m+mu_m), so ``min_control``
solves the quadratic R0(c)^2 = 1 in closed form and certifies the root
with two R0 evaluations at the ends of a bracket no wider than the
tolerance; R0 = 0 at the collapse bound, so that end needs no evaluation.
The quadratic's leading coefficient is taken from R0's human -> mosquito
factor at c = 0, which keeps its digits where R0(0)'s own denominator is
subnormal.
The collapse bound is reported alongside the threshold since it caps how
much control is meaningful at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MosquitoCollapseError, NumericalFailure, ScenarioError
from .model import ModelParams, mosquito_viability, r0_closed_form, r0_factors, _rate


@dataclass(frozen=True)
class ThresholdResult:
    """Certified root of R0(c) = 1."""

    c_star: float
    r0_at_c_star: float
    bracket: tuple[float, float]
    iterations: int
    collapse_bound: float


@dataclass(frozen=True)
class NoControlNeeded:
    """R0 is already below one with zero control (or the mosquito
    population collapses on its own, leaving nothing to transmit)."""

    r0_at_zero: float | None
    collapse_bound: float


@dataclass(frozen=True)
class ProfilePoint:
    """One sweep entry; ``r0`` is None when the control level collapses
    the mosquito population."""

    c: float
    r0: float | None
    collapsed: bool


def collapse_control_bound(p: ModelParams) -> float:
    """Control level at which the mosquito viability margin hits zero."""
    return p.eta_A * p.mu_b / (p.eta_A + p.mu_A) - p.mu_m


def min_control(p: ModelParams, tol: float = 1e-6) -> ThresholdResult | NoControlNeeded:
    """Minimum constant control with R0 < 1, to within ``tol`` per day.

    Returns NoControlNeeded when R0(0) <= 1.  Otherwise ``c_star`` is the
    closed-form root of R0(c)^2 = 1 below the collapse bound, inside a
    bracket at most ``tol`` wide with R0 > 1 at its low end and R0 <= 1 at
    its high end; ``iterations`` counts those two R0 evaluations.  Raises
    ScenarioError when no such bracket exists, as when ``tol`` is finer
    than R0 can resolve.
    """
    if not tol > 0.0:
        raise ScenarioError(f"tolerance must be > 0, got {tol}")

    c_collapse = collapse_control_bound(p)
    if (m_zero := mosquito_viability(p, 0.0)) <= 0.0:
        return NoControlNeeded(r0_at_zero=None, collapse_bound=c_collapse)

    def r0(c: float) -> float:
        try:
            return r0_closed_form(p, c)
        except MosquitoCollapseError:
            # rounding can leave the margin <= 0 a few ulps below
            # c_collapse, where the closed form gives R0 = 0
            return 0.0

    if (r0_zero := r0(0.0)) <= 1.0:
        return NoControlNeeded(r0_at_zero=r0_zero, collapse_bound=c_collapse)

    # With q = mu_m*(mu_m+eta_m), R0(c)^2 = 1 is g*c^2 + b*c - n = 0 for
    # g = M(0)/R0(0)^2/q, b = g*(2*mu_m+eta_m) + eta_A+mu_A, n = M(0)*(1 - 1/R0(0)^2).
    # The next-generation matrix is a two-cycle, R0^2 = R_hm*R_mh, and R_mh(0)*q =
    # B*beta_mh*eta_m, so g = M(0)/R_hm(0)/(B*beta_mh*eta_m): neither factor holds mu_m^2,
    # which goes subnormal for mu_m below about 1e-154 and costs R0(0) digits.  Where
    # mu_b*mu_m underflows, R_hm(0) is +inf in exact arithmetic and g its limit 0.  As R0(0)
    # grows g underflows and the root tends to c_collapse.  The root 2n/(b + sqrt(b^2 + 4gn))
    # has no cancellation (Higham, Accuracy and Stability of Numerical Algorithms, section
    # 1.8); it is taken through n/b and g/b since b^2 overflows for large M(0).  Should g
    # overflow, or a product of rates in it underflow to 0, c* is nan and the certificate fails.
    try:
        g = m_zero / r0_factors(p, 0.0)[0] / (p.B * p.beta_mh * p.eta_m)
    except (NumericalFailure, ZeroDivisionError):
        g = 0.0 if p.mu_b * p.mu_m == 0.0 else math.nan
    n = m_zero * (1.0 - 1.0 / r0_zero / r0_zero)
    b = g * (2.0 * p.mu_m + p.eta_m) + p.eta_A + p.mu_A
    n_b = n / b
    c_star = min(2.0 * n_b / (1.0 + math.sqrt(1.0 + 4.0 * (g / b) * n_b)),
                 math.nextafter(c_collapse, 0.0))
    lo = max(0.0, min(c_star - tol / 4, math.nextafter(c_star, 0.0)))
    hi = min(c_collapse, max(c_star + tol / 4, math.nextafter(c_star, math.inf)))
    if not (lo <= c_star < hi and hi - lo <= tol and r0(lo) > 1.0
            and (hi == c_collapse or r0(hi) <= 1.0)):
        raise ScenarioError(f"cannot certify c* = {c_star!r} to within tolerance {tol:g}: no "
                            "bracket that narrow has R0 > 1 and R0 <= 1 at its ends")
    return ThresholdResult(c_star=c_star, r0_at_c_star=r0(c_star), bracket=(lo, hi),
                           iterations=2, collapse_bound=c_collapse)


def r0_profile(p: ModelParams, grid) -> list[ProfilePoint]:
    """Pointwise R0 over a grid of control levels (all >= 0); levels at or
    beyond the collapse bound are flagged instead of given a value.  Raises
    NumericalFailure, naming the control level, where R0 is not finite or
    its denominator underflows."""
    points = []
    for c in grid:
        c = _rate(c)
        try:
            r0 = r0_closed_form(p, c)
        except MosquitoCollapseError:
            r0 = None
        except NumericalFailure as exc:
            raise NumericalFailure(f"{exc} at c = {c!r}") from exc
        points.append(ProfilePoint(c=c, r0=r0, collapsed=r0 is None))
    return points
