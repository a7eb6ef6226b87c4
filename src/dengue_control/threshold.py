"""Minimum constant adulticide level keeping the reproduction number below one.

The reproduction number is strictly decreasing in the control rate and
drops to zero at the collapse bound

    c_collapse = eta_A*mu_b/(eta_A + mu_A) - mu_m

beyond which the mosquito population itself is not viable and no
reproduction number is defined.  ``min_control`` therefore bisects
R0(c) - 1 on the bracket [0, c_collapse], whose upper end is the collapse
bound itself: R0 = 0 there by the closed form (R0^2 is proportional to the
viability margin), so that end needs no evaluation.  Bisection is slower
than Newton but gives an unconditional bracketing certificate that is
trivial to verify.  The collapse bound is reported alongside the threshold
since it caps how much control is meaningful at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MosquitoCollapseError, ScenarioError
from .model import ControlLevel, ModelParams, mosquito_viability, r0_closed_form

#: Bisection keeps going until the reproduction number at the midpoint is
#: within this distance of one (on top of the requested c-tolerance), or
#: until the bracket is one ulp wide: where R0 is steeper than float
#: resolution, no representable c meets the gap.
R0_GAP = 1e-6


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

    Returns NoControlNeeded when R0(0) <= 1 and a certified bracket
    otherwise.  The returned bracket endpoints straddle R0 = 1 with
    opposite signs (the upper end may be the collapse bound, where R0 = 0)
    and the midpoint ``c_star`` has R0 within R0_GAP of one, unless R0 is
    steeper than float resolution there: then the bracket is one ulp wide
    and ``c_star`` is its low end, where R0 > 1.
    """
    if not tol > 0.0:
        raise ScenarioError(f"tolerance must be > 0, got {tol}")

    c_collapse = collapse_control_bound(p)
    if mosquito_viability(p, 0.0) <= 0.0:
        return NoControlNeeded(r0_at_zero=None, collapse_bound=c_collapse)

    def r0(c: float) -> float:
        try:
            return r0_closed_form(p, c)
        except MosquitoCollapseError:
            # rounding can leave the margin <= 0 a few ulps below
            # c_collapse, where the closed form gives R0 = 0
            return 0.0

    r0_zero = r0(0.0)
    if r0_zero <= 1.0:
        return NoControlNeeded(r0_at_zero=r0_zero, collapse_bound=c_collapse)

    lo, hi = 0.0, c_collapse
    iterations = 0
    while lo < (c_star := 0.5 * (lo + hi)) < hi:
        r0_mid = r0(c_star)
        if hi - lo <= tol and abs(r0_mid - 1.0) < R0_GAP:
            break
        iterations += 1
        if r0_mid > 1.0:
            lo = c_star
        else:
            hi = c_star
    else:
        c_star = lo  # one ulp wide: report the viable end, below the collapse bound
    return ThresholdResult(
        c_star=c_star,
        r0_at_c_star=r0(c_star),
        bracket=(lo, hi),
        iterations=iterations,
        collapse_bound=c_collapse,
    )


def r0_profile(p: ModelParams, grid) -> list[ProfilePoint]:
    """Pointwise R0 over a grid of control levels (all >= 0); levels at or
    beyond the collapse bound are flagged instead of given a value."""
    points = []
    for c in grid:
        ctrl = ControlLevel(float(c))
        if mosquito_viability(p, ctrl) <= 0.0:
            points.append(ProfilePoint(c=ctrl.c, r0=None, collapsed=True))
        else:
            points.append(ProfilePoint(c=ctrl.c, r0=r0_closed_form(p, ctrl), collapsed=False))
    return points
