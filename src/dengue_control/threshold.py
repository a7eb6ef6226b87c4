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
Where R0(0) has lost digits to a subnormal product, the quadratic is taken
from R0 at half the collapse bound and the root certified again.
The collapse bound is reported alongside the threshold since it caps how
much control is meaningful at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MosquitoCollapseError, NumericalFailure, ScenarioError
from .model import ControlLevel, ModelParams, mosquito_viability, r0_closed_form


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
    # R0(0) is divided out, never squared, so as it grows g underflows and the root tends
    # to c_collapse.  The root 2n/(b + sqrt(b^2 + 4gn)) has no cancellation (Higham,
    # Accuracy and Stability of Numerical Algorithms, section 1.8); it is taken through n/b
    # and g/b since b^2 overflows for large M(0).  Should q underflow, the certificate fails.
    n = m_zero * (1.0 - 1.0 / r0_zero / r0_zero)

    def certified_root(g: float):
        b = g * (2.0 * p.mu_m + p.eta_m) + p.eta_A + p.mu_A
        n_b = n / b
        c_star = min(2.0 * n_b / (1.0 + math.sqrt(1.0 + 4.0 * (g / b) * n_b)),
                     math.nextafter(c_collapse, 0.0))
        lo = max(0.0, min(c_star - tol / 4, math.nextafter(c_star, 0.0)))
        hi = min(c_collapse, max(c_star + tol / 4, math.nextafter(c_star, math.inf)))
        ok = (lo <= c_star < hi and hi - lo <= tol and r0(lo) > 1.0
              and (hi == c_collapse or r0(hi) <= 1.0))
        return c_star, lo, hi, ok

    q = p.mu_m * (p.mu_m + p.eta_m)
    g = m_zero / r0_zero / r0_zero / q if q > 0.0 else math.nan
    c_star, lo, hi, ok = certified_root(g)
    c0 = c_collapse / 2
    if not ok and c0 > 0.0 and (r0_c0 := r0(c0)) > 0.0:
        # R0(0)'s denominator holds mu_m^2, subnormal for mu_m below about 1e-154, where g
        # from R0(0) loses digits that R0 at the root keeps.  g taken at c0 instead, as
        # M(c0)/R0(c0)^2/((c0+mu_m)(c0+eta_m+mu_m)), then differs far beyond the ~1e-15 by
        # which the two agree when the failure is the tolerance's; its root is certified.
        g_c0 = (mosquito_viability(p, c0) / r0_c0 / r0_c0
                / (c0 + p.mu_m) / (c0 + p.eta_m + p.mu_m))
        if abs(g_c0 - g) > 1e-12 * g_c0:
            c_star, lo, hi, ok = certified_root(g_c0)
    if not ok:
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
        ctrl = ControlLevel(float(c))
        if mosquito_viability(p, ctrl) <= 0.0:
            points.append(ProfilePoint(c=ctrl.c, r0=None, collapsed=True))
            continue
        try:
            r0 = r0_closed_form(p, ctrl)
        except NumericalFailure as exc:
            raise NumericalFailure(f"{exc} at c = {ctrl.c!r}") from exc
        points.append(ProfilePoint(c=ctrl.c, r0=r0, collapsed=False))
    return points
