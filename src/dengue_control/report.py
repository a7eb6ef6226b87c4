"""Aggregated analysis of a scenario: viability, reproduction number,
equilibria with residuals, stability, and the control threshold.

The text and JSON renderings are built from the same report object and
format every number with ``repr``, so the two carry identical digits.  The
report holds None for a number that is not finite: ``n/a`` in text, ``null``
in JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, is_dataclass, replace

from .equilibria import Equilibrium, brdfe, refined_endemic, trivial_equilibrium
from .errors import NoEndemicEquilibrium, NumericalFailure
from .model import (STATE_LABELS, basic_offspring_number, in_omega, mosquito_viability,
                    r0_closed_form, r0_factors)
from .scenario import Scenario
from .stability import classify, r0_spectral
from .threshold import NoControlNeeded, min_control


@dataclass(frozen=True)
class EquilibriumEntry:
    kind: str
    state: tuple[float, ...]
    residual: float
    inside_region: bool
    refined: bool
    classification: str
    r0_at_point: float | None


@dataclass(frozen=True)
class AnalysisReport:
    scenario: str
    control: float
    viability: float
    collapsed: bool
    offspring_ratio: float | None
    r0_spectral: float | None
    r0_closed_form: float | None
    r_hm: float | None
    r_mh: float | None
    equilibria: tuple[EquilibriumEntry, ...]
    endemic_note: str | None
    threshold: dict


def _entry(scenario: Scenario, eq: Equilibrium, r0: float | None = None) -> EquilibriumEntry:
    """One equilibrium's entry; ``r0`` is the reproduction number at the
    point, given for the disease-free state only."""
    rep = classify(scenario.params, scenario.control, eq)
    return EquilibriumEntry(
        kind=eq.kind.value,
        state=eq.state,
        residual=eq.residual_norm,
        inside_region=in_omega(scenario.params, eq.state),
        refined=eq.refined,
        classification=rep.classification.value,
        r0_at_point=r0,
    )


def _finite(value):
    """``value`` with each non-finite float in it, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, tuple):
        return tuple(map(_finite, value))
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    return replace(value, **_finite(vars(value))) if is_dataclass(value) else value


def build_report(scenario: Scenario) -> AnalysisReport:
    p, ctrl = scenario.params, scenario.control
    viability = mosquito_viability(p, ctrl)
    collapsed = viability <= 0.0

    entries = [_entry(scenario, trivial_equilibrium(p))]
    r0s = r0c = r_hm = r_mh = None
    endemic_note = None
    if collapsed:
        endemic_note = ("mosquito population collapses at this control level; "
                        "only the trivial equilibrium exists")
    else:
        r0s = r0_spectral(p, ctrl)
        r0c = r0_closed_form(p, ctrl)
        r_hm, r_mh = r0_factors(p, ctrl)
        entries.append(_entry(scenario, brdfe(p, ctrl), r0c))
        try:
            entries.append(_entry(scenario, refined_endemic(p, ctrl)))
        except (NoEndemicEquilibrium, NumericalFailure) as exc:
            endemic_note = str(exc)

    threshold = min_control(p)
    return _finite(AnalysisReport(
        scenario=scenario.name,
        control=ctrl.c,
        viability=viability,
        collapsed=collapsed,
        offspring_ratio=basic_offspring_number(p, ctrl),
        r0_spectral=r0s,
        r0_closed_form=r0c,
        r_hm=r_hm,
        r_mh=r_mh,
        equilibria=tuple(entries),
        endemic_note=endemic_note,
        threshold={"kind": "no_control_needed" if isinstance(threshold, NoControlNeeded)
                   else "threshold", **asdict(threshold)},
    ))


def _num(value) -> str:
    return "n/a" if value is None else repr(value)


def render_text(report: AnalysisReport) -> str:
    lines = [
        f"scenario: {report.scenario}",
        f"control c = {_num(report.control)} per day",
        "",
        f"mosquito viability margin = {_num(report.viability)}"
        + ("  [collapsed]" if report.collapsed else ""),
        f"basic offspring ratio = {_num(report.offspring_ratio)}",
        f"R0 (spectral)    = {_num(report.r0_spectral)}",
        f"R0 (closed form) = {_num(report.r0_closed_form)}",
        f"R_hm = {_num(report.r_hm)}",
        f"R_mh = {_num(report.r_mh)}",
        "",
        "equilibria:",
    ]
    for eq in report.equilibria:
        lines.append(f"  [{eq.kind}] residual = {_num(eq.residual)}"
                     f"  refined = {str(eq.refined).lower()}"
                     f"  in_region = {str(eq.inside_region).lower()}")
        lines.append("    " + "  ".join(
            f"{name} = {_num(v)}" for name, v in zip(STATE_LABELS, eq.state)))
        extra = f"    stability: {eq.classification}"
        if eq.r0_at_point is not None:
            extra += f"  (R0 at point = {_num(eq.r0_at_point)})"
        lines.append(extra)
    if report.endemic_note:
        lines.append(f"  endemic: {report.endemic_note}")

    lines.append("")
    th = report.threshold
    if th["kind"] == "threshold":
        lines.append(f"minimum control c* = {_num(th['c_star'])}"
                     f"  (R0 at c* = {_num(th['r0_at_c_star'])})")
        lines.append(f"  bracket = [{_num(th['bracket'][0])}, {_num(th['bracket'][1])}]"
                     f"  iterations = {th['iterations']}")
    else:
        lines.append(f"no control needed (R0 at c=0 = {_num(th['r0_at_zero'])})")
    lines.append(f"  mosquito collapse bound c = {_num(th['collapse_bound'])}")
    return "\n".join(lines) + "\n"


def render_json(report: AnalysisReport) -> str:
    doc = dict(vars(report), equilibria=[
        dict(vars(eq), state=dict(zip(STATE_LABELS, eq.state))) for eq in report.equilibria])
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
