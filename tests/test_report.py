import dataclasses
import json
import warnings

import pytest

from dengue_control.model import STATE_LABELS, ControlLevel
from dengue_control.report import build_report, render_json
from dengue_control.scenario import builtin_capeverde2009


def reference_json(report):
    """The JSON document built by ``dataclasses.asdict``, the oracle of
    ``render_json``."""
    doc = dataclasses.asdict(report)
    for eq in doc["equilibria"]:
        eq["state"] = dict(zip(STATE_LABELS, eq["state"]))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def scenario_at(c, **params):
    s = builtin_capeverde2009()
    return dataclasses.replace(s, params=dataclasses.replace(s.params, **params),
                               control=ControlLevel(c))


def report_at(c, **params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
        return build_report(scenario_at(c, **params))


class TestRenderJson:
    @pytest.mark.parametrize("c, params, kinds", [
        (0.0, {}, ["trivial", "brdfe", "endemic"]),
        (0.2, {}, ["trivial", "brdfe"]),             # R0 < 1: no endemic equilibrium
        (2.0, {}, ["trivial"]),                      # beyond the collapse bound
        (0.0, {"mu_b": 0.0}, ["trivial"]),           # collapsed, offspring ratio inf -> null
    ])
    def test_equals_asdict_document(self, c, params, kinds):
        report = report_at(c, **params)
        assert [eq.kind for eq in report.equilibria] == kinds
        text = render_json(report)
        assert text == reference_json(report)
        assert list(json.loads(text)["equilibria"][0]["state"]) == list(STATE_LABELS)

    def test_leaves_the_report_unchanged(self):
        report = report_at(0.0)
        before = dataclasses.asdict(report)
        render_json(report)
        assert dataclasses.asdict(report) == before
        assert all(isinstance(eq.state, tuple) for eq in report.equilibria)


class TestResidualNotice:
    """``build_report`` warns once, for the brdfe entry, where the paper's
    disease-free point is not a fixed point of the controlled flow."""

    @pytest.mark.parametrize("c, residual", [
        (0.05, "1.639e-01"), (0.12, "3.724e-01"), (0.2, "5.808e-01")])
    def test_one_notice_for_the_brdfe_entry(self, c, residual):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = build_report(scenario_at(c))
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"classifying a state with relative residual {residual}; "
                          "it is not an exact fixed point of this flow")]
        assert f"{report.equilibria[1].residual:.3e}" == residual

    def test_no_notice_without_control(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(scenario_at(0.0))
        assert [eq.kind for eq in report.equilibria] == ["trivial", "brdfe", "endemic"]
