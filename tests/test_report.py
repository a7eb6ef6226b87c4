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


def report_at(c, **params):
    s = builtin_capeverde2009()
    s = dataclasses.replace(s, params=dataclasses.replace(s.params, **params),
                            control=ControlLevel(c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
        return build_report(s)


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
