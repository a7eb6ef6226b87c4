import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import draw_params
from dengue_control.errors import ScenarioError
from dengue_control.integrator import SolverConfig
from dengue_control.model import ControlLevel, ModelParams, State7
from dengue_control.scenario import (
    KNOWN_KEYS,
    Scenario,
    builtin_capeverde2009,
    get_builtin,
    parse_scenario,
    render_scenario,
)


class TestBuiltin:
    def test_case_study_values(self):
        s = builtin_capeverde2009()
        p = s.params
        assert p.N_h == 480000.0
        assert p.B == 1.0
        assert p.beta_mh == 0.375 and p.beta_hm == 0.375
        assert p.mu_h == pytest.approx(1.0 / (71.0 * 365.0), rel=1e-15)
        assert p.eta_h == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p.mu_m == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert p.mu_b == 6.0
        assert p.mu_A == 0.25
        assert p.eta_A == 0.08
        assert p.eta_m == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert p.nu_h == 0.25
        assert p.m == 6.0 and p.k == 3.0
        assert p.K == 3.0 * 480000.0
        assert s.control.c == 0.0
        assert s.initial.E_h == 216.0 and s.initial.I_h == 434.0
        assert s.initial.S_h == 480000.0 - 216.0 - 434.0
        assert s.initial.A_m == 3.0 * 480000.0
        assert s.initial.S_m == 6.0 * 480000.0
        assert s.initial.E_m == 0.0 and s.initial.I_m == 0.0
        assert s.solver.t_end == 100.0

    def test_paper_values_plus_the_default_rules(self):
        text = "\n".join([
            "N_h = 480000", "B = 1", "beta_mh = 0.375", "beta_hm = 0.375",
            f"mu_h = {1.0 / (71.0 * 365.0)!r}", f"eta_h = {1.0 / 3.0!r}",
            f"mu_m = {1.0 / 11.0!r}", "mu_b = 6", "mu_A = 0.25", "eta_A = 0.08",
            f"eta_m = {1.0 / 11.0!r}", "nu_h = 0.25", "m = 6", "k = 3",
            "E_h0 = 216", "I_h0 = 434",
        ])
        assert parse_scenario(text, name="capeverde2009") == builtin_capeverde2009()

    def test_registry_lookup(self):
        assert get_builtin("capeverde2009").name == "capeverde2009"
        with pytest.raises(ScenarioError, match="unknown builtin"):
            get_builtin("atlantis1999")


class TestParsing:
    def test_round_trip(self):
        original = builtin_capeverde2009()
        parsed = parse_scenario(render_scenario(original), name=original.name)
        assert parsed.params == original.params
        assert parsed.control == original.control
        assert parsed.initial == original.initial
        assert parsed.solver == original.solver

    def test_human_total_rule_fills_susceptibles(self):
        text = render_scenario(builtin_capeverde2009())
        lines = [ln for ln in text.splitlines() if not ln.startswith("S_h0")]
        s = parse_scenario("\n".join(lines))
        assert s.initial.S_h == s.params.N_h - s.initial.E_h - s.initial.I_h

    def test_explicit_susceptibles_respected(self):
        text = render_scenario(builtin_capeverde2009())
        text = text.replace("S_h0 = 479350.0", "S_h0 = 400000.0")
        assert parse_scenario(text).initial.S_h == 400000.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + render_scenario(builtin_capeverde2009()) + "\n# tail\n"
        parse_scenario(text)

    def test_defaults_for_optional_keys(self):
        minimal = "\n".join(
            f"{key} = {getattr(builtin_capeverde2009().params, key)!r}"
            for key in ("N_h", "B", "beta_mh", "beta_hm", "mu_h", "eta_h",
                        "mu_m", "mu_b", "mu_A", "eta_A", "eta_m", "nu_h", "m", "k"))
        s = parse_scenario(minimal)
        assert s.params.K == s.params.k * s.params.N_h
        assert s.control.c == 0.0
        assert s.initial.S_h == s.params.N_h
        assert s.initial.A_m == s.params.k * s.params.N_h
        assert s.initial.S_m == s.params.m * s.params.N_h
        assert s.solver.t_end == 100.0

    def test_omitted_solver_keys_give_the_solver_defaults(self):
        solver_keys = {f.name for f in dataclasses.fields(SolverConfig)}
        text = "\n".join(
            ln for ln in render_scenario(builtin_capeverde2009()).splitlines()
            if ln.split(" = ")[0] not in solver_keys)
        assert parse_scenario(text).solver == SolverConfig()

    def test_known_keys_are_the_dataclass_fields(self):
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}
        initial = {f"{name}0" for name in names(State7)}
        assert KNOWN_KEYS == (names(ModelParams) | names(SolverConfig) | initial
                              | {"c", "R_h0"})


class TestParseErrors:
    def test_unknown_key_names_line(self):
        text = render_scenario(builtin_capeverde2009()) + "gamma = 1\n"
        lineno = len(text.splitlines())
        with pytest.raises(ScenarioError, match=f"line {lineno}.*gamma"):
            parse_scenario(text)

    def test_bad_number_names_line(self):
        with pytest.raises(ScenarioError, match="line 1.*not a number"):
            parse_scenario("N_h = lots\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("# fine\nN_h 480000\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate.*N_h"):
            parse_scenario("N_h = 1\nN_h = 2\n")

    def test_missing_required_keys_listed(self):
        with pytest.raises(ScenarioError, match="missing required.*beta_mh"):
            parse_scenario("N_h = 480000\n")

    def test_invalid_parameter_value(self):
        text = render_scenario(builtin_capeverde2009()).replace(
            "mu_m = 0.09090909090909091", "mu_m = 0.0")
        with pytest.raises(ScenarioError, match="mu_m"):
            parse_scenario(text)


class TestInitialConditionValidation:
    def _with(self, key, value):
        s = builtin_capeverde2009()
        text = render_scenario(s)
        out = []
        replaced = False
        for line in text.splitlines():
            if line.startswith(f"{key} ="):
                out.append(f"{key} = {value}")
                replaced = True
            else:
                out.append(line)
        assert replaced
        return "\n".join(out)

    def test_negative_component_named(self):
        with pytest.raises(ScenarioError, match="I_h0.*>= 0"):
            parse_scenario(self._with("I_h0", -1.0))

    def test_human_total_bound_named(self):
        with pytest.raises(ScenarioError, match="exceeds N_h"):
            parse_scenario(self._with("S_h0", 480001.0))

    def test_aquatic_bound_named(self):
        with pytest.raises(ScenarioError, match="aquatic bound"):
            parse_scenario(self._with("A_m0", 3.1 * 480000.0))

    def test_adult_bound_named(self):
        with pytest.raises(ScenarioError, match="adult bound"):
            parse_scenario(self._with("S_m0", 6.5 * 480000.0))


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", ["1e400", "inf"])
    @pytest.mark.parametrize("keep_s_h0", [True, False])
    def test_infinite_infected_humans_named(self, value, keep_s_h0):
        lines = [f"I_h0 = {value}" if ln.startswith("I_h0 =") else ln
                 for ln in render_scenario(builtin_capeverde2009()).splitlines()
                 if keep_s_h0 or not ln.startswith("S_h0 =")]
        lineno = next(n for n, ln in enumerate(lines, start=1) if ln.startswith("I_h0 ="))
        with pytest.raises(ScenarioError, match=f"line {lineno}: .*'I_h0'.*not finite"):
            parse_scenario("\n".join(lines))

    def test_nan_adult_mosquitoes_named(self):
        text = render_scenario(builtin_capeverde2009()).replace("E_m0 = 0.0", "E_m0 = nan")
        with pytest.raises(ScenarioError, match="line [0-9]+: .*'E_m0'.*not finite"):
            parse_scenario(text)


N_H = 480000.0


@st.composite
def human_splits(draw):
    """E_h0, I_h0, R_h0 >= 0 with E_h0 + I_h0 + R_h0 <= N_h, boundary included."""
    e_h = draw(st.floats(0.0, N_H))
    i_h = draw(st.floats(0.0, N_H - e_h))
    r_h = draw(st.floats(0.0, N_H - e_h - i_h))
    return e_h, i_h, r_h


@st.composite
def admissible_scenarios(draw):
    p = draw_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    s_h = draw(st.floats(0.0, p.N_h))
    e_h = draw(st.floats(0.0, p.N_h - s_h))
    s_m = draw(st.floats(0.0, p.m * p.N_h))
    e_m = draw(st.floats(0.0, p.m * p.N_h - s_m))
    initial = State7(
        S_h=s_h, E_h=e_h, I_h=draw(st.floats(0.0, p.N_h - s_h - e_h)),
        A_m=draw(st.floats(0.0, p.k * p.N_h)),
        S_m=s_m, E_m=e_m, I_m=draw(st.floats(0.0, p.m * p.N_h - s_m - e_m)),
    )
    t0 = draw(st.floats(0.0, 10.0))
    h_max = draw(st.floats(1e-3, 10.0))
    solver = SolverConfig(
        t0=t0, t_end=t0 + draw(st.floats(0.0, 1000.0)),
        rtol=draw(st.floats(1e-12, 1e-2)), atol=draw(st.floats(1e-12, 1e-2)),
        h_init=h_max * draw(st.floats(1e-3, 1.0)), h_max=h_max,
        output_step=draw(st.floats(1e-3, 100.0)),
    )
    return Scenario(name="custom", params=p, control=ControlLevel(draw(st.floats(0.0, 2.0))),
                    initial=initial, solver=solver)


class TestProperties:
    @given(human_splits())
    # E_h0 + I_h0 + R_h0 <= N_h holds exactly, yet the rule rounds S_h0 to -2.9e-11
    @example((125036.30898814052, 285755.6488437991, 69208.0421680604))
    def test_human_total_rule_always_admissible(self, split):
        e_h, i_h, r_h = split
        lines = [ln for ln in render_scenario(builtin_capeverde2009()).splitlines()
                 if not ln.startswith(("S_h0 =", "E_h0 =", "I_h0 ="))]
        lines += [f"E_h0 = {e_h!r}", f"I_h0 = {i_h!r}", f"R_h0 = {r_h!r}"]
        s = parse_scenario("\n".join(lines))
        assert (s.initial.E_h, s.initial.I_h) == (e_h, i_h)
        assert s.initial.S_h == N_H - e_h - i_h - r_h

    @given(admissible_scenarios())
    def test_render_parse_round_trip(self, scenario):
        assert parse_scenario(render_scenario(scenario)) == scenario
