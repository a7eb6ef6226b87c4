"""Scenario files: flat ``key = value`` lines mapping 1:1 to model symbols.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Keys are the romanized model symbols (N_h, B, beta_mh,
beta_hm, mu_h, eta_h, mu_m, mu_b, mu_A, eta_A, eta_m, nu_h, m, k, K, c),
initial-condition keys (S_h0, E_h0, I_h0, R_h0, A_m0, S_m0, E_m0, I_m0)
and solver keys (t0, t_end, rtol, atol, h_init, h_max, output_step).
The one-to-one mapping to the parameter table makes transcription errors
visible.

When S_h0 is omitted the human-total rule fills it in:
S_h0 = N_h - E_h0 - I_h0 - R_h0.  Supplying S_h0 explicitly disables the
rule.  K defaults to k*N_h, A_m0 to k*N_h, S_m0 to m*N_h.

Files, the built-in scenario and the CLI's ``--control``/``--t-end``
overrides all build a Scenario from this mapping through one constructor,
so they share its defaults and checks.  ``capeverde2009`` holds the paper's
2009 Cape Verde outbreak values (population 480 000, one bite per mosquito
per day, transmission probabilities 0.375, adult mosquito lifespan 11 days,
six female mosquitoes and three larvae per human) and 216 exposed and 434
infected humans; the default rules supply the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ScenarioError
from .model import STATE_LABELS, ControlLevel, ModelParams, State7, region_violation


@dataclass(frozen=True)
class SolverConfig:
    """Integration window, tolerances and reporting grid (all in days)."""

    t0: float = 0.0
    t_end: float = 100.0
    rtol: float = 1e-8
    atol: float = 1e-8          # multiplies the per-component scales
    h_init: float = 1e-3
    h_max: float = 1.0
    output_step: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            v = float(getattr(self, f.name))
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, v)
        if self.t_end < self.t0:
            raise ValueError(f"t_end ({self.t_end}) must be >= t0 ({self.t0})")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be > 0")
        if not 0.0 < self.h_init <= self.h_max:
            raise ValueError("need 0 < h_init <= h_max")
        if self.output_step <= 0.0:
            raise ValueError("output_step must be > 0")


_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))   # K optional, defaults to k*N_h
_STATE_KEYS = tuple(f"{label}0" for label in STATE_LABELS)
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
KNOWN_KEYS = frozenset(_PARAM_KEYS + ("c",) + _STATE_KEYS + ("R_h0",) + _SOLVER_KEYS)


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: parameters, control, start state, solver."""

    name: str
    params: ModelParams
    control: ControlLevel
    initial: State7
    solver: SolverConfig


def builtin_capeverde2009() -> Scenario:
    return _build_scenario({
        "N_h": 480000.0, "B": 1.0, "beta_mh": 0.375, "beta_hm": 0.375,
        "mu_h": 1.0 / (71.0 * 365.0), "eta_h": 1.0 / 3.0,
        "mu_m": 1.0 / 11.0, "mu_b": 6.0, "mu_A": 1.0 / 4.0, "eta_A": 0.08,
        "eta_m": 1.0 / 11.0, "nu_h": 1.0 / 4.0, "m": 6.0, "k": 3.0,
        "E_h0": 216.0, "I_h0": 434.0,
    }, "capeverde2009")


BUILTINS = {"capeverde2009": builtin_capeverde2009}


def get_builtin(name: str) -> Scenario:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: "
            + ", ".join(sorted(BUILTINS))) from None


def _parse_pairs(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key not in KNOWN_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs)
        except ValueError:
            raise ScenarioError(
                f"line {lineno}: value for {key!r} is not a number: {rhs!r}") from None
        if not math.isfinite(values[key]):
            raise ScenarioError(f"line {lineno}: value for {key!r} is not finite: {rhs!r}")
    return values


def _build_scenario(values: dict[str, float], name: str) -> Scenario:
    """A Scenario from file keys and values; the default rules fill gaps."""

    missing = [key for key in _PARAM_KEYS if key not in values and key != "K"]
    if missing:
        raise ScenarioError("missing required parameter keys: " + ", ".join(missing))

    kwargs = {key: values[key] for key in _PARAM_KEYS if key in values}
    kwargs.setdefault("K", values["k"] * values["N_h"])
    try:
        params = ModelParams(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid parameter: {exc}") from exc

    try:
        control = ControlLevel(values.get("c", 0.0))
    except ValueError as exc:
        raise ScenarioError(f"invalid control level: {exc}") from exc

    e_h0 = values.get("E_h0", 0.0)
    i_h0 = values.get("I_h0", 0.0)
    r_h0 = values.get("R_h0", 0.0)
    s_h0 = values.get("S_h0", params.N_h - e_h0 - i_h0 - r_h0)
    initial = State7(
        S_h=s_h0, E_h=e_h0, I_h=i_h0,
        A_m=values.get("A_m0", params.k * params.N_h),
        S_m=values.get("S_m0", params.m * params.N_h),
        E_m=values.get("E_m0", 0.0),
        I_m=values.get("I_m0", 0.0),
    )
    # the slack absorbs rounding in the human-total rule for S_h0
    violation = region_violation(params, initial, slack=1e-12)
    if violation:
        raise ScenarioError(f"initial condition outside admissible region: {violation}")

    try:
        solver = SolverConfig(**{key: values[key] for key in _SOLVER_KEYS if key in values})
    except ValueError as exc:
        raise ScenarioError(f"invalid solver setting: {exc}") from exc

    return Scenario(name=name, params=params, control=control,
                    initial=initial, solver=solver)


def _values(s: Scenario) -> dict[str, float]:
    """Inverse of ``_build_scenario``: every file key and value, in file order."""
    return {**{key: getattr(s.params, key) for key in _PARAM_KEYS},
            "c": s.control.c,
            **dict(zip(_STATE_KEYS, s.initial.as_tuple())),
            **{key: getattr(s.solver, key) for key in _SOLVER_KEYS}}


def parse_scenario(text: str, name: str = "custom") -> Scenario:
    return _build_scenario(_parse_pairs(text), name)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text, name=str(path))


def render_scenario(s: Scenario) -> str:
    """Serialize a scenario back to the flat key = value format (parsing
    the result reproduces the scenario)."""
    lines = [f"# scenario: {s.name}"]
    lines += [f"{key} = {value!r}" for key, value in _values(s).items()]
    return "\n".join(lines) + "\n"
