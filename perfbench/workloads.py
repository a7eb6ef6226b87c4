"""Seeded inputs, timed ops and output checks of the benchmark workloads.

Each workload builds its inputs from the seed alone; the package only sees
those inputs.  ``run`` is the timed op.  ``check`` validates one op's output
outside the timed region.  In a traced run ``check`` also calls a few public
functions directly, because their cost is otherwise hidden inside a bigger
call (``rhs`` inside ``integrate``, ``min_control`` inside
``build_report``); those spans give the layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dengue_control import (
    Classification,
    ControlLevel,
    ModelParams,
    NoEndemicEquilibrium,
    NumericalFailure,
    Scenario,
    ScenarioError,
    SolverConfig,
    State7,
    ThresholdResult,
    brdfe,
    builtin_capeverde2009,
    classify,
    integrate,
    integrate_fixed_rk4,
    min_control,
    parse_scenario,
    r0_closed_form,
    r0_profile,
    r0_spectral,
    refined_endemic,
    rhs,
)
from dengue_control.cli import trajectory_to_csv
from dengue_control.equilibria import REFINE_TOL
from dengue_control.model import OMEGA_SLACK
from dengue_control.report import build_report, render_json
from dengue_control.scenario import render_scenario
from dengue_control.svgplot import render_trajectory_svg

CSV_HEADER = "t,S_h,E_h,I_h,R_h,A_m,S_m,E_m,I_m"
SWEEP_HEADER = "c,R0,brdfe_stable,collapsed"

# The paper's Cape Verde 2009 values, the centre of every parameter draw.
N_H = 480000.0
BASE = {
    "N_h": N_H, "B": 1.0, "beta_mh": 0.375, "beta_hm": 0.375,
    "mu_h": 1.0 / (71.0 * 365.0), "eta_h": 1.0 / 3.0, "mu_m": 1.0 / 11.0,
    "mu_b": 6.0, "mu_A": 0.25, "eta_A": 0.08, "eta_m": 1.0 / 11.0,
    "nu_h": 0.25, "m": 6.0, "k": 3.0,
}
_SCALED = ("mu_h", "eta_h", "mu_m", "mu_b", "mu_A", "eta_A", "eta_m", "nu_h")
E_H0, I_H0 = 216.0, 434.0
C_MAX = 0.3

# Pinned reproduction targets of the built-in scenario.
PIN_R0, PIN_R0_TOL = 2.396, 1e-3
PIN_C_STAR, PIN_C_STAR_TOL = 0.156961, 5e-7

# Largest scaled gap between a DP5(4) run at the default tolerances and the
# fixed-step RK4 oracle at the common report times (scale: N_h for humans,
# k*N_h for A_m, m*N_h for adult mosquitoes).
ORACLE_TOL = 1e-6

# The control grid of the r0 profile: 61 points on [0, 0.3], as `sweep` with
# --c-step 0.005 would use.
PROFILE_GRID = tuple(C_MAX * i / 60 for i in range(61))


def stratified(rng: np.random.Generator, n: int, dims: int,
               block: int = 10) -> list[list[float]]:
    """n rows of ``dims`` uniforms in [0, 1).  Every block of ``block`` consecutive
    rows puts exactly one value into each of ``block`` equal bins of every
    column, so the ops of any run cover each input range evenly, whatever
    the seed; seeds then differ in the inputs, not in their spread."""
    rows = -(-n // block) * block
    u = np.empty((rows, dims))
    for start in range(0, rows, block):
        for d in range(dims):
            u[start:start + block, d] = (rng.permutation(block) + rng.uniform(size=block)) / block
    return u[:n].tolist()


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


#: Uniforms that `draw` consumes: B, beta_mh, beta_hm, the scaled rates and c.
DRAW_DIMS = 4 + len(_SCALED)


def draw(u: list[float]) -> tuple[dict[str, float], float]:
    """Parameters near Cape Verde and a control from DRAW_DIMS uniforms:
    rates log-uniform within x[0.8, 1.25], bites x[0.5, 2], transmission
    probabilities in [0.1, 0.6], so R0 straddles one; m, k and N_h stay
    fixed; c in [0, 0.3].  With these ranges the mosquito population stays
    viable for every control up to 0.3/day."""
    v = dict(BASE)
    v["B"] = BASE["B"] * _log_uniform(u[0], 0.5, 2.0)
    v["beta_mh"] = 0.1 + 0.5 * u[1]
    v["beta_hm"] = 0.1 + 0.5 * u[2]
    for key, x in zip(_SCALED, u[3:]):
        v[key] = BASE[key] * _log_uniform(x, 0.8, 1.25)
    v["K"] = v["k"] * v["N_h"]
    return v, C_MAX * u[-1]


def start_state(v: dict[str, float]) -> State7:
    n_h = v["N_h"]
    return State7(S_h=n_h - E_H0 - I_H0, E_h=E_H0, I_h=I_H0,
                  A_m=v["k"] * n_h, S_m=v["m"] * n_h, E_m=0.0, I_m=0.0)


def _bounds(p: ModelParams) -> np.ndarray:
    """Natural magnitude of each CSV column after t."""
    return np.array([p.N_h] * 4 + [p.k * p.N_h] + [p.m * p.N_h] * 3)


def failed(problems: list[str]) -> list[str]:
    """At most one entry per check attempt: its problems joined."""
    return ["; ".join(problems)] if problems else []


def _pin_checks() -> list[str]:
    s = builtin_capeverde2009()
    problems = []
    for name, fn in (("r0_spectral", r0_spectral), ("r0_closed_form", r0_closed_form)):
        r0 = fn(s.params, 0.0)
        if abs(r0 - PIN_R0) > PIN_R0_TOL:
            problems.append(f"built-in {name} = {r0!r}, pinned {PIN_R0}")
    th = min_control(s.params)
    if not isinstance(th, ThresholdResult) or abs(th.c_star - PIN_C_STAR) > PIN_C_STAR_TOL:
        problems.append(f"built-in min_control = {th!r}, pinned c* = {PIN_C_STAR}")
    return problems


def check_trajectory(p: ModelParams, c: float, traj, csv_text: str, rows: int,
                     tr) -> list[str]:
    """Shape, positivity, human total and CSV checks of one simulation."""
    problems = []
    stats = traj.step_stats
    if stats is None or stats.accepted <= 0:
        problems.append(f"missing step statistics: {stats!r}")
    data = tr.call("integrator.as_array", traj.as_array)
    if data.shape != (rows, 8) or len(traj.times) != rows:
        return problems + [f"expected {rows} rows, got {data.shape}"]
    bound = _bounds(p)
    if not np.all(np.isfinite(data)):
        problems.append("non-finite state")
    elif np.any(data < -OMEGA_SLACK * bound):
        problems.append(f"negative compartment, scaled min {float((data / bound).min())!r}")
    else:
        drift = float(np.max(np.abs(data[:, :4].sum(axis=1) - p.N_h)))
        if drift > OMEGA_SLACK * p.N_h:
            problems.append(f"human total drifted by {drift!r}")
        if np.any(data[:, :3].sum(axis=1) > p.N_h * (1.0 + OMEGA_SLACK)) \
                or np.any(data[:, 4] > bound[4] * (1.0 + OMEGA_SLACK)) \
                or np.any(data[:, 5:].sum(axis=1) > bound[5] * (1.0 + OMEGA_SLACK)):
            problems.append("state left the admissible region")
    if not csv_text.startswith(CSV_HEADER + "\n") or csv_text.count("\n") != rows + 1:
        problems.append("CSV header or row count wrong")
    else:
        last = [float(x) for x in csv_text[:-1].rsplit("\n", 1)[1].split(",")]
        if last != [float(traj.times[-1])] + data[-1].tolist():
            problems.append("CSV last row does not round-trip the trajectory")
    if tr.on:
        tr.note("integrator.accepted", stats.accepted)
        tr.note("integrator.rejected", stats.rejected)
        tr.note("integrator.rows", rows)
        tr.note("cli.csv_bytes", len(csv_text))
        for i in (0, rows // 2, rows - 1):
            tr.call("model.rhs", rhs, p, c, State7.from_array(np.delete(data[i], 3)))
    return problems


def oracle_check(p: ModelParams, c: float, x0: State7, cfg: SolverConfig,
                 h: float) -> list[str]:
    """Compare a DP5(4) run with the fixed-step RK4 oracle at every report
    time the two share (the oracle reports every half day)."""
    traj = integrate(p, c, x0, cfg)
    ref = integrate_fixed_rk4(p, c, x0, h, cfg.t_end)
    times = np.asarray(traj.times)
    data, ref_data = traj.as_array(), ref.as_array()
    idx = np.searchsorted(times, np.asarray(ref.times) - 1e-6)
    idx = np.minimum(idx, times.size - 1)
    shared = np.abs(times[idx] - np.asarray(ref.times)) < 1e-6
    if shared.sum() < 2:
        return ["oracle: fewer than two shared report times"]
    err = float(np.max(np.abs(data[idx[shared]] - ref_data[shared]) / _bounds(p)))
    if err > ORACLE_TOL:
        return [f"oracle: scaled gap to RK4 h={h} is {err:.3e} > {ORACLE_TOL:g}"]
    return []


@dataclass(frozen=True)
class SimCase:
    params: ModelParams
    control: float
    initial: State7
    solver: SolverConfig


class SimLong:
    """`integrate` plus `trajectory_to_csv` over 730 days, weekly output."""

    name = "sim-long"
    pool = 512
    rows = 106            # weekly grid 0..728 plus the end point 730
    oracle_cases = 1
    oracle_h = 0.05

    def build(self, seed: int, workdir: Path) -> list[SimCase]:
        cfg = SolverConfig(t_end=730.0, output_step=7.0)
        cases = []
        for u in stratified(np.random.default_rng(seed), self.pool, DRAW_DIMS):
            v, c = draw(u)
            cases.append(SimCase(ModelParams(**v), c, start_state(v), cfg))
        return cases

    def run(self, case: SimCase, tr):
        traj = tr.call("integrator.integrate", integrate, case.params, case.control,
                       case.initial, case.solver)
        return traj, tr.call("cli.csv", trajectory_to_csv, traj)

    def check(self, case: SimCase, out, tr) -> list[str]:
        traj, csv_text = out
        return check_trajectory(case.params, case.control, traj, csv_text, self.rows, tr)

    def oracle(self, cases, seed: int) -> tuple[int, list[str]]:
        rng = np.random.default_rng([seed, 1])
        problems = failed(_pin_checks())
        for i in rng.choice(len(cases), size=self.oracle_cases, replace=False):
            case = cases[i]
            problems += failed(oracle_check(case.params, case.control, case.initial,
                                            case.solver, self.oracle_h))
        return 1 + self.oracle_cases, problems


class SimDense(SimLong):
    """The built-in scenario with seeded control and initial states, 100
    days at output_step 0.05, rendered to CSV and SVG."""

    name = "sim-dense"
    pool = 256
    rows = 2001
    oracle_cases = 2
    oracle_h = 0.02

    def build(self, seed: int, workdir: Path) -> list[SimCase]:
        p = builtin_capeverde2009().params
        cfg = SolverConfig(t_end=100.0, output_step=0.05)
        cases = []
        for u in stratified(np.random.default_rng(seed), self.pool, 5):
            e_h = E_H0 * _log_uniform(u[1], 0.5, 2.0)
            i_h = I_H0 * _log_uniform(u[2], 0.5, 2.0)
            x0 = State7(S_h=p.N_h - e_h - i_h, E_h=e_h, I_h=i_h,
                        A_m=p.k * p.N_h * (0.8 + 0.2 * u[3]),
                        S_m=p.m * p.N_h * (0.8 + 0.2 * u[4]), E_m=0.0, I_m=0.0)
            cases.append(SimCase(p, C_MAX * u[0], x0, cfg))
        return cases

    def run(self, case: SimCase, tr):
        traj = tr.call("integrator.integrate", integrate, case.params, case.control,
                       case.initial, case.solver)
        csv_text = tr.call("cli.csv", trajectory_to_csv, traj)
        return traj, csv_text, tr.call("svgplot.svg", render_trajectory_svg, traj, "dense")

    def check(self, case: SimCase, out, tr) -> list[str]:
        traj, csv_text, svg = out
        problems = check_trajectory(case.params, case.control, traj, csv_text, self.rows, tr)
        if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")) or svg.count("<polyline") < 7:
            problems.append("SVG is not a complete two-panel chart")
        if tr.on:
            tr.note("svgplot.svg_bytes", len(svg.encode("utf-8")))
        return problems


@dataclass
class AnalysisOut:
    report: object
    text: str
    profile: list
    classes: list


class ControlAnalysis:
    """`build_report` and `render_json`, then a 61-point `r0_profile` with
    `classify(brdfe)` at every viable point, as `sweep` does."""

    name = "control-analysis"
    pool = 1024

    def build(self, seed: int, workdir: Path) -> list[Scenario]:
        cases = []
        for i, u in enumerate(stratified(np.random.default_rng(seed), self.pool, DRAW_DIMS)):
            v, c = draw(u)
            cases.append(Scenario(name=f"draw{i}", params=ModelParams(**v),
                                  control=ControlLevel(c), initial=start_state(v),
                                  solver=SolverConfig()))
        return cases

    def run(self, sc: Scenario, tr) -> AnalysisOut:
        p = sc.params
        report = tr.call("report.build_report", build_report, sc)
        text = tr.call("report.render_json", render_json, report)
        profile = tr.call("threshold.r0_profile", r0_profile, p, PROFILE_GRID)
        classes = []
        for pt in profile:
            if not pt.collapsed:
                eq = tr.call("equilibria.brdfe", brdfe, p, pt.c)
                classes.append(tr.call("stability.classify", classify, p, pt.c, eq).classification)
        return AnalysisOut(report, text, profile, classes)

    def check(self, sc: Scenario, out: AnalysisOut, tr) -> list[str]:
        p = sc.params
        rep = out.report
        if rep.collapsed or rep.r0_closed_form is None:
            return ["mosquito population collapsed inside the drawn range"]
        problems = []
        rs, rc = rep.r0_spectral, rep.r0_closed_form
        if abs(rs - rc) > 1e-10 * max(1.0, abs(rc)):
            problems.append(f"R0 routes disagree: {rs!r} vs {rc!r}")
        doc = json.loads(out.text)
        if doc["r0_closed_form"] != rc or doc["threshold"] != json.loads(json.dumps(rep.threshold)):
            problems.append("JSON digits differ from the report")
        th = rep.threshold
        if th["kind"] == "threshold":
            lo, hi = th["bracket"]
            if not (0.0 < hi - lo <= 1e-6):
                problems.append(f"bracket width {hi - lo!r}")
            r_lo = tr.call("reproduction.r0_spectral", r0_spectral, p, lo)
            r_hi = tr.call("reproduction.r0_spectral", r0_spectral, p, hi)
            if not r_lo > 1.0 >= r_hi:
                problems.append(f"bracket does not straddle R0 = 1: {r_lo!r}, {r_hi!r}")
        elif th["kind"] != "no_control_needed" or not th["r0_at_zero"] <= 1.0:
            problems.append(f"unexpected threshold outcome {th!r}")
        for eq in rep.equilibria:
            if eq.kind == "endemic" and not eq.residual < REFINE_TOL:
                problems.append(f"refined endemic residual {eq.residual!r}")
        r0s = [pt.r0 for pt in out.profile]
        if any(pt.collapsed for pt in out.profile) or len(out.classes) != len(PROFILE_GRID):
            problems.append("profile point collapsed inside the drawn range")
        elif any(b >= a for a, b in zip(r0s, r0s[1:])):
            problems.append("R0 profile is not strictly decreasing in c")
        elif abs(r0s[0] - 1.0) > 1e-6:
            # At c = 0 the reference state is a true equilibrium, so its
            # stability must agree with the threshold on R0.
            want = Classification.ASYMPTOTICALLY_STABLE if r0s[0] < 1.0 else Classification.UNSTABLE
            if out.classes[0] is not want:
                problems.append(f"stability at c=0 is {out.classes[0]}, R0 = {r0s[0]!r}")
        if tr.on:
            r0s_direct, rc_direct, c_star = analysis_calls(sc, tr)
            if (r0s_direct, rc_direct) != (rs, rc):
                problems.append("direct R0 calls differ from the report")
            if c_star != th.get("c_star"):
                problems.append("direct min_control differs from the report")
            tr.note("stability.classify_calls", len(out.classes))
        return problems

    def oracle(self, cases, seed: int) -> tuple[int, list[str]]:
        return 1, failed(_pin_checks())


def analysis_calls(sc: Scenario, tr) -> tuple[float, float, float | None]:
    """Direct, traced calls of the analysis layers that `build_report` hides.

    Returns both R0 routes and c* (None when no control is needed) so the
    caller can compare them with what the report carries.
    """
    p, c = sc.params, sc.control
    tr.call("model.rhs", rhs, p, c, sc.initial)
    r0s = tr.call("reproduction.r0_spectral", r0_spectral, p, c)
    r0c = tr.call("reproduction.r0_closed_form", r0_closed_form, p, c)
    try:
        eq = tr.call("equilibria.refined_endemic", refined_endemic, p, c)
    except (NoEndemicEquilibrium, NumericalFailure):
        tr.note("equilibria.endemic_found", 0)
    else:
        tr.note("equilibria.endemic_found", 1)
        tr.note("equilibria.residual", eq.residual_norm)
    th = tr.call("threshold.min_control", min_control, p)
    if isinstance(th, ThresholdResult):
        tr.note("threshold.bisect_iterations", th.iterations)
        return r0s, r0c, th.c_star
    return r0s, r0c, None


#: Controls of the layer probe's passes over the built-in scenario.
PROBE_CONTROLS = (0.0, 0.1, 0.2)


def probe(tr) -> None:
    """Traced passes through every layer, one per PROBE_CONTROLS entry, on
    the built-in 100-day scenario.

    A traced run reports every layer metric: a layer that the workload's
    own ops do not reach is measured here instead.
    """
    for c in PROBE_CONTROLS:
        sc = replace(builtin_capeverde2009(), control=ControlLevel(c))
        _probe_pass(sc, tr)


def _probe_pass(sc: Scenario, tr) -> None:
    p, c = sc.params, sc.control
    text = tr.call("scenario.render", render_scenario, sc)
    tr.call("scenario.parse", parse_scenario, text, sc.name)
    traj = tr.call("integrator.integrate", integrate, p, c, sc.initial, sc.solver)
    tr.note("integrator.accepted", traj.step_stats.accepted)
    tr.note("integrator.rejected", traj.step_stats.rejected)
    tr.note("integrator.rows", len(traj.times))
    tr.call("integrator.as_array", traj.as_array)
    tr.note("cli.csv_bytes", len(tr.call("cli.csv", trajectory_to_csv, traj)))
    svg = tr.call("svgplot.svg", render_trajectory_svg, traj, sc.name)
    tr.note("svgplot.svg_bytes", len(svg.encode("utf-8")))
    analysis_calls(sc, tr)
    eq = tr.call("equilibria.brdfe", brdfe, p, c)
    tr.call("stability.classify", classify, p, c, eq)
    tr.note("stability.classify_calls", 1)
    tr.call("threshold.r0_profile", r0_profile, p, PROFILE_GRID)
    report = tr.call("report.build_report", build_report, sc)
    tr.call("report.render_json", render_json, report)


# One block of ten CLI ops; every block is shuffled by the seed.  Exactly a
# tenth are malformed.  The slow simulate runs fill the top fifth and the
# import-bound runs the middle, so p50 and p90 each fall inside one kind of
# run rather than on the edge between two.
CLI_BLOCK = ("malformed", "analyze", "analyze", "threshold", "threshold", "sweep",
             "simulate", "simulate", "simulate-svg", "simulate-svg")
CLI_BLOCKS = 20
CLI_SIM_ROWS = 201        # default 100 days at output_step 0.5
CLI_SWEEP_ROWS = 7        # default grid 0, 0.05, ..., 0.3


def scenario_text(v: dict[str, float], c: float) -> str:
    lines = ["# seeded draw near Cape Verde 2009"]
    lines += [f"{key} = {value!r}" for key, value in v.items()]
    lines += [f"c = {c!r}", f"E_h0 = {E_H0!r}", f"I_h0 = {I_H0!r}"]
    return "\n".join(lines) + "\n"


def malform(text: str, rng: np.random.Generator) -> str:
    """One of six configuration errors the CLI must reject with exit 2."""
    lines = text.splitlines()
    kind = int(rng.integers(6))
    if kind == 0:
        lines.append("bogus_key = 1.0")
    elif kind == 1:
        lines = ["B = one" if ln.startswith("B =") else ln for ln in lines]
    elif kind == 2:
        lines = [ln for ln in lines if not ln.startswith("mu_m =")]
    elif kind == 3:
        lines = ["E_h0 = -5.0" if ln.startswith("E_h0 =") else ln for ln in lines]
    elif kind == 4:
        lines.append("k = 3.0")
    else:
        lines.append("eta_h 0.33")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CliCase:
    kind: str
    argv: tuple[str, ...]
    path: Path
    text: str
    expected: int


class CliMix:
    """`python -m dengue_control.cli` in subprocesses, one at a time."""

    name = "cli-mix"

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0

    def build(self, seed: int, workdir: Path) -> list[CliCase]:
        rng = np.random.default_rng(seed)
        scen_dir = workdir / "scenarios"
        scen_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = workdir / "op"
        self.out_dir.mkdir(exist_ok=True)
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"
        subs = ("simulate", "analyze", "threshold", "sweep")
        draws = stratified(rng, CLI_BLOCKS * len(CLI_BLOCK), DRAW_DIMS)
        cases = []
        for _ in range(CLI_BLOCKS):
            kinds = list(CLI_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                path = scen_dir / f"s{len(cases):03d}.txt"
                text = scenario_text(*draw(draws[len(cases)]))
                sub = kind.split("-")[0]
                if kind == "malformed":
                    sub = subs[int(rng.integers(len(subs)))]
                    text = malform(text, rng)
                path.write_text(text, encoding="utf-8")
                argv = [sys.executable, "-m", "dengue_control.cli", sub, "--scenario", str(path)]
                if sub in ("simulate", "sweep"):
                    argv += ["--out", str(self.out_dir)]
                if sub == "analyze":
                    argv.append("--json")
                if kind == "simulate-svg":
                    argv.append("--svg")
                cases.append(CliCase(kind, tuple(argv), path, text,
                                     2 if kind == "malformed" else 0))
        return cases

    def run(self, case: CliCase, tr) -> int:
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(case.argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, case: CliCase, code: int, tr) -> list[str]:
        problems = []
        if code != case.expected:
            problems.append(f"{case.kind}: exit {code}, expected {case.expected}")
        stdout = self.stdout_path.read_text(encoding="utf-8")
        written = {f.name: f for f in self.out_dir.iterdir()}
        if case.expected == 2:
            if not self.stderr_path.read_text(encoding="utf-8").startswith("error:"):
                problems.append("config error without an 'error:' message")
            if written:
                problems.append(f"config error still wrote {sorted(written)}")
        elif case.kind.startswith("simulate"):
            want = {"trajectory.csv"} | ({"compartments.svg"} if case.kind == "simulate-svg" else set())
            if set(written) != want:
                problems.append(f"simulate wrote {sorted(written)}, expected {sorted(want)}")
            else:
                csv_text = written["trajectory.csv"].read_text(encoding="utf-8")
                if not csv_text.startswith(CSV_HEADER + "\n") \
                        or csv_text.count("\n") != CLI_SIM_ROWS + 1:
                    problems.append("trajectory.csv header or row count wrong")
                if "compartments.svg" in want and not written["compartments.svg"].read_text(
                        encoding="utf-8").endswith("</svg>\n"):
                    problems.append("compartments.svg incomplete")
        elif case.kind == "sweep":
            text = written["sweep.csv"].read_text(encoding="utf-8") if "sweep.csv" in written else ""
            if not text.startswith(SWEEP_HEADER + "\n") or text.count("\n") != CLI_SWEEP_ROWS + 1:
                problems.append(f"sweep wrote {sorted(written)} with a wrong sweep.csv")
        elif case.kind == "analyze":
            doc = json.loads(stdout)
            rs, rc = doc["r0_spectral"], doc["r0_closed_form"]
            if abs(rs - rc) > 1e-10 * max(1.0, abs(rc)):
                problems.append(f"analyze: R0 routes disagree: {rs!r} vs {rc!r}")
        elif not (stdout.startswith("c* = ") or stdout.startswith("no control needed")):
            problems.append(f"threshold printed {stdout[:40]!r}")
        for f in written.values():
            f.unlink()
        if tr.on:
            problems += self._traced_parse(case, tr)
        return problems

    def _traced_parse(self, case: CliCase, tr) -> list[str]:
        try:
            sc = tr.call("scenario.parse", parse_scenario, case.text, case.path.name)
        except ScenarioError:
            return [] if case.expected == 2 else ["scenario.parse rejected a valid file"]
        if case.expected == 2:
            return ["scenario.parse accepted a malformed file"]
        text = tr.call("scenario.render", render_scenario, sc)
        if parse_scenario(text, sc.name) != sc:
            return ["scenario render/parse round trip changed the scenario"]
        return []

    def oracle(self, cases, seed: int) -> tuple[int, list[str]]:
        return 1, failed(_pin_checks())


def make(name: str, root: Path):
    if name == CliMix.name:
        return CliMix(root)
    return {cls.name: cls for cls in (SimLong, SimDense, ControlAnalysis)}[name]()

