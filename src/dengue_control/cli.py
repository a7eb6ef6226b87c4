"""Command-line front end.

Subcommands:
  simulate   integrate a scenario; write a CSV trajectory (and optionally
             a two-panel SVG chart)
  analyze    full report: viability, R0 (both routes), equilibria with
             residuals and stability, control threshold
  threshold  minimum constant control keeping R0 below one
  sweep      (c, R0, stability) table over a grid of control levels

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 model-regime error (mosquito collapse / missing equilibrium).
All file writes are whole-file atomic (temp file + rename).

Each subcommand loads its scenario before importing the modules it needs,
so configuration errors and ``threshold`` finish without loading numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    MosquitoCollapseError,
    NoEndemicEquilibrium,
    NumericalFailure,
    ScenarioError,
)
from .scenario import Scenario, _build_scenario, _values, get_builtin, load_scenario

if TYPE_CHECKING:
    from .integrator import Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4

CSV_HEADER = "t,S_h,E_h,I_h,R_h,A_m,S_m,E_m,I_m"


def _write_atomic(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


def trajectory_to_csv(traj: Trajectory) -> str:
    """Full round-trip double formatting: re-parsing and re-rendering the
    text reproduces it byte for byte.

    Rows are formatted in chunks of ``_DENSE_CHUNK``: ``map(repr, ...)``
    over a chunk's values, grouped into rows by ``zip`` and joined, so the
    text is byte for byte that of ``",".join(map(repr, row))`` per row,
    with no Python-level loop per row or value and temporaries a chunk in
    size."""
    import numpy as np

    from .integrator import _DENSE_CHUNK

    times, data = traj.times, traj.as_array()
    parts = [CSV_HEADER]
    for lo in range(0, len(times), _DENSE_CHUNK):
        rows = np.column_stack((times[lo:lo + _DENSE_CHUNK], data[lo:lo + _DENSE_CHUNK]))
        values = map(repr, rows.ravel().tolist())
        # zip over one iterator, once per column, yields the rows in order
        parts.append("\n".join(map(",".join, zip(*[values] * rows.shape[1]))))
    # a last empty part ends the text with a line break without copying it again
    return "\n".join(parts + [""])


def _load(args) -> Scenario:
    # rebuilt, so the overrides meet the same checks as scenario keys
    scenario = get_builtin(args.builtin) if args.builtin else load_scenario(args.scenario)
    overrides = {key: value for key, value in
                 (("c", args.control), ("t_end", getattr(args, "t_end", None)))
                 if value is not None}
    return _build_scenario({**_values(scenario), **overrides}, scenario.name)


def cmd_simulate(args) -> int:
    scenario = _load(args)
    from .integrator import integrate
    from .svgplot import render_trajectory_svg

    traj = integrate(scenario.params, scenario.control, scenario.initial,
                     scenario.solver)
    out_dir = Path(args.out)
    csv_path = out_dir / "trajectory.csv"
    _write_atomic(csv_path, trajectory_to_csv(traj))
    print(f"wrote {csv_path}")
    if args.svg:
        svg_path = out_dir / "compartments.svg"
        _write_atomic(svg_path, render_trajectory_svg(traj, title=scenario.name))
        print(f"wrote {svg_path}")
    data = traj.as_array()
    print(f"rows: {len(data)}  steps: {traj.step_stats.accepted} accepted, "
          f"{traj.step_stats.rejected} rejected")
    print(f"peak infected humans: {float(data[:, 2].max())!r} "
          f"at t = {float(traj.times[data[:, 2].argmax()])!r}")
    print(f"final infected mosquitoes: {float(data[-1, 7])!r}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    scenario = _load(args)
    from .report import build_report, render_json, render_text

    report = build_report(scenario)
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return EXIT_OK


def cmd_threshold(args) -> int:
    scenario = _load(args)
    from .threshold import NoControlNeeded, min_control

    result = min_control(scenario.params, tol=args.tol)
    if isinstance(result, NoControlNeeded):
        r0 = "undefined (mosquito collapse)" if result.r0_at_zero is None \
            else repr(result.r0_at_zero)
        print(f"no control needed: R0 at c=0 = {r0}")
    else:
        print(f"c* = {result.c_star:.6f}")
        print(f"R0(c*) = {result.r0_at_c_star!r}")
        lo, hi = result.bracket
        print(f"bracket = [{lo!r}, {hi!r}]  (width {hi - lo:.3g} <= tol {args.tol:g})")
        print(f"iterations = {result.iterations}")
    print(f"collapse bound c = {result.collapse_bound!r}")
    return EXIT_OK


def _sweep_grid(c_min: float, c_max: float, c_step: float) -> list[float]:
    from .integrator import MAX_GRID_POINTS

    stop = c_max + 1e-12 * max(1.0, abs(c_max))
    if not (all(math.isfinite(v) for v in (c_min, c_max, c_step))
            and 0.0 <= c_min <= c_max and c_step > 0.0
            and (stop - c_min) / c_step < MAX_GRID_POINTS):
        raise ScenarioError(
            f"invalid sweep grid: need finite 0 <= c-min <= c-max, c-step > 0 "
            f"and at most {MAX_GRID_POINTS} points (got {c_min}, {c_max}, {c_step})")
    grid = []
    i = 0
    while True:
        c = c_min + i * c_step
        if c > stop:
            break
        grid.append(min(c, c_max))
        i += 1
    return grid


def cmd_sweep(args) -> int:
    scenario = _load(args)
    from .equilibria import brdfe
    from .stability import Classification, classify
    from .threshold import r0_profile

    p = scenario.params
    lines = ["c,R0,brdfe_stable,collapsed"]
    with warnings.catch_warnings():
        # brdfe at c > 0 is classified at the declared reference state,
        # whose residual warning would fire once per grid point here
        warnings.simplefilter("ignore")
        for pt in r0_profile(p, _sweep_grid(args.c_min, args.c_max, args.c_step)):
            if pt.collapsed:
                lines.append(f"{pt.c!r},,,true")
                continue
            rep = classify(p, pt.c, brdfe(p, pt.c))
            stable = rep.classification is Classification.ASYMPTOTICALLY_STABLE
            lines.append(f"{pt.c!r},{pt.r0!r},{str(stable).lower()},false")
    text = "\n".join(lines) + "\n"
    out_path = Path(args.out) / "sweep.csv"
    _write_atomic(out_path, text)
    print(f"wrote {out_path}")
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dengue-control",
        description="Host-vector dengue model: simulation, equilibria, "
                    "reproduction number and control thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_t_end=True):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--scenario", metavar="PATH", help="scenario file (key = value lines)")
        src.add_argument("--builtin", metavar="NAME", help="built-in scenario, e.g. capeverde2009")
        sp.add_argument("--control", type=float, default=None, metavar="C",
                        help="override the control level c (per day)")
        if with_t_end:
            sp.add_argument("--t-end", dest="t_end", type=float, default=None,
                            metavar="DAYS", help="override the simulation horizon")

    sp = sub.add_parser("simulate", help="integrate and export CSV (and SVG)")
    add_common(sp)
    sp.add_argument("--out", default=".", metavar="DIR", help="output directory")
    sp.add_argument("--svg", action="store_true", help="also write compartments.svg")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="equilibria, R0, stability, threshold")
    add_common(sp, with_t_end=False)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("threshold", help="minimum control keeping R0 < 1")
    add_common(sp, with_t_end=False)
    sp.add_argument("--tol", type=float, default=1e-6, metavar="TOL",
                    help="bracket width tolerance on c (default 1e-6)")
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("sweep", help="R0 and stability over a grid of c")
    add_common(sp, with_t_end=False)
    sp.add_argument("--c-min", dest="c_min", type=float, default=0.0)
    sp.add_argument("--c-max", dest="c_max", type=float, default=0.3)
    sp.add_argument("--c-step", dest="c_step", type=float, default=0.05)
    sp.add_argument("--out", default=".", metavar="DIR", help="output directory")
    sp.set_defaults(func=cmd_sweep)
    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # each warning becomes one "warning: ..." line, without the path
        # and source line of the default format
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (MosquitoCollapseError, NoEndemicEquilibrium) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_REGIME
        except NumericalFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
