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
and none of them loads numpy: ``analyze`` decides each stability label and
the spectral R0 in exact arithmetic, and ``simulate`` formats its CSV and
reads its summary straight from the trajectory's flat row buffer.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
import warnings
from itertools import compress, count, islice
from operator import indexOf
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    MosquitoCollapseError,
    NoEndemicEquilibrium,
    NumericalFailure,
    ScenarioError,
)
from .model import ROW_LABELS, ModelParams
from .scenario import (_DENSE_CHUNK, MAX_GRID_POINTS, Scenario, _build_scenario, _values,
                       get_builtin, load_scenario)

if TYPE_CHECKING:
    from .integrator import Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4

CSV_HEADER = ",".join(("t",) + ROW_LABELS)


def _write_atomic(path: Path, parts: Iterable[str]) -> None:
    """Write the strings of ``parts`` in turn to a temporary file, then
    rename it to ``path``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


def _csv_chunks(traj: Trajectory) -> Iterator[str]:
    """The CSV text of ``trajectory_to_csv`` in parts: the header line,
    then the rows of each chunk of ``_DENSE_CHUNK``, each part ending in a
    line break, so a writer holds one chunk's text at a time."""
    from .integrator import _DENSE_CHUNK, _WIDTH

    rows, size = traj.rows, _DENSE_CHUNK * _WIDTH
    yield CSV_HEADER + "\n"
    for lo in range(0, len(rows), size):
        values = map(repr, rows[lo:lo + size])
        # zip over one iterator, once per column, yields the rows in order
        yield "\n".join(map(",".join, zip(*[values] * _WIDTH))) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Full round-trip double formatting: re-parsing and re-rendering the
    text reproduces it byte for byte.

    Rows are formatted in chunks of ``_DENSE_CHUNK`` (``_csv_chunks``):
    ``map(repr, ...)`` over a chunk's values, read from the flat row buffer
    ``Trajectory.rows`` with no numpy, grouped into rows by ``zip``
    and joined, so the text is byte for byte that of
    ``",".join(map(repr, row))`` per row, with no Python-level loop per row
    or value and temporaries a chunk in size."""
    return "".join(_csv_chunks(traj))


def _load(args) -> Scenario:
    # rebuilt, so the overrides meet the same checks as scenario keys
    scenario = get_builtin(args.builtin) if args.builtin else load_scenario(args.scenario)
    overrides = {key: value for key, value in
                 (("c", args.control), ("t_end", getattr(args, "t_end", None)))
                 if value is not None}
    return _build_scenario({**_values(scenario), **overrides}, scenario.name)


def _peak(values) -> tuple[int, float]:
    """Index and value of the largest of the floats ``values``, as numpy's
    argmax and max give them: the first NaN if there is one, else the first
    index of the largest value, the last of its copies giving the sign of a
    zero (0.0 after an initial -0.0).  ``values`` is any sequence, a strided
    ``memoryview`` included; each pass is a C-level iterator, so no copy of
    it is made."""
    for at in compress(count(), map(math.isnan, values)):
        return at, math.nan
    peak = max(reversed(values))
    return indexOf(values, peak), peak


def cmd_simulate(args) -> int:
    scenario = _load(args)
    from .integrator import _WIDTH, integrate

    traj = integrate(scenario.params, scenario.control, scenario.initial,
                     scenario.solver)
    out_dir = Path(args.out)
    csv_path = out_dir / "trajectory.csv"
    _write_atomic(csv_path, _csv_chunks(traj))
    print(f"wrote {csv_path}")
    if args.svg:
        from .svgplot import trajectory_svg_parts

        svg_path = out_dir / "compartments.svg"
        _write_atomic(svg_path, trajectory_svg_parts(traj, title=scenario.name))
        print(f"wrote {svg_path}")
    rows = traj.rows
    i_h = memoryview(rows)[1 + ROW_LABELS.index("I_h")::_WIDTH]
    at, peak = _peak(i_h)
    print(f"rows: {len(i_h)}  steps: {traj.step_stats.accepted} accepted, "
          f"{traj.step_stats.rejected} rejected")
    print(f"peak infected humans: {peak!r} at t = {rows[_WIDTH * at]!r}")
    print(f"final infected mosquitoes: {rows[1 + ROW_LABELS.index('I_m') - _WIDTH]!r}")
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


def _sweep_grid(c_min: float, c_max: float, c_step: float) -> Iterator[float]:
    """The sweep's control levels, checked at the call and produced lazily."""
    # the end slack admits a level that rounding puts just past c_max; at most
    # half a step of it, so no two levels are clamped to c_max
    stop = c_max + min(1e-12 * max(1.0, abs(c_max)), 0.5 * c_step)
    if not (all(math.isfinite(v) for v in (c_min, c_max, c_step))
            and 0.0 <= c_min <= c_max and c_step > 0.0
            and (stop - c_min) / c_step < MAX_GRID_POINTS):
        raise ScenarioError(
            f"invalid sweep grid: need finite 0 <= c-min <= c-max, c-step > 0 "
            f"and at most {MAX_GRID_POINTS} points (got {c_min}, {c_max}, {c_step})")
    if c_step < 4.0 * math.ulp(c_max):  # a finer step repeats levels after rounding
        raise ScenarioError(f"invalid sweep grid: c-step {c_step!r} is below 4 times the "
                            f"spacing of doubles at c-max ({math.ulp(c_max)!r})")
    grid = (c_min + c_step * i for i in range(math.floor((stop - c_min) / c_step) + 2))
    # min(c, c_max) per level: c itself on a tie, so c_max = -0.0 still gives 0.0
    return (c_max if c > c_max else c for c in grid if c <= stop)


def _sweep_chunks(p: ModelParams, grid: Iterator[float]) -> Iterator[str]:
    """The sweep table in parts: the header line, then the rows of each
    ``_DENSE_CHUNK`` levels of ``grid``, each part ending in a line break."""
    from .threshold import r0_profile

    # At a disease-free point the Jacobian is block triangular: -mu_h and the
    # (A_m, S_m) block are always stable, and the infected block's abscissa
    # has the sign of R0 - 1, so the point is asymptotically stable exactly
    # when R0 < 1 (van den Driessche & Watmough 2002, Thm 2)
    yield "c,R0,brdfe_stable,collapsed\n"
    while points := r0_profile(p, islice(grid, _DENSE_CHUNK)):
        yield "".join(f"{pt.c!r},,,true\n" if pt.collapsed
                      else f"{pt.c!r},{pt.r0!r},{str(pt.r0 < 1.0).lower()},false\n"
                      for pt in points)


def cmd_sweep(args) -> int:
    scenario = _load(args)
    grid = _sweep_grid(args.c_min, args.c_max, args.c_step)
    out_path = Path(args.out) / "sweep.csv"
    _write_atomic(out_path, _sweep_chunks(scenario.params, grid))
    print(f"wrote {out_path}")
    # stdout gets the table from the renamed file, a buffer at a time, so no
    # copy of the whole table is held
    with open(out_path, encoding="utf-8", newline="") as fh:
        shutil.copyfileobj(fh, sys.stdout)
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
