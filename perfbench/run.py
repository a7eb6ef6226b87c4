"""Seeded benchmark of the dengue_control package.

Run from the repository root:

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 20 --trace 0

Each run builds its inputs from the seed, runs the workload's ops in a
closed loop with one client, checks every output, and prints a metric
table followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run records
spans around every call it makes into the package and reports the
per-layer metrics and the tracing overhead instead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

NAMES = ("sim-long", "sim-dense", "control-analysis", "cli-mix")
SETUP_REPEATS = 7
# A typical bare interpreter start (0.07 to 0.08 s), pinned to one CPU, on
# the 2-vCPU x86_64 virtual machine (Python 3.11.7) the bounds were set on;
# see measure_setup.
NOMINAL_START_S = 0.08
START_REPEATS = 7
MIN_OPS = 100            # at least ten samples beyond p90
LOOP_CAP_S = 100         # a timed loop that has not reached its fewest ops by
                         # --seconds plus this stops, and the run fails
TRACE_MIN_OPS = 20
TRACE_SHARE = 0.4        # share of --seconds for the untraced half of a traced run
TRACE_KEEP_OPS = 200     # raw spans written for this many ops
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> int:
    """Give BLAS/OpenMP pools one thread, before numpy loads, here and in
    every child, so a run stays on one of the machine's two cores; and keep
    the run and its children on one CPU, so the reference (below) is timed
    on the CPU that runs the ops.  Returns that CPU."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_env(seed: int, cpu: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "pinned_cpu": cpu,
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


# The reference: fixed work that does not touch the package, run before
# every op and once after the last.  The shared host's speed changes within
# seconds: one op's wall time moved by 80 % within a minute while its ratio
# to the reference moved by 2 %.  The gated timing metrics are therefore op
# times divided by the mean of the two reference times around them ("ref"
# units); raw wall times are printed alongside.  In-process workloads use a
# kernel with the package's mix of work: RK4 steps of a 7x7 linear system on
# small numpy arrays, eigenvalues and linear solves of 7x7 matrices, then
# building and formatting rows of floats, then a pure-Python loop (about
# 5 ms).  The CLI workload uses a bare interpreter start, which tracks the
# process-creation costs that dominate its ops and that the kernel misses.
_REF_A = [[(-0.3 + 0.01 * ((7 * i + 3 * j) % 5)) if i == j else 0.01 * ((i + 2 * j) % 3)
           for j in range(7)] for i in range(7)]


def reference_kernel() -> float:
    import numpy
    a = numpy.array(_REF_A)
    y = numpy.linspace(1.0, 2.0, 7)
    h = 0.01
    for _ in range(60):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    total = 0.0
    for i in range(20):
        m = a + (1e-3 * i) * numpy.eye(7)
        total += float(numpy.linalg.eigvals(m).real.max()) + float(numpy.linalg.solve(m, y).sum())
    base = y.tolist()
    rows = [tuple(v * (1.0 + 1e-3 * i) for v in base) for i in range(300)]
    text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    s = 0
    for i in range(3000):
        s += i % 7
    return total + len(text) + s


def reference_spawn() -> int:
    return subprocess.run([sys.executable, "-c", "pass"], check=True).returncode


def wall(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def setup_child(workload: str, seed: int, workdir: str) -> None:
    """Import the package and build the workload's inputs, then exit."""
    sys.path.insert(0, str(SRC))
    import workloads
    workloads.make(workload, ROOT).build(seed, Path(workdir))


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and build
    the inputs (the timed loop and the oracle checks are not part of it),
    and of the bare interpreter starts run before each and after the last.

    The raw wall time follows the host's speed as the op times do, so the
    gated setup_s is each set-up time divided by the mean of the two bare
    starts around it, times NOMINAL_START_S: the set-up time in seconds at
    the bare start speed of the machine the bounds were set on."""
    times, starts = [], [wall(reference_spawn)]
    for i in range(SETUP_REPEATS):
        child_dir = workdir / f"setup{i}"
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child", str(child_dir),
               "--workload", workload, "--seed", str(seed)]
        # No timeout: a timed wait polls, which rounds the time up to 50 ms.
        times.append(wall(subprocess.run, cmd, check=True, cwd=ROOT))
        starts.append(wall(reference_spawn))
        shutil.rmtree(child_dir, ignore_errors=True)
    return times, starts


def measure_process_start() -> dict[str, float]:
    """Median wall times of bare, numpy-importing and package-importing
    interpreters, run interleaved, reported as differences in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmds = {
        "bare": [sys.executable, "-c", "pass"],
        "numpy": [sys.executable, "-c", "import numpy"],
        "pkg": [sys.executable, "-c", "import dengue_control"],
    }
    samples: dict[str, list[float]] = {key: [] for key in cmds}
    for _ in range(START_REPEATS):
        for key, cmd in cmds.items():
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT, env=env)
            samples[key].append(time.perf_counter() - t0)
    med = {key: statistics.median(v) * 1e3 for key, v in samples.items()}
    return {
        "cli.python_start_ms": med["bare"],
        "cli.numpy_import_ms": med["numpy"] - med["bare"],
        "cli.pkg_import_ms": med["pkg"] - med["numpy"],
    }


def timed_loop(wl, inputs, tr, reference, seconds: float, min_ops: int,
               count: int | None = None):
    """Closed loop with one client.  Runs until ``seconds`` have passed and
    ``min_ops`` ops are done (or exactly ``count`` ops).  The reference runs
    before every op and once more after the last, so every op lies between
    two of them; only the op and the references are timed, and each op's
    output check runs between the op and the next reference.

    A loop that has not done ``min_ops`` ops after ``seconds`` plus
    LOOP_CAP_S stops there and records that as a failed check.

    Returns the wall times in seconds of the ops that completed, the mean
    of the two reference times around each, the failures (at most one per
    op or check) and the number of ops and checks attempted."""
    hard_cap = seconds + LOOP_CAP_S
    refs: list[float] = []
    done: list[tuple[int, float]] = []
    problems: list[str] = []

    def timed_reference():
        r0 = time.perf_counter_ns()
        reference()
        refs.append((time.perf_counter_ns() - r0) * 1e-9)

    reference()  # untimed: the first call pays one-time imports
    gc.collect()
    start = time.perf_counter()
    i = 0
    with warnings.catch_warnings(record=True) as caught:
        # classify warns on the c > 0 reference state; a traced run counts
        # those warnings, an untraced run ignores them as `sweep` does.
        warnings.simplefilter("always" if tr.on else "ignore")
        while True:
            if count is not None:
                if i >= count:
                    break
            else:
                elapsed = time.perf_counter() - start
                if (elapsed >= seconds and i >= min_ops) or elapsed >= hard_cap:
                    break
            timed_reference()
            inp = inputs[i % len(inputs)]
            with tr.op(i):
                t0 = time.perf_counter_ns()
                try:
                    out = tr.call("op", wl.run, inp, tr)
                except Exception as exc:  # a failed op is counted, not fatal
                    bad = [f"raised {type(exc).__name__}: {exc}"]
                else:
                    done.append((i, (time.perf_counter_ns() - t0) * 1e-9))
                    try:
                        bad = wl.check(inp, out, tr)
                    except Exception as exc:
                        bad = [f"check raised {type(exc).__name__}: {exc}"]
                if tr.on:
                    tr.note("stability.residual_warnings", len(caught))
                caught.clear()
            if bad:
                problems.append(f"op {i}: " + "; ".join(bad))
            i += 1
    timed_reference()
    if count is None:
        i += 1  # the check that the loop did its fewest ops
        if len(done) < min_ops:
            problems.append(f"only {len(done)} of {min_ops} ops completed in "
                            f"{time.perf_counter() - start:.0f} s")
    times = [t for _, t in done]
    around = [0.5 * (refs[j] + refs[j + 1]) for j, _ in done]
    return times, around, problems, i


def layer_metrics(tr) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one tracer as name -> (value, unit, samples),
    for the layers that its recorded calls reached."""
    d, v = tr.durations, tr.values
    out = {}

    def timed(name, span, scale, unit):
        xs = d(span)
        if xs:
            out[name] = (statistics.median(xs) * scale, unit, len(xs))

    def mean(name, note, unit):
        xs = v(note)
        if xs:
            out[name] = (statistics.fmean(xs), unit, len(xs))

    acc, rej = v("integrator.accepted"), v("integrator.rejected")
    attempts = [a + r for a, r in zip(acc, rej)]
    integ = d("integrator.integrate")
    timed("model.rhs_us", "model.rhs", 1e6, "us")
    timed("integrator.integrate_ms", "integrator.integrate", 1e3, "ms")
    mean("integrator.steps_accepted", "integrator.accepted", "count")
    mean("integrator.steps_rejected", "integrator.rejected", "count")
    if attempts:
        per_step = [t / n for t, n in zip(integ, attempts)]
        out["integrator.us_per_step"] = (statistics.median(per_step) * 1e6, "us", len(per_step))
        out["integrator.accept_ratio"] = (sum(acc) / sum(attempts), "ratio", len(attempts))
        out["integrator.rhs_evals"] = (statistics.fmean(6 * n + 1 for n in attempts),
                                       "count-computed", len(attempts))
    mean("integrator.rows", "integrator.rows", "count")
    timed("integrator.as_array_ms", "integrator.as_array", 1e3, "ms")
    timed("cli.csv_ms", "cli.csv", 1e3, "ms")
    mean("cli.csv_bytes", "cli.csv_bytes", "bytes")
    timed("svgplot.svg_ms", "svgplot.svg", 1e3, "ms")
    mean("svgplot.svg_bytes", "svgplot.svg_bytes", "bytes")
    timed("reproduction.r0_spectral_us", "reproduction.r0_spectral", 1e6, "us")
    timed("reproduction.r0_closed_form_us", "reproduction.r0_closed_form", 1e6, "us")
    timed("equilibria.brdfe_us", "equilibria.brdfe", 1e6, "us")
    timed("equilibria.refined_endemic_us", "equilibria.refined_endemic", 1e6, "us")
    mean("equilibria.endemic_found_ratio", "equilibria.endemic_found", "ratio")
    res = v("equilibria.residual")
    if res:
        out["equilibria.max_residual"] = (max(res), "scaled", len(res))
    timed("stability.classify_us", "stability.classify", 1e6, "us")
    mean("stability.classify_calls", "stability.classify_calls", "count")
    mean("stability.residual_warnings", "stability.residual_warnings", "count")
    timed("threshold.min_control_us", "threshold.min_control", 1e6, "us")
    mean("threshold.bisect_iterations", "threshold.bisect_iterations", "count")
    timed("threshold.r0_profile_us", "threshold.r0_profile", 1e6, "us")
    timed("report.build_report_ms", "report.build_report", 1e3, "ms")
    timed("report.render_json_us", "report.render_json", 1e6, "us")
    timed("scenario.parse_us", "scenario.parse", 1e6, "us")
    timed("scenario.render_us", "scenario.render", 1e6, "us")
    return out


def print_table(rows: list[tuple[str, float, str, int, str]]) -> None:
    print(f"  {'metric':34s} {'value':>16s} {'unit':14s} samples")
    for name, value, unit, n, note in rows:
        print(f"  {name:34s} {value:16.6g} {unit:14s} {n} {note}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=None,
                    help=f"fewest ops of the timed loop (default {MIN_OPS}, "
                         f"{TRACE_MIN_OPS} when tracing)")
    ap.add_argument("--save", metavar="DIR", help="also write the result record to DIR")
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cpu = pin_environment()

    if not (SRC / "dengue_control" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    sys.path.insert(0, str(SRC))
    import dengue_control
    if Path(dengue_control.__file__).resolve().parent != SRC / "dengue_control":
        print(f"error: imported dengue_control from {dengue_control.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    started = time.time()
    env = run_env(args.seed, cpu)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, ROOT)
        if not args.trace:
            setup_times, setup_starts = measure_setup(args.workload, args.seed, workdir)
        inputs = wl.build(args.seed, workdir)
        reference = reference_spawn if args.workload == "cli-mix" else reference_kernel
        n_oracle, problems = wl.oracle(inputs, args.seed)
        if args.trace:
            min_ops = TRACE_MIN_OPS if args.min_ops is None else args.min_ops
            plain, plain_refs, bad, n_ops = timed_loop(
                wl, inputs, tracing.NullTracer(), reference, args.seconds * TRACE_SHARE, min_ops)
            problems += bad
            tr = tracing.Tracer()
            traced, traced_refs, bad, _ = timed_loop(wl, inputs, tr, reference, 0.0, 0,
                                                     count=n_ops)
            problems += bad
            n_ops *= 2
            own = layer_metrics(tr)
            probe_tr = tracing.Tracer()
            with warnings.catch_warnings(), probe_tr.op(0):
                warnings.simplefilter("ignore")
                workloads.probe(probe_tr)
            others = layer_metrics(probe_tr)
            starts = {name: (value, "ms", START_REPEATS)
                      for name, value in measure_process_start().items()}
            # Process start is the workload's own layer where its ops spawn
            # interpreters.
            (own if args.workload == "cli-mix" else others).update(starts)
            overhead = (statistics.median(t / r for t, r in zip(traced, traced_refs))
                        / statistics.median(t / r for t, r in zip(plain, plain_refs)))
            own["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
            own["trace.ref_us"] = (statistics.median(traced_refs) * 1e6, "us", len(traced))
            # Every traced run reports every layer metric: from its own ops
            # where they reach the layer, else from the probe.
            metrics = {name: own.get(name, value) for name, value in others.items()}
            metrics.update(own)
            probed = set(metrics) - set(own)
            extra = {}
            tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", TRACE_KEEP_OPS,
                     {"workload": args.workload, "env": env})
        else:
            min_ops = MIN_OPS if args.min_ops is None else args.min_ops
            setup_ratios = [t / (0.5 * (a + b))
                            for t, a, b in zip(setup_times, setup_starts, setup_starts[1:])]
            times, refs, bad, n_ops = timed_loop(
                wl, inputs, tracing.NullTracer(), reference, args.seconds, min_ops)
            problems += bad
            rss_kb = getattr(wl, "peak_rss_kb", None) \
                or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            units = [t / r for t, r in zip(times, refs)]
            n = len(times)
            metrics = {
                "ops_per_ref": (n / sum(units), "1/ref", n),
                "op_p50_ref": (statistics.median(units), "ref", n),
                "op_p90_ref": (p90(units), "ref", n),
                "ok_ratio": (1.0 - len(problems) / (n_ops + n_oracle), "ratio", n_ops + n_oracle),
                "setup_s": (statistics.median(setup_ratios) * NOMINAL_START_S, "s",
                            SETUP_REPEATS),
                "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
            }
            probed = set()
            extra = {
                "ops_per_s": (n / sum(times), "1/s", n),
                "op_p50_ms": (statistics.median(times) * 1e3, "ms", n),
                "op_p90_ms": (p90(times) * 1e3, "ms", n),
                "ref_ms": (statistics.median(refs) * 1e3, "ms", n),
                "setup_wall_s": (statistics.median(setup_times), "s", SETUP_REPEATS),
                "python_start_s": (statistics.median(setup_starts), "s", SETUP_REPEATS + 1),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = n_ops + n_oracle
    extra["fail_ratio"] = (len(problems) / attempted, "ratio", attempted)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("env " + json.dumps(env, sort_keys=True))
    print_table([(name, value, unit, n, "(probe)" if name in probed else "")
                 for name, (value, unit, n) in metrics.items()]
                + [(name, value, unit, n, "(not gated)") for name, (value, unit, n) in extra.items()])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    if args.save:
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "started": started, "env": env,
                  "samples": {name: n for name, (_, _, n) in metrics.items()},
                  "probe_metrics": sorted(probed),
                  "extra": {name: {"value": value, "unit": unit}
                            for name, (value, unit, _) in extra.items()},
                  "result": result}
        (save / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
         ).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
