"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

A tiny run of every workload, untraced and traced, must pass all its
checks and print exactly the metric names and units of BENCHMARK.json.  A
copy of the benchmark without the package source next to it must exit
with a non-zero status and print no result.  Takes under a minute; pytest
does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                      "--trace", str(trace), "--min-ops", "3"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = last_json(proc.stdout)
            label = f"{workload} trace {trace}"
            before = len(failures)
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units)} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: checks failed: {proc.stderr[-300:]!r}")
            print(f"{'ok  ' if len(failures) == before else 'FAIL'} {label}: "
                  f"{result['attempted']} attempted")

    bare = BENCH_DIR / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH_DIR.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        cmd = bench["command"] + ["--workload", "sim-long", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            failures.append("without the package source the benchmark did not fail")
        print(f"{'ok  ' if proc.returncode else 'FAIL'} no package source: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
