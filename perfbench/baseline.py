"""Print the per-layer rows of the ROADMAP Baseline table from traced runs.

    python3 perfbench/baseline.py

Runs ``run.py --trace 1`` once per workload, seed 1, for BENCHMARK.json's
``run_seconds``, and prints one markdown row per
layer metric that the workload's own ops measured.  Metrics a run took from
its layer probe are left out, so each row names the workload it comes from.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    save = BENCH_DIR / "out" / f"baseline-{time.time_ns()}"
    try:
        rows = []
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                                      "--seconds", str(seconds), "--trace", "1",
                                      "--save", str(save)]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            (path,) = save.glob(f"{workload}-*.json")
            record = json.loads(path.read_text(encoding="utf-8"))
            for name, m in record["result"]["metrics"].items():
                if name not in record["probe_metrics"]:
                    rows.append(f"| `{name}` ({workload}) | {m['value']:.4g} {m['unit']} |")
        env = record["env"]
        print(f"Traced runs, seed {SEED}, {seconds} s each: Python {env['python']}, "
              f"numpy {env['numpy']}, {env['cpus']} CPUs, git {env['git_sha'][:12]}.")
        print()
        print("| layer | value |")
        print("|---|---|")
        print("\n".join(rows))
    finally:
        shutil.rmtree(save, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
