"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that ``run.py --save DIR`` writes.  Only
untraced runs count.  Per workload, the i-th parent run and the i-th change
run in start order form pair i; run the two sides alternately, so each pair
is measured under the same conditions (README.md shows a loop).  For each
end-to-end metric of BENCHMARK.json the verdict is:

  gain        at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ, in the
              better direction, by more than the parent's interquartile range
  unresolved  the parent's spread (interquartile range over median) exceeds
              the metric's bound, and not every change run beats every
              parent run
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  same        none of the above

It prints one row per workload, then the figures behind each verdict, and
exits with status 1 when any metric regresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, dict]:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    facts = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "pairs": len(pairs),
             "wins": wins, "worse": worse, "spread": spread}
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and sign * (cm - pm) > p3 - p1:
        return "gain", facts
    if spread > bound and not all_better:
        return "unresolved", facts
    if worse > bound:
        return "REGRESSION", facts
    return "same", facts


def alternation(parent: list[dict], change: list[dict]) -> int:
    """Number of pairs in which the parent ran first."""
    return sum(1 for p, c in zip(parent, change) if p["started"] < c["started"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent_runs, change_runs = load(args.parent), load(args.change)
    workloads = [w for w in parent_runs if w in change_runs]
    if not workloads:
        print("error: no workload has untraced runs on both sides", file=sys.stderr)
        return 2

    names = [m["name"] for m in metrics]
    print("verdict and median change, + where the change is better")
    print("workload".ljust(18) + "".join(n.rjust(22) for n in names))
    details = []
    regressed = False
    for w in workloads:
        parent, change = parent_runs[w], change_runs[w]
        cells = []
        for m in metrics:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in change]
            v, facts = verdict(m, pv, cv)
            regressed |= v == "REGRESSION"
            cells.append(f"{v} {-facts['worse']:+.1%}")
            details.append((w, m, v, facts))
        print(w.ljust(18) + "".join(c.rjust(22) for c in cells))
        n = min(len(parent), len(change))
        first = alternation(parent, change)
        if n < MIN_PAIRS or abs(2 * first - n) > 1:
            print(f"  note: {n} pairs, parent ran first in {first}; a gain needs "
                  f">= {MIN_PAIRS} alternating pairs")

    print()
    print("workload          metric        verdict      parent q1/med/q3 -> change q1/med/q3"
          "   wins/pairs  spread  bound")
    for w, m, v, f in details:
        p, c = f["parent"], f["change"]
        print(f"{w:17s} {m['name']:13s} {v:12s} "
              f"{p[0]:.4g}/{p[1]:.4g}/{p[2]:.4g} -> {c[0]:.4g}/{c[1]:.4g}/{c[2]:.4g}"
              f"   {f['wins']}/{f['pairs']}  {f['spread']:.3f}  {m['bound']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
