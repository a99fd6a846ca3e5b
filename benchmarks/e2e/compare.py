"""Compare sets of end-to-end benchmark results, one row per workload and metric.

    python benchmarks/e2e/compare.py --base out/a1.json out/a2.json out/a3.json \\
                                     --new  out/b1.json out/b2.json out/b3.json

Each file is a result ``run.py`` wrote.  Per workload and end-to-end metric
the table gives both medians, the new median as a ratio of the base median
(the base is always printed beside it) and a verdict:

``ok``          the new median is not worse than the base by more than the metric's bound;
``regressed``   it is;
``unresolved``  the runs of one side disagree among themselves by more than
                the bound (distance between quartiles, or between extremes
                with fewer than four runs, as a share of the median), or a
                run was ``unsettled`` - no verdict either way.

Two sets of runs of the *same* code must come out ``ok`` everywhere: that is
how the benchmark's own run-to-run error is checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from metrics import END_TO_END


def spread(values: list[float]) -> float:
    """Quartile distance (extremes below four values) as a share of the median."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(mid)


def verdict(base: list[float], new: list[float], better: str, bound: float, settled: bool) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one workload and metric."""
    if not settled or spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    return "regressed" if worse_by > bound else "ok"


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))["workloads"] for p in paths]


def compare(base: list[dict], new: list[dict]) -> list[dict]:
    """One row per workload (in both sets) and end-to-end metric."""
    rows = []
    for workload in base[0]:
        runs_b = [r[workload] for r in base if workload in r]
        runs_n = [r[workload] for r in new if workload in r]
        if not runs_n:
            continue
        settled = all(r["calib"]["state"] == "settled" for r in runs_b + runs_n)
        for name, unit, better, bound in END_TO_END:
            vb = [r["end_to_end"][name] for r in runs_b]
            vn = [r["end_to_end"][name] for r in runs_n]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "base": statistics.median(vb),
                    "new": statistics.median(vn),
                    "ratio": statistics.median(vn) / statistics.median(vb),
                    "spread_base": spread(vb),
                    "spread_new": spread(vn),
                    "bound": bound,
                    "verdict": verdict(vb, vn, better, bound, settled),
                }
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True, help="result files of the base side")
    parser.add_argument("--new", type=Path, nargs="+", required=True, help="result files of the other side")
    args = parser.parse_args()
    rows = compare(load(args.base), load(args.new))
    print(f"base: {len(args.base)} runs, new: {len(args.new)} runs")
    print(f"{'workload':<13}{'metric':<16}{'base median':>14}{'new median':>14} {'unit':<6}"
          f"{'new/base':>9}{'spread b':>9}{'spread n':>9}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<13}{r['metric']:<16}{r['base']:>14.4f}{r['new']:>14.4f} {r['unit']:<6}"
              f"{r['ratio']:>9.3f}{r['spread_base']:>9.3f}{r['spread_new']:>9.3f}{r['bound']:>7.2f}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(f"{len(rows) - len(bad)} ok, {sum(r['verdict'] == 'regressed' for r in bad)} regressed, "
          f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
