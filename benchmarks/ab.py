"""A/B the end-to-end benchmark of this tree against a git ref, with a fixed claim rule.

    python benchmarks/ab.py --base REF --workload W [--pairs 10] [--seeds A-B] [--trace]
    python benchmarks/ab.py --base HEAD --workload chat_http --smoke
    python benchmarks/ab.py --self-test

Exports ``REF``'s ``src/`` and ``benchmarks/`` into a temporary directory
(``git archive``, as ``digest_diff.py`` does) and runs each tree's own
``benchmarks/e2e/run.py --workload W --seed S --seconds 8 --trace 0`` once
per seed (``--seconds`` is ``BENCHMARK.json``'s ``run_seconds``), the two
trees of a pair back to back; which tree runs first alternates from pair to
pair.  It prints every run, then per end-to-end metric both medians and
quartiles, the ratio of the medians, the pairs the change wins, the claim
verdict below, and ``compare.py``'s verdict against the metric's
``BENCHMARK.json`` bound.

The claim rule (:func:`claim`), one for every ``perf_opt`` change:

* at least ``MIN_PAIRS`` pairs were run;
* the change wins at least 9 in 10 of them (a tie counts for neither side);
* its median beats the base's by more than the base's quartile distance.

Every run's line shows its ``calib.ref_ms``, the fastest reading of the
benchmark's calibration kernel in that run.  After the table come the pairs
in which either side's reading is more than the guard's ``TOLERANCE`` above
the series' fastest (:func:`drifted_pairs`): the machine ran at another
speed for them, which widens the quartiles the claim is judged by.  They are
listed, not dropped; the claim rule and the exit status ignore them.

``--trace`` adds one traced pair (``--trace 1``, the first seed) and prints
the per-layer rows whose value moved by more than ``MOVED`` between the two
trees.  ``--smoke`` runs the benchmark's one shrunken block per run instead
(no machine-state guard, so every ``compare.py`` cell reads ``unresolved``);
it checks that both trees run, not what they measure.

The exit status is 1 when a run fails (non-zero exit, no result line, wrong
outputs or failed requests) or a ``compare.py`` cell reads ``regressed``,
else 0.  Whether a claim is met is printed, not the exit status.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from digest_diff import ROOT, export_tree

E2E = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

from compare import compare  # noqa: E402
from guard import TOLERANCE  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Fewest pairs a claim may rest on.
MIN_PAIRS = 10
#: The share of pairs the change must win, as a fraction (wins * DEN >= NUM * pairs).
WIN_NUM, WIN_DEN = 9, 10
#: A per-layer row "moved" when the two traced runs differ by more than this share.
MOVED = 0.05
#: The measured seconds per run that ``BENCHMARK.json`` fixes.
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the way ``compare.py`` takes them (``q1 == q3`` below two values)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def claim(base: list[float], new: list[float], better: str) -> dict:
    """The claim rule on paired runs (``base[i]`` and ``new[i]`` ran as one pair)."""
    n = len(base)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b_new - b_base) > 0 for b_base, b_new in zip(base, new))
    q1, mid_base, q3 = quartiles(base)
    gap = sign * (statistics.median(new) - mid_base)
    met = n >= MIN_PAIRS and wins * WIN_DEN >= WIN_NUM * n and gap > q3 - q1
    return {"pairs": n, "wins": wins, "gap": gap, "iqr": q3 - q1, "met": met}


def run_once(tree: Path, workload: str, seed: int, trace: int, smoke: bool) -> dict:
    """One ``run.py`` invocation on ``tree``: its contract line, plus its result file's workload entry."""
    cmd = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"), "--workload", workload, "--trace", str(trace)]
    cmd += ["--smoke"] if smoke else ["--seed", str(seed), "--seconds", str(SECONDS)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return {"ok": False, "exit": done.returncode, "metrics": {}, "result": None, "ref_ms": None}
    tag = ("smoke" if smoke else f"seed{seed}") + f"-{workload}-trace{trace}"
    result_file = tree / "benchmarks" / "e2e" / "out" / f"result-{tag}.json"
    result = json.loads(result_file.read_text(encoding="utf-8"))["workloads"]
    return {
        "ok": done.returncode == 0 and line["correct"] and not line["failed"],
        "exit": done.returncode,
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "result": result,
        "ref_ms": result[workload]["calib"]["ref_ms"],
    }


def run_pairs(base_tree: Path, workload: str, seeds: list[int], trace: int, smoke: bool):
    """Both trees once per seed, the first tree alternating; ``(base runs, new runs)``."""
    trees = {"base": base_tree, "new": ROOT}
    runs: dict[str, list[dict]] = {"base": [], "new": []}
    for i, seed in enumerate(seeds):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            run = run_once(trees[side], workload, seed, trace, smoke)
            runs[side].append(run)
            shown = "  ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()) if not trace else ""
            if run["ref_ms"] is not None:
                shown += f"  calib.ref_ms={run['ref_ms']:.4g}"
            status = "ok" if run["ok"] else f"FAILED (exit {run['exit']})"
            print(f"pair {i + 1:>2} seed {seed:<5} {side:<4} {'first' if side == order[0] else 'second':<6} "
                  f"{status}  {shown}", flush=True)
    return runs["base"], runs["new"]


def print_table(base: list[dict], new: list[dict]) -> list[dict]:
    """Medians, quartiles, ratio, wins and both verdicts per end-to-end metric; returns compare's rows."""
    rows = {r["metric"]: r for r in compare([r["result"] for r in base], [r["result"] for r in new])}
    print(f"\n{'metric':<16}{'base q1':>10}{'median':>10}{'q3':>10}   {'new q1':>10}{'median':>10}{'q3':>10}"
          f"{'new/base':>9}{'wins':>7}  {'claim':<9}compare.py")
    for name, unit, better, _ in END_TO_END:
        vb = [r["metrics"][name] for r in base]
        vn = [r["metrics"][name] for r in new]
        (b1, bm, b3), (n1, nm, n3) = quartiles(vb), quartiles(vn)
        c = claim(vb, vn, better)
        verdict = "met" if c["met"] else ("too few" if c["pairs"] < MIN_PAIRS else "not met")
        print(f"{name:<16}{b1:>10.4g}{bm:>10.4g}{b3:>10.4g}   {n1:>10.4g}{nm:>10.4g}{n3:>10.4g}"
              f"{nm / bm if bm else float('nan'):>9.3f}{c['wins']:>4}/{c['pairs']:<2}  {verdict:<9}"
              f"{rows[name]['verdict'] if name in rows else '-'}  ({unit}, {better} is better)")
    return list(rows.values())


def drifted_pairs(base_ref_ms: list[float | None], new_ref_ms: list[float | None]) -> list[int]:
    """The pairs (from 1) where either side's ``calib.ref_ms`` is more than ``TOLERANCE`` above
    the fastest reading of the whole series; ``[]`` when no run has a reading (``--smoke``)."""
    readings = [ms for ms in base_ref_ms + new_ref_ms if ms is not None]
    if not readings:
        return []
    limit = min(readings) * (1.0 + TOLERANCE)
    return [
        i + 1
        for i, pair in enumerate(zip(base_ref_ms, new_ref_ms))
        if any(ms is not None and ms > limit for ms in pair)
    ]


def print_drift(base: list[dict], new: list[dict]) -> None:
    """The pairs in which the machine read slower than the series' fastest by more than ``TOLERANCE``."""
    refs = [r["ref_ms"] for r in base], [r["ref_ms"] for r in new]
    readings = [ms for ms in refs[0] + refs[1] if ms is not None]
    if not readings:
        return
    drifted = drifted_pairs(*refs)
    print(f"\ncalib.ref_ms: fastest {min(readings):.4g} ms; pairs with a side more than {TOLERANCE:.0%} above it: "
          + (", ".join(f"{i} ({refs[0][i - 1]:.4g} / {refs[1][i - 1]:.4g})" for i in drifted) or "none"))


def print_moved(base: dict, new: dict) -> None:
    """The per-layer rows of one traced pair whose value moved by more than ``MOVED``."""
    moved = []
    for name, unit, better in PER_LAYER:
        b, n = base["metrics"].get(name), new["metrics"].get(name)
        if b is None or n is None or b == n:
            continue
        change = (n - b) / abs(b) if b else float("inf")
        if abs(change) > MOVED:
            moved.append((abs(change), name, unit, better, b, n, change))
    print(f"\nper-layer rows that moved by more than {MOVED:.0%} (one traced pair):")
    print(f"{'metric':<36}{'base':>14}{'new':>14}{'change':>9}  unit")
    for _, name, unit, better, b, n, change in sorted(moved, reverse=True):
        print(f"{name:<36}{b:>14.6g}{n:>14.6g}{change:>+9.1%}  {unit} ({better} is better)")
    if not moved:
        print("(none)")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def self_test() -> int:
    """The claim rule and the drift listing on canned runs; 1 when any verdict is wrong."""
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    cases = [
        ("every pair won, gap past the quartiles", base, [b - 2 for b in base], "lower", True),
        ("higher is better, every pair won", base, [b + 2 for b in base], "higher", True),
        ("the wrong direction", base, [b + 2 for b in base], "lower", False),
        ("nine wins and a tie", base, [b - 2 for b in base[:9]] + [base[9]], "lower", True),
        ("eight wins of ten", base, [b - 2 for b in base[:8]] + [b + 2 for b in base[8:]], "lower", False),
        ("every pair won, gap inside the quartiles", base, [b - 0.05 for b in base], "lower", False),
        ("too few pairs", base[:9], [b - 2 for b in base[:9]], "lower", False),
        ("no change", base, list(base), "lower", False),
    ]
    bad = 0
    for text, b, n, better, want in cases:
        got = claim(b, n, better)["met"]
        bad += got != want
        print(f"{'ok' if got == want else 'WRONG':6}{text}: claim {'met' if got else 'not met'}")
    steady = [3.50, 3.55, 3.48, 3.60, 3.52, 3.49, 3.58, 3.51, 3.54, 3.50]
    drift_cases = [
        ("a steady machine", steady, list(reversed(steady)), []),
        # Both sides' last two pairs read about 30 % faster than the rest.
        ("a series that sped up at pair 9", steady[:8] + [2.70, 2.72], steady[:8] + [2.71, 2.69], list(range(1, 9))),
        ("one slow run on one side", steady, steady[:4] + [4.20] + steady[5:], [5]),
        ("smoke runs carry no reading", [None] * 3, [None] * 3, []),
    ]
    for text, b, n, want in drift_cases:
        got = drifted_pairs(b, n)
        bad += got != want
        print(f"{'ok' if got == want else 'WRONG':6}{text}: drifted pairs {got}")
    total = len(cases) + len(drift_cases)
    print(f"{total - bad} of {total} canned verdicts right")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to compare with (a commit, branch or tag)")
    parser.add_argument("--workload", help="the benchmark workload to run (BENCHMARK.json's names)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"pairs to run (default {MIN_PAIRS})")
    parser.add_argument("--seeds", type=parse_seeds, help="seed range A-B, one pair per seed (overrides --pairs)")
    parser.add_argument("--trace", action="store_true", help="add one traced pair; print the per-layer rows that moved")
    parser.add_argument("--smoke", action="store_true", help="one shrunken block per run: checks the trees run")
    parser.add_argument("--self-test", action="store_true", help="check the claim rule on canned runs and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.workload:
        parser.error("--base and --workload are required")
    seeds = args.seeds or list(range(1, args.pairs + 1))

    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        export_tree(args.base, base_tree)
        print(f"{args.workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, base {args.base}, new {ROOT}",
              flush=True)
        base, new = run_pairs(base_tree, args.workload, seeds, 0, args.smoke)
        failed = [r for r in base + new if not r["ok"]]
        if failed:
            print(f"\n{len(failed)} run(s) failed; no table")
            return 1
        rows = print_table(base, new)
        print_drift(base, new)
        regressed = [r["metric"] for r in rows if r["verdict"] == "regressed"]
        if args.trace:
            (tb,), (tn,) = run_pairs(base_tree, args.workload, seeds[:1], 1, args.smoke)
            if not (tb["ok"] and tn["ok"]):
                print("\nthe traced pair failed")
                return 1
            print_moved(tb, tn)
    if regressed:
        print(f"\nregressed past the bound: {', '.join(regressed)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
