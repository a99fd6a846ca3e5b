"""CI perf-regression gate: diff smoke ``BENCH_*.json`` against baselines.

Every CI run regenerates the smoke benchmark reports; this script compares
them against the committed baselines in ``benchmarks/results/`` and fails
(non-zero exit) when a gated metric regresses beyond its tolerance band.

Three rule modes, chosen per metric by how it is measured:

``flag``
    The candidate value must be truthy.  Used for correctness bits the
    benchmarks compute (byte-identity, invariant checks) — no tolerance.
``min``
    The candidate value must be at least ``floor``.  Used for
    machine-independent *ratios* measured within a single run (the decode
    vectorization speedup, the prefill kernel's sparse efficiency), where an
    absolute floor is meaningful on any runner.
``rel``
    The candidate may be worse than the committed baseline value by at most
    ``tol * |baseline| + slack`` in the metric's bad direction (``worse`` is
    ``"lower"`` or ``"higher"``).  Used for virtual-clock metrics — they are
    deterministic for a given seed, so drift means the *modeled* system
    changed; the band absorbs intentional modeling tweaks while catching
    real regressions.

Absolute wall-clock throughputs (tokens/sec on the runner) are never gated —
they measure the machine, not the code; they ride along in the uploaded
artifact as the perf trajectory.

An intentional regression lands by either updating the committed baseline
JSON in the same PR or applying the ``perf-regression-ok`` label, which
skips this gate (see ``.github/workflows/ci.yml`` and docs/performance.md).

Run with::

    PYTHONPATH=src python benchmarks/perf_gate.py --candidate-dir .
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "results"

# The decode-vectorization speedup floor: 3.0x nominal (the refactor's
# acceptance bar, comfortably met on a quiet machine) minus an allowance for
# bursty shared-runner noise that survives the benchmark's per-step-median
# estimator.  Left at 2.5 when the decode step went batch-major (page-resident
# K_stats, slot-arena streaming heads): ten smoke runs read 2.70-3.54, and
# 0.85 x the lowest is 2.30 — the same change made the *sequential* reference
# a quarter faster (its batches of one share the kernels), so the in-run ratio
# rose less than the batched step fell (14.5-15.7 -> 10.6-11.9 ms).
SPEEDUP_FLOOR = 2.5

# Measured Fig. 12: the half-streaming prefill kernel's speedup over the
# all-dense one, as a share of the theoretical 1 / (1 - block sparsity).
# Measured 0.86-0.93 at the smoke context; the floor leaves room for runner
# noise between the two interleaved medians and trips when skipped tiles
# start costing time again.
SPARSE_EFFICIENCY_FLOOR = 0.75

# fmt: off
RULES: dict[str, list[dict]] = {
    "BENCH_hotpath.json": [
        {"path": "checks.byte_identical_batched_decode", "mode": "flag"},
        {"path": "results[*].byte_identical", "mode": "flag"},
        {"path": "results[0].speedup", "mode": "min", "floor": SPEEDUP_FLOOR},
        {"path": "prefill.sparse_efficiency", "mode": "min",
         "floor": SPARSE_EFFICIENCY_FLOOR},
    ],
    "BENCH_serving_slo.json": [
        {"path": "results[*].slo_attainment", "mode": "rel", "worse": "lower",
         "tol": 0.05, "slack": 0.02},
        {"path": "results[*].preemptions", "mode": "rel", "worse": "higher",
         "tol": 0.25, "slack": 2},
        {"path": "results[*].throughput_tokens_s", "mode": "rel",
         "worse": "lower", "tol": 0.25, "slack": 1.0},
    ],
    "BENCH_async_serving.json": [
        {"path": "results[*].byte_identical", "mode": "flag"},
        {"path": "results[*].preemptions", "mode": "rel", "worse": "higher",
         "tol": 0.25, "slack": 2},
    ],
    "BENCH_cluster_routing.json": [
        {"path": "checks.byte_identical_cluster_outputs", "mode": "flag"},
        {"path": "checks.prefix_affinity_fewer_prefill_tokens_than_round_robin",
         "mode": "flag"},
        {"path": "results[*].slo_attainment", "mode": "rel", "worse": "lower",
         "tol": 0.05, "slack": 0.02},
        {"path": "results[*].p99_ttft_s", "mode": "rel", "worse": "higher",
         "tol": 0.25, "slack": 0.05},
    ],
    "BENCH_disaggregation.json": [
        {"path": "checks.byte_identical_outputs", "mode": "flag"},
        {"path": "checks.zero_leaked_pages_after_migration", "mode": "flag"},
        {"path": "results[*].slo_attainment", "mode": "rel", "worse": "lower",
         "tol": 0.05, "slack": 0.02},
        {"path": "results[*].chat_p99_tpot_s", "mode": "rel", "worse": "higher",
         "tol": 0.25, "slack": 0.01},
    ],
    "BENCH_prefix_cache.json": [
        {"path": "checks.byte_identical_all", "mode": "flag"},
        {"path": "checks.zero_leaked_pages", "mode": "flag"},
        {"path": "results[*].prefill_reduction_x", "mode": "rel",
         "worse": "lower", "tol": 0.05, "slack": 0.05},
    ],
    "BENCH_kv_tiering.json": [
        {"path": "offload_byte_identity.byte_identical", "mode": "flag"},
        {"path": "results[*].tiered_preemptions", "mode": "rel",
         "worse": "higher", "tol": 0.25, "slack": 2},
        # Virtual-clock cells: the restore bill (a parked hand-off's modeled
        # transfer) and what tiering buys in SLO attainment.
        {"path": "results[*].tiered_mean_restore_ms", "mode": "rel",
         "worse": "higher", "tol": 0.05, "slack": 0.01},
        {"path": "results[*].tiered_slo_attainment", "mode": "rel",
         "worse": "lower", "tol": 0.05, "slack": 0.02},
    ],
    "BENCH_speculative.json": [
        {"path": "checks.byte_identical_all", "mode": "flag"},
        {"path": "checks.zero_leaked_pages", "mode": "flag"},
        {"path": "checks.speedup_at_acceptance_0_6", "mode": "flag"},
        {"path": "verification[*].byte_identical", "mode": "flag"},
        # Every gated latency cell runs at acceptance >= 0.6, so the ISSUE's
        # "end-to-end decode speedup" bar is an absolute floor — the virtual
        # clock makes the ratio machine-independent.
        {"path": "results[*].decode_speedup", "mode": "min", "floor": 1.0},
        {"path": "results[*].decode_speedup", "mode": "rel", "worse": "lower",
         "tol": 0.05, "slack": 0.05},
        {"path": "results[*].tpot_speedup", "mode": "rel", "worse": "lower",
         "tol": 0.05, "slack": 0.05},
        # Saturated-batch cells all run at acceptance >= 0.6, so fused batch
        # verification beating plain decode_batch is an absolute floor, not
        # just a no-regression diff (the PR 10 acceptance bar).
        {"path": "checks.fused_beats_plain_saturated", "mode": "flag"},
        {"path": "saturated[*].fused_beats_plain", "mode": "flag"},
        {"path": "saturated[*].fused_speedup_vs_plain", "mode": "min",
         "floor": 1.0},
        {"path": "saturated[*].fused_speedup_vs_plain", "mode": "rel",
         "worse": "lower", "tol": 0.05, "slack": 0.05},
        # "Unfused" is the benchmark's own reference (verify_per_member: one
        # decode_speculative_batch call per member, each billed its own weight
        # pass) — the serving engine no longer has a per-sequence verify path.
        {"path": "saturated[*].fused_speedup_vs_unfused", "mode": "rel",
         "worse": "lower", "tol": 0.05, "slack": 0.05},
        # The real-engine wall columns stay ungated.  Each cell is one
        # unrepeated timing of a ~1 s run: verification[*].
        # prerecorded_wall_speedup (acceptance 1.0) read >= 1.0 in 28 of 30
        # cells over ten smokes before verify went in place and in 20 of 30
        # after (lowest 0.767), short of the every-cell-of-every-run bar a
        # 1.0 floor needs;
        # ngram_wall_speedup cannot win on random weights (acceptance
        # 0.04-0.14).  Readings: docs/speculative.md.
    ],
}
# fmt: on

_STEP = re.compile(r"^(\w+)(?:\[(\*|\d+)\])?$")


def resolve(obj: object, path: str) -> list[tuple[str, object]]:
    """Resolve a dotted path (with ``[i]`` / ``[*]`` list steps) to values.

    Returns ``(concrete_path, value)`` pairs — one pair per ``[*]`` fan-out —
    so violations can name the exact leaf.  A missing key raises ``KeyError``
    (reported as a schema violation), *except* on branches produced by a
    ``[*]`` fan-out: sweep rows are heterogeneous (different scenarios carry
    different metrics), so a wildcard row without the leaf is silently
    pruned rather than failing the gate.
    """
    found: list[tuple[str, object, bool]] = [("", obj, False)]
    for step in path.split("."):
        match = _STEP.match(step)
        if match is None:
            raise KeyError(f"bad path step {step!r}")
        name, index = match.group(1), match.group(2)
        advanced: list[tuple[str, object, bool]] = []
        for prefix, node, from_wildcard in found:
            if not isinstance(node, dict) or name not in node:
                if from_wildcard:
                    continue
                raise KeyError(f"{prefix or '<root>'} has no key {name!r}")
            value = node[name]
            where = f"{prefix}.{name}" if prefix else name
            if index is None:
                advanced.append((where, value, from_wildcard))
                continue
            if not isinstance(value, list):
                raise KeyError(f"{where} is not a list")
            if index == "*":
                advanced.extend(
                    (f"{where}[{i}]", item, True) for i, item in enumerate(value)
                )
            else:
                advanced.append((f"{where}[{index}]", value[int(index)], from_wildcard))
        found = advanced
    return [(where, value) for where, value, _ in found]


def check_rule(rule: dict, candidate: dict, baseline: dict | None) -> list[str]:
    """Evaluate one rule; return human-readable violation strings."""
    mode = rule["mode"]
    try:
        cand = resolve(candidate, rule["path"])
    except KeyError as exc:
        return [f"candidate missing gated metric {rule['path']}: {exc}"]

    if mode == "flag":
        return [f"{where} is not truthy (got {value!r})" for where, value in cand if not value]

    if mode == "min":
        floor = rule["floor"]
        return [
            f"{where} = {value} is below the floor {floor}"
            for where, value in cand
            if not (isinstance(value, (int, float)) and value >= floor)
        ]

    if mode == "rel":
        if baseline is None:
            return [f"no committed baseline to compare {rule['path']} against"]
        try:
            base = resolve(baseline, rule["path"])
        except KeyError as exc:
            return [f"baseline missing gated metric {rule['path']}: {exc}"]
        cand_map, base_map = dict(cand), dict(base)
        if set(cand_map) != set(base_map):
            return [
                f"{rule['path']}: candidate rows {sorted(cand_map)} do not match "
                f"baseline rows {sorted(base_map)} — sweep shape changed, "
                f"update the baseline JSON"
            ]
        violations = []
        for where, c in cand:
            b = base_map[where]
            band = rule["tol"] * abs(b) + rule["slack"]
            worse_by = (b - c) if rule["worse"] == "lower" else (c - b)
            if worse_by > band:
                violations.append(
                    f"{where} = {c} regressed past baseline {b} "
                    f"(worse by {worse_by:.4g}, allowed {band:.4g})"
                )
        return violations

    raise ValueError(f"unknown rule mode {mode!r}")


def main(argv: list[str] | None = None) -> int:
    """Compare candidate reports against baselines; return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--candidate-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly generated BENCH_*.json reports",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help="directory holding the committed baseline BENCH_*.json reports",
    )
    args = parser.parse_args(argv)

    all_violations: list[str] = []
    checked = 0
    for filename, rules in sorted(RULES.items()):
        cand_path = args.candidate_dir / filename
        if not cand_path.exists():
            all_violations.append(f"{filename}: candidate report not generated")
            continue
        candidate = json.loads(cand_path.read_text(encoding="utf-8"))
        base_path = args.baseline_dir / filename
        baseline = (
            json.loads(base_path.read_text(encoding="utf-8"))
            if base_path.exists()
            else None
        )
        for rule in rules:
            problems = check_rule(rule, candidate, baseline)
            checked += 1
            tag = f"{filename}: {rule['path']} [{rule['mode']}]"
            if problems:
                all_violations.extend(f"{tag}: {p}" for p in problems)
                print(f"FAIL {tag}")
            else:
                print(f"ok   {tag}")

    print(f"\n{checked} gated metrics checked, {len(all_violations)} violation(s)")
    if all_violations:
        print("\nPerf gate violations:")
        for violation in all_violations:
            print(f"  - {violation}")
        print(
            "\nIf intentional: update the baseline JSON under benchmarks/results/ "
            "in this PR, or apply the 'perf-regression-ok' label to skip the gate."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
