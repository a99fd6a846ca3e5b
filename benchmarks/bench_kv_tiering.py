"""Arrival-rate sweep: cold KV tiering on vs. off at a fixed pool size.

For each arrival-rate multiplier, the *same* seeded workload trace is served
twice through the ``ServingEngine`` on the LServe cost-model backend under an
identically sized KV-constrained scheduler — once with the cold tier disabled
(pressure victims are recompute-preempted) and once with ``"offload"``
tiering enabled (victims are demoted to the host tier and restored by a
modeled PCIe transfer).  Each cell is *checked*, not just reported:

* tiering strictly reduces the preemption count at every swept rate
  (demotions replace preemptions one for one or better);
* SLO attainment with tiering is no worse than the baseline at the same
  pool size;
* both runs drain completely — zero leaked pages in the hot tier **and**
  the cold tier.

A final paired run on the real tiny-model ``LServeBackend`` asserts the
offload round trip is **byte-identical** to an unconstrained run.

Run with::

    PYTHONPATH=src python benchmarks/bench_kv_tiering.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kv_tiering.py --smoke    # CI smoke

The JSON report is written to ``benchmarks/results/BENCH_kv_tiering.json``
(override with ``--output``); CI uploads it as a workflow artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    KVTieringConfig,
    LServeBackend,
    Request,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    scenario,
)

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_kv_tiering.json"

#: Tight enough that the swept rates overcommit the pool and trigger
#: watermark evictions, while still admitting the chat scenario's largest
#: single request (9 216 KV tokens).
KV_CAPACITY = 10_240


def assert_drained(engine: ServingEngine) -> None:
    """Zero-leak audit over both tiers (cost-model backend)."""
    in_use = engine.backend.kv_tokens_in_use()
    assert in_use == 0, f"leaked {in_use} hot-tier KV tokens"
    cold = engine.cold_store
    if cold is not None:
        assert cold.num_pages == 0, f"leaked {cold.num_pages} cold-tier pages"


def serve(requests, tiering, batch: int) -> tuple[ServingEngine, object]:
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    engine = ServingEngine(
        SimulatedBackend(latency, tiering=tiering),
        SchedulerConfig(
            max_batch_size=batch,
            kv_token_capacity=KV_CAPACITY,
            kv_high_watermark=KV_CAPACITY - 256,
            kv_low_watermark=int(0.75 * KV_CAPACITY),
        ),
    )
    metrics = engine.run(list(requests))
    assert_drained(engine)
    return engine, metrics


def run_cell(rate_multiplier: float, n_requests: int, seed: int, batch: int) -> dict:
    """Serve one seeded trace with tiering off and on; check the invariants."""
    spec = scenario("chat")
    spec = dataclasses.replace(spec, arrival_rate_rps=spec.arrival_rate_rps * rate_multiplier)
    if spec.max_kv_tokens() > KV_CAPACITY:
        raise ValueError(
            f"the scenario can emit a {spec.max_kv_tokens()}-token request but "
            f"the KV pool is only {KV_CAPACITY} tokens"
        )
    requests = WorkloadGenerator(spec, seed=seed).generate(n_requests)

    base_engine, base = serve(requests, None, batch)
    tiered_engine, tiered = serve(requests, KVTieringConfig(mode="offload"), batch)

    base_preempt = base.total_preemptions()
    tiered_preempt = tiered.total_preemptions()
    base_slo = base.slo_attainment(spec.ttft_slo_s, spec.tpot_slo_s)
    tiered_slo = tiered.slo_attainment(spec.ttft_slo_s, spec.tpot_slo_s)

    assert base_preempt >= 1, (
        f"rate x{rate_multiplier}: the baseline never preempted — the sweep "
        "does not exercise pool pressure; raise the rate or shrink the pool"
    )
    assert tiered_preempt < base_preempt, (
        f"rate x{rate_multiplier}: tiering must strictly reduce preemptions "
        f"({tiered_preempt} vs {base_preempt})"
    )
    assert tiered_engine.scheduler.total_demotions >= 1
    assert tiered_slo >= base_slo, (
        f"rate x{rate_multiplier}: SLO attainment regressed with tiering on "
        f"({tiered_slo:.4f} vs {base_slo:.4f}) at the same pool size"
    )

    return {
        "rate_multiplier": rate_multiplier,
        "arrival_rate_rps": spec.arrival_rate_rps,
        "requests": n_requests,
        "kv_token_capacity": KV_CAPACITY,
        "baseline_preemptions": base_preempt,
        "tiered_preemptions": tiered_preempt,
        "tiered_demotions": tiered_engine.scheduler.total_demotions,
        "tiered_restored_pages": tiered.total_restored_pages(),
        "tiered_mean_restore_ms": tiered.mean_restore_ms(),
        "baseline_slo_attainment": base_slo,
        "tiered_slo_attainment": tiered_slo,
        "baseline_p99_ttft_s": base.percentile_ttft_s(99),
        "tiered_p99_ttft_s": tiered.percentile_ttft_s(99),
        "baseline_mean_queueing_delay_s": base.mean_queueing_delay_s(),
        "tiered_mean_queueing_delay_s": tiered.mean_queueing_delay_s(),
    }


def check_offload_byte_identity() -> dict:
    """Real-model spot check: offload round trips are bit-exact.

    Runs a small trace through the tiny-model ``LServeBackend`` twice —
    unconstrained, and KV-constrained with offload tiering — and asserts the
    constrained run demoted at least once yet produced identical token ids.
    """
    model = TinyTransformer(tiny_model_config(), seed=11)

    def make_engine(**sched) -> ServingEngine:
        backend = LServeBackend(
            LServeEngine(
                model,
                LServeConfig(
                    streaming_head_ratio=0.5,
                    dynamic_sparsity_enabled=True,
                    kv_bits=8,
                    physical_page_size=16,
                    logical_page_size=4,
                    sink_tokens=16,
                    local_tokens=32,
                    q_block_size=16,
                    token_budget=64,
                    reuse_interval=4,
                ),
                streaming_kv_heads=np.array([False, True]),
                num_cache_pages=512,
            ),
            tiering=KVTieringConfig(mode="offload") if "kv_high_watermark" in sched else None,
        )
        return ServingEngine(backend, SchedulerConfig(max_batch_size=4, **sched))

    def trace():
        return [
            Request.from_prompt(
                f"r{i}",
                (np.arange(48) * (i * 2 + 3)) % model.config.vocab_size,
                max_new_tokens=24,
                arrival_time_s=0.001 * i,
            )
            for i in range(5)
        ]

    free = make_engine(kv_token_capacity=100_000)
    free.run(trace())
    tiered = make_engine(
        kv_token_capacity=110, kv_high_watermark=100, kv_low_watermark=60
    )
    tiered_metrics = tiered.run(trace())

    assert tiered.scheduler.total_demotions >= 1, "the constrained run never demoted"
    for req in trace():
        rid = req.request_id
        assert tiered.handle(rid).output_tokens == free.handle(rid).output_tokens, (
            f"offload round trip changed the output of {rid}"
        )
    allocator = tiered.backend.engine.cache.dense_cache.allocator
    assert allocator.num_allocated == 0, "leaked hot-tier pages"
    assert tiered.cold_store.num_pages == 0, "leaked cold-tier pages"
    return {
        "byte_identical": True,
        "demotions": tiered.scheduler.total_demotions,
        "restored_pages": tiered_metrics.total_restored_pages(),
    }


def format_table(rows: list[dict]) -> str:
    """Render the sweep as an aligned text table."""
    header = (
        f"{'xrate':>6}{'preempt(off)':>14}{'preempt(on)':>13}{'demote':>8}"
        f"{'SLO%(off)':>11}{'SLO%(on)':>10}{'restore ms':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['rate_multiplier']:>6.2g}{r['baseline_preemptions']:>14d}"
            f"{r['tiered_preemptions']:>13d}{r['tiered_demotions']:>8d}"
            f"{100 * r['baseline_slo_attainment']:>10.1f}%"
            f"{100 * r['tiered_slo_attainment']:>9.1f}%"
            f"{r['tiered_mean_restore_ms']:>12.3f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """Run the sweep, check the invariants, and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI-sized sweep (2 rates, 32 requests per cell)",
    )
    parser.add_argument(
        "--rates",
        default=None,
        help="comma-separated arrival-rate multipliers of the chat preset's base rate",
    )
    parser.add_argument("--n", type=int, default=None, help="requests per cell")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--batch", type=int, default=16, help="max batch size")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    rates = [2.0, 4.0] if args.smoke else [2.0, 4.0, 8.0]
    n_requests = 32 if args.smoke else 96
    if args.rates:
        rates = [float(r) for r in args.rates.split(",")]
    if args.n:
        n_requests = args.n

    rows = [run_cell(rate, n_requests, args.seed, args.batch) for rate in rates]
    identity = check_offload_byte_identity()

    print(format_table(rows))
    print(
        f"\noffload byte-identity (tiny LServe): OK "
        f"({identity['demotions']} demotions, {identity['restored_pages']} pages restored)"
    )
    report = {
        "benchmark": "kv_tiering",
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "max_batch_size": args.batch,
        "kv_token_capacity": KV_CAPACITY,
        "offload_byte_identity": identity,
        "results": rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {args.output}]")


if __name__ == "__main__":
    main()
