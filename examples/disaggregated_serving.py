"""Disaggregated serving walkthrough: tiered fleets, KV migration, tier metrics.

Runs the prefill/decode disaggregation stack through three acts:

1. **interference shootout** — the same chat + long-document-QA trace on a
   colocated :class:`~repro.serving.ServingCluster` vs a
   :class:`~repro.serving.DisaggregatedCluster` at matched hardware; compare
   chat decode tail latency (p99 TPOT) and the tier-split TTFT/TPOT views;
2. **migration up close** — real-compute (tiny-model) backends: requests
   prefill on one tier, their KV pages migrate through
   ``handoff_out``/``handoff_in`` with a modeled
   :class:`~repro.gpu.cost_model.TransferCostModel` delay, and the outputs
   stay byte-identical to a single-engine reference with zero leaked pages;
3. **tier observability** — the ``/metrics`` rendering with ``tier``-labelled
   series and migration counters.

Run with:  python examples/disaggregated_serving.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.cost_model import TransferCostModel
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    DisaggregatedCluster,
    LServeBackend,
    Request,
    RequestClass,
    SchedulerConfig,
    ServingCluster,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    WorkloadSpec,
)

N_REPLICAS = 4
CHAT, LONGDOC = 0, 1


def interference_spec() -> WorkloadSpec:
    """Interactive chat sharing the fleet with bursty long-document QA."""
    return WorkloadSpec(
        name="disagg-demo",
        arrival_process="poisson",
        arrival_rate_rps=6.0,
        ttft_slo_s=2.0,
        tpot_slo_s=0.08,
        classes=(
            RequestClass(
                name="chat",
                weight=4.0,
                priority=CHAT,
                prompt_median=512,
                prompt_min=128,
                prompt_max=2_048,
                output_median=96,
                output_min=32,
                output_max=192,
            ),
            RequestClass(
                name="long_document_qa",
                weight=1.0,
                priority=LONGDOC,
                prompt_median=32_768,
                prompt_sigma=0.4,
                prompt_min=16_384,
                prompt_max=65_536,
                output_median=48,
                output_min=16,
                output_max=96,
            ),
        ),
    )


async def interference_shootout() -> None:
    """Act 1: matched hardware, colocated vs disaggregated, chat tail latency."""
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    requests = WorkloadGenerator(interference_spec(), seed=0).generate(32)
    config = SchedulerConfig(max_batch_size=8, kv_token_capacity=1 << 20)

    print(f"=== interference shootout: {len(requests)} requests "
          f"(chat + long-doc QA), {N_REPLICAS} replicas each ===")

    colocated = ServingCluster(
        [SimulatedBackend(latency) for _ in range(N_REPLICAS)],
        config,
        routing="least_kv",
    )
    async with colocated:
        await colocated.replay(requests)
        co_metrics = (await colocated.drain()).fleet()

    disagg = DisaggregatedCluster(
        prefill_backends=[SimulatedBackend(latency) for _ in range(N_REPLICAS // 2)],
        decode_backends=[SimulatedBackend(latency) for _ in range(N_REPLICAS // 2)],
        scheduler_config=config,
        transfer_model=TransferCostModel(),
    )
    async with disagg:
        await disagg.replay(requests)
        di_metrics = await disagg.drain()
    fleet = di_metrics.fleet()

    header = f"{'fleet':<15}{'chat p99 TPOT':>15}{'chat mean TPOT':>16}{'migrated pages':>16}"
    print(header)
    print("-" * len(header))
    print(f"{'colocated':<15}{co_metrics.percentile_tpot_s(99, priority=CHAT):>15.4f}"
          f"{co_metrics.mean_time_per_output_token_s(priority=CHAT):>16.4f}{0:>16}")
    print(f"{'disaggregated':<15}{fleet.percentile_tpot_s(99, priority=CHAT):>15.4f}"
          f"{fleet.mean_time_per_output_token_s(priority=CHAT):>16.4f}"
          f"{disagg.migrated_pages_total:>16}")
    print(f"tier split:  prefill mean TTFT "
          f"{di_metrics.tier('prefill').mean_ttft_s():.3f}s | decode mean TPOT "
          f"{di_metrics.tier('decode').mean_time_per_output_token_s() * 1e3:.2f}ms | "
          f"mean transfer {fleet.mean_transfer_ms():.2f}ms")
    print("long prefills never interleave with decode steps on the decode "
          "tier: chat p99 TPOT collapses.\n")


def make_real_backend(model: TinyTransformer) -> LServeBackend:
    engine = LServeEngine(
        model,
        LServeConfig(
            physical_page_size=16,
            logical_page_size=4,
            sink_tokens=16,
            local_tokens=32,
            token_budget=64,
            q_block_size=16,
            kv_bits=16,
        ),
        num_cache_pages=256,
    )
    return LServeBackend(engine)


async def migration_up_close() -> None:
    """Act 2: real KV pages migrate between allocators, byte-identically."""
    model = TinyTransformer(tiny_model_config(), seed=0)
    requests = [
        Request.from_prompt(
            f"r{i}", np.arange(80 + 16 * i) % model.config.vocab_size,
            max_new_tokens=8, arrival_time_s=0.01 * i,
        )
        for i in range(5)
    ]
    reference_engine = ServingEngine(
        make_real_backend(model), SchedulerConfig(max_batch_size=4)
    )
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    print("=== migration up close: 1 prefill + 1 decode replica, real KV ===")
    cluster = DisaggregatedCluster(
        prefill_backends=[make_real_backend(model)],
        decode_backends=[make_real_backend(model)],
        scheduler_config=SchedulerConfig(max_batch_size=4),
    )
    async with cluster:
        handles = await cluster.replay(requests)
        metrics = await cluster.drain()
    outputs = {h.request_id: h.output_tokens for h in handles}

    for record in sorted(metrics.fleet().records, key=lambda r: r.request_id):
        print(f"  {record.request_id}: {record.prompt_tokens} prompt tokens -> "
              f"{record.migrated_pages} pages migrated in {record.transfer_ms:.3f}ms")
    leaked = {
        r.replica_id: r.engine.engine.backend.engine.cache.dense_cache.allocator.num_allocated
        for r in cluster.replicas
    }
    identical = outputs == reference
    print(f"migrations: {cluster.migrations_total}  "
          f"pages: {cluster.migrated_pages_total}  leaked pages: {leaked}")
    print(f"byte-identical to a single-engine reference: {identical}\n")
    assert identical
    assert all(v == 0 for v in leaked.values())


async def tier_observability() -> None:
    """Act 3: the tier-labelled /metrics rendering a scrape would see."""
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    cluster = DisaggregatedCluster(
        prefill_backends=[SimulatedBackend(latency)],
        decode_backends=[SimulatedBackend(latency)],
        scheduler_config=SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20),
    )
    async with cluster:
        for i in range(4):
            cluster.submit(Request(f"m{i}", prompt_tokens=4_096, max_new_tokens=32))
        await cluster.drain()
    print("=== tiered /metrics (excerpt) ===")
    for line in cluster.prometheus_metrics().splitlines():
        if "tier_completed" in line or "migrat" in line or "transfer" in line:
            print(line)


def main() -> None:
    """Run all three acts."""
    asyncio.run(interference_shootout())
    asyncio.run(migration_up_close())
    asyncio.run(tier_observability())


if __name__ == "__main__":
    main()
