"""Cluster serving walkthrough: routing policies, failure containment, fleet metrics.

Runs a multi-replica :class:`~repro.serving.cluster.ServingCluster` through
three acts:

1. **routing shootout** — the same Zipf-skewed shared-prefix trace served
   under ``round_robin`` / ``least_kv`` / ``prefix_affinity`` on cost-model
   replicas with prefix caching; compare computed prefill tokens, fleet p99
   TTFT, and the per-replica balance;
2. **failure containment** — a replica of real-compute (tiny-model) backends
   dies mid-decode; watch the cluster quarantine it, resubmit its in-flight
   requests, and still produce outputs byte-identical to a single healthy
   engine;
3. **fleet observability** — the merged ``/metrics``-style Prometheus
   rendering with per-replica labelled series.

Run with:  python examples/cluster_serving.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
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
BLOCK = 64


def shared_prefix_spec() -> WorkloadSpec:
    """Multi-tenant shared-prefix traffic, Zipf-skewed toward hot tenants."""
    return WorkloadSpec(
        name="cluster-demo",
        arrival_process="poisson",
        arrival_rate_rps=8.0,
        classes=(
            RequestClass(
                name="tenant",
                shared_prefix_tokens=2_048,
                shared_prefix_pool=4,
                shared_prefix_zipf_alpha=0.8,
                prompt_median=4_096,
                prompt_sigma=0.01,
                prompt_min=4_096,
                prompt_max=4_096,
                output_median=16,
                output_sigma=0.01,
                output_min=16,
                output_max=16,
            ),
        ),
    )


async def routing_shootout() -> None:
    """Act 1: the same trace under each routing policy, side by side."""
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    requests = WorkloadGenerator(shared_prefix_spec(), seed=0).generate(
        48, with_token_ids=True
    )
    print(f"=== routing shootout: {len(requests)} shared-prefix requests, "
          f"{N_REPLICAS} simulated replicas ===")
    header = f"{'policy':<18}{'prefill tok':>12}{'hits':>10}{'p99 TTFT':>10}{'balance':>24}"
    print(header)
    print("-" * len(header))
    for policy in ("round_robin", "least_kv", "prefix_affinity"):
        cluster = ServingCluster(
            [SimulatedBackend(latency, prefix_block_tokens=BLOCK) for _ in range(N_REPLICAS)],
            SchedulerConfig(max_batch_size=8, kv_token_capacity=1 << 16),
            routing=policy,
        )
        async with cluster:
            await cluster.replay(requests)
            metrics = await cluster.drain()
        prefill = sum(r.engine.engine.backend.work.prefill_tokens for r in cluster.replicas)
        hits = sum(r.engine.engine.backend.work.prefix_hit_tokens for r in cluster.replicas)
        balance = "/".join(str(v) for v in metrics.completed_per_replica().values())
        print(f"{policy:<18}{prefill:>12}{hits:>10}"
              f"{metrics.fleet().percentile_ttft_s(99):>10.3f}{balance:>24}")
    print("prefix_affinity keeps each tenant on one replica: fewest computed "
          "prefill tokens.\n")


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
    )
    return LServeBackend(engine)


class FlakyBackend:
    """Delegates to a real backend; dies on the Nth decode iteration."""

    produces_logits = True

    def __init__(self, inner: LServeBackend, fail_at_decode: int) -> None:
        self._inner = inner
        self._fail_at = fail_at_decode
        self._decodes = 0

    @property
    def work(self):
        return self._inner.work

    def prefill(self, seq_id, token_ids):
        return self._inner.prefill(seq_id, token_ids)

    def decode_batch(self, seq_ids, token_ids):
        self._decodes += 1
        if self._decodes >= self._fail_at:
            raise RuntimeError("injected GPU fault")
        return self._inner.decode_batch(seq_ids, token_ids)

    def release(self, seq_id):
        return self._inner.release(seq_id)

    def kv_tokens_in_use(self):
        return self._inner.kv_tokens_in_use()


async def failure_containment() -> None:
    """Act 2: a replica dies mid-decode; streams survive byte-identically."""
    model = TinyTransformer(tiny_model_config(), seed=0)
    requests = [
        Request.from_prompt(f"r{i}", np.arange(48) + i, max_new_tokens=8)
        for i in range(6)
    ]
    reference_engine = ServingEngine(
        make_real_backend(model), SchedulerConfig(max_batch_size=4)
    )
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    print("=== failure containment: replica-0 dies on its 3rd decode ===")
    cluster = ServingCluster(
        [FlakyBackend(make_real_backend(model), fail_at_decode=3),
         make_real_backend(model)],
        SchedulerConfig(max_batch_size=4),
        routing="round_robin",
    )
    async with cluster:
        handles = [cluster.submit(r) for r in requests]
        outputs = {h.request_id: await h.result() for h in handles}
        await cluster.drain()
    print(f"replica health:   {cluster.replica_health()}")
    print(f"failures:         { {k: str(v) for k, v in cluster.failures.items()} }")
    print(f"resubmissions:    {cluster.total_resubmissions}")
    identical = outputs == reference
    print(f"byte-identical to a healthy single engine: {identical}\n")
    assert identical


async def fleet_observability() -> None:
    """Act 3: the merged Prometheus rendering a scrape would see."""
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    cluster = ServingCluster(
        [SimulatedBackend(latency) for _ in range(2)],
        SchedulerConfig(max_batch_size=4, kv_token_capacity=200_000),
        routing="least_kv",
    )
    async with cluster:
        for i in range(4):
            cluster.submit(Request(f"m{i}", prompt_tokens=8_192, max_new_tokens=32))
        await cluster.drain()
    print("=== fleet /metrics (excerpt) ===")
    lines = cluster.prometheus_metrics().splitlines()
    for line in lines:
        if "completed" in line or "healthy" in line or "kv_tokens_demand" in line:
            print(line)


def main() -> None:
    """Run all three acts."""
    asyncio.run(routing_shootout())
    asyncio.run(failure_containment())
    asyncio.run(fleet_observability())


if __name__ == "__main__":
    main()
