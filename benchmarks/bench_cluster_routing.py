"""Replica-count x routing-policy x workload sweep of the serving cluster.

Two simulated scenarios (cost-model backends, virtual time) per replica
count, served under every routing policy:

* ``shared_prefix`` — multi-tenant traffic at share ratio 0.5 with a Zipf
  tenant skew, on prefix-cache-enabled backends.  The number that matters is
  **computed prefill tokens**: ``prefix_affinity`` keeps each tenant on one
  replica (one cold prefix per tenant fleet-wide), while ``round_robin``
  scatters tenants so every replica recomputes every tenant's prefix.
* ``mixed_agentic`` — bursty interactive + background traffic (arrival rate
  scaled with the replica count).  The number that matters is **p99 TTFT**:
  ``least_kv`` joins the least-loaded replica at each arrival, while
  ``round_robin`` blindly alternates and ``prefix_affinity`` degenerates to
  hashing unrelated prompts.

One real-compute cell closes the loop: a 2-replica cluster of
``LServeBackend`` replicas (tiny model, prefix cache on) serves a
shared-prefix trace under ``round_robin`` and ``prefix_affinity``, and every
request's streamed output is asserted **byte-identical** to a single-replica
``ServingEngine.run`` reference of the same trace.

Run with::

    PYTHONPATH=src python benchmarks/bench_cluster_routing.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_cluster_routing.py --smoke    # CI smoke

The JSON report is written to ``benchmarks/results/BENCH_cluster_routing.json``
(override with ``--output``); CI uploads it as a workflow artifact.
"""

from __future__ import annotations

import argparse
import asyncio
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
    LServeBackend,
    PrefixAffinityPolicy,
    RequestClass,
    SchedulerConfig,
    ServingCluster,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    WorkloadSpec,
    scenario,
)

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_cluster_routing.json"

POLICIES = ("round_robin", "least_kv", "prefix_affinity")

#: Simulated shared-prefix geometry: share ratio 0.5 at block-aligned sizes.
SIM_BLOCK = 64
SIM_PROMPT = 4_096
SIM_PREFIX = 2_048
SIM_TENANTS = 4

#: Real-backend geometry (aligned attach boundaries, exact 16-bit KV).
REAL_PAGE = 16
REAL_PROMPT = 256
REAL_PREFIX = 128


def shared_prefix_spec(arrival_rate: float) -> WorkloadSpec:
    """Multi-tenant shared-prefix workload at share ratio 0.5, Zipf-skewed."""
    return WorkloadSpec(
        name="cluster-shared-prefix",
        arrival_process="poisson",
        arrival_rate_rps=arrival_rate,
        ttft_slo_s=2.0,
        tpot_slo_s=0.08,
        classes=(
            RequestClass(
                name="tenant",
                shared_prefix_tokens=SIM_PREFIX,
                shared_prefix_pool=SIM_TENANTS,
                shared_prefix_zipf_alpha=0.8,
                prompt_median=SIM_PROMPT,
                prompt_sigma=0.01,
                prompt_min=SIM_PROMPT,
                prompt_max=SIM_PROMPT,
                output_median=8,
                output_sigma=0.01,
                output_min=8,
                output_max=8,
            ),
        ),
    )


async def serve_cluster(make_backends, scheduler_config, routing, requests):
    """Replay a trace through a fresh cluster; returns (cluster, handles, metrics)."""
    cluster = ServingCluster(make_backends(), scheduler_config, routing=routing)
    async with cluster:
        handles = await cluster.replay(requests)
        metrics = await cluster.drain()
    return cluster, handles, metrics


def run_sim_cell(
    scenario_name: str, n_replicas: int, policy: str, n: int, seed: int, latency
) -> dict:
    """One simulated cell: scenario x replica count x routing policy."""
    if scenario_name == "shared_prefix":
        spec = shared_prefix_spec(arrival_rate=4.0 * n_replicas)
        config = SchedulerConfig(max_batch_size=8, kv_token_capacity=1 << 16)

        def make_backends():
            return [
                SimulatedBackend(latency, prefix_block_tokens=SIM_BLOCK)
                for _ in range(n_replicas)
            ]
    else:
        # 1.5 rps per replica: heavily loaded but not in sustained overload —
        # in collapse no router can help, queues grow regardless of placement.
        spec = dataclasses.replace(
            scenario("mixed_agentic"), arrival_rate_rps=1.5 * n_replicas
        )
        config = SchedulerConfig(max_batch_size=8, kv_token_capacity=1 << 17)

        def make_backends():
            return [SimulatedBackend(latency) for _ in range(n_replicas)]

    requests = WorkloadGenerator(spec, seed=seed).generate(n, with_token_ids=True)
    cluster, _, metrics = asyncio.run(
        serve_cluster(make_backends, config, policy, requests)
    )
    prefill_tokens = sum(
        r.engine.engine.backend.work.prefill_tokens for r in cluster.replicas
    )
    prefix_hits = sum(
        r.engine.engine.backend.work.prefix_hit_tokens for r in cluster.replicas
    )
    balance = metrics.completed_per_replica()
    fleet = metrics.fleet()
    return {
        "backend": "simulated",
        "scenario": scenario_name,
        "replicas": n_replicas,
        "policy": policy,
        "requests": n,
        "share_ratio": SIM_PREFIX / SIM_PROMPT if scenario_name == "shared_prefix" else 0.0,
        "computed_prefill_tokens": int(prefill_tokens),
        "prefix_hit_tokens": int(prefix_hits),
        "mean_ttft_s": fleet.mean_ttft_s(),
        "p99_ttft_s": fleet.percentile_ttft_s(99),
        "slo_attainment": fleet.slo_attainment(spec.ttft_slo_s, spec.tpot_slo_s),
        "throughput_tokens_s": fleet.generation_throughput_tokens_s(),
        "completed_per_replica": balance,
        "balance_spread": max(balance.values()) - min(balance.values()),
        "resubmissions": cluster.total_resubmissions,
    }


def make_real_backend(model) -> LServeBackend:
    engine = LServeEngine(
        model,
        LServeConfig(
            streaming_head_ratio=0.5,
            dynamic_sparsity_enabled=True,
            kv_bits=16,
            physical_page_size=REAL_PAGE,
            logical_page_size=4,
            sink_tokens=16,
            local_tokens=32,
            q_block_size=REAL_PAGE,
            token_budget=64,
            prefix_cache_enabled=True,
        ),
        streaming_kv_heads=np.array([False, True]),
        num_cache_pages=2_048,
    )
    return LServeBackend(engine)


def run_real_identity_cell(n: int, seed: int, model) -> dict:
    """Real-compute byte-identity: 2-replica cluster vs single-engine reference."""
    spec = WorkloadSpec(
        name="real-shared-prefix",
        arrival_process="poisson",
        arrival_rate_rps=4.0,
        classes=(
            RequestClass(
                name="tenant",
                shared_prefix_tokens=REAL_PREFIX,
                shared_prefix_pool=2,
                prompt_median=REAL_PROMPT,
                prompt_sigma=0.01,
                prompt_min=REAL_PROMPT,
                prompt_max=REAL_PROMPT,
                output_median=8,
                output_sigma=0.01,
                output_min=8,
                output_max=8,
            ),
        ),
    )
    requests = WorkloadGenerator(spec, seed=seed).generate(
        n, with_token_ids=True, vocab_size=model.config.vocab_size
    )
    config = SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20)

    reference_engine = ServingEngine(make_real_backend(model), config)
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    identical = {}
    for policy_name in ("round_robin", "prefix_affinity"):
        routing = (
            PrefixAffinityPolicy(block_tokens=REAL_PAGE)
            if policy_name == "prefix_affinity"
            else policy_name
        )
        _, handles, _ = asyncio.run(
            serve_cluster(
                lambda: [make_real_backend(model) for _ in range(2)],
                config,
                routing,
                requests,
            )
        )
        outputs = {h.request_id: h.output_tokens for h in handles}
        identical[policy_name] = outputs == reference
    return {
        "backend": "lserve",
        "scenario": "shared_prefix",
        "replicas": 2,
        "requests": n,
        "byte_identical_outputs": identical,
    }


def format_table(rows: list[dict]) -> str:
    """Render the simulated sweep as an aligned text table."""
    header = (
        f"{'scenario':<15}{'R':>3}{'policy':>17}{'prefill tok':>13}{'hits':>11}"
        f"{'p99 TTFT':>11}{'SLO':>7}{'spread':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['scenario']:<15}{r['replicas']:>3}{r['policy']:>17}"
            f"{r['computed_prefill_tokens']:>13d}{r['prefix_hit_tokens']:>11d}"
            f"{r['p99_ttft_s']:>11.3f}{r['slo_attainment']:>7.2f}"
            f"{r['balance_spread']:>8d}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """Run the sweep and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized sweep")
    parser.add_argument(
        "--replicas", default=None, help="comma-separated replica counts"
    )
    parser.add_argument(
        "--policies", default=None, help="comma-separated routing policies"
    )
    parser.add_argument("--n", type=int, default=None, help="requests per cell")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        replica_counts, n_sim, n_real = [2, 4], 48, 8
    else:
        replica_counts, n_sim, n_real = [2, 4, 8], 120, 12
    policies = list(POLICIES)
    if args.replicas:
        replica_counts = [int(r) for r in args.replicas.split(",")]
    if args.policies:
        policies = args.policies.split(",")
    if args.n:
        n_sim = n_real = args.n

    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    model = TinyTransformer(tiny_model_config(), seed=11)

    rows = []
    for scenario_name in ("shared_prefix", "mixed_agentic"):
        for n_replicas in replica_counts:
            for policy in policies:
                rows.append(
                    run_sim_cell(
                        scenario_name, n_replicas, policy, n_sim, args.seed, latency
                    )
                )
    real_cell = run_real_identity_cell(n_real, args.seed, model)

    print(format_table(rows))
    print(f"\nreal-backend byte-identity (2 replicas): {real_cell['byte_identical_outputs']}")

    def cell(scenario_name, n_replicas, policy):
        return next(
            r
            for r in rows
            if r["scenario"] == scenario_name
            and r["replicas"] == n_replicas
            and r["policy"] == policy
        )

    checks = {
        # The acceptance property: at share 0.5, prefix-affinity routing computes
        # strictly fewer prefill tokens than round robin, at every replica count.
        "prefix_affinity_fewer_prefill_tokens_than_round_robin": all(
            cell("shared_prefix", nr, "prefix_affinity")["computed_prefill_tokens"]
            < cell("shared_prefix", nr, "round_robin")["computed_prefill_tokens"]
            for nr in replica_counts
            if {"prefix_affinity", "round_robin"} <= set(policies)
        ),
        "byte_identical_cluster_outputs": all(
            real_cell["byte_identical_outputs"].values()
        ),
        "least_kv_p99_ttft_not_worse_than_round_robin": all(
            cell("mixed_agentic", nr, "least_kv")["p99_ttft_s"]
            <= cell("mixed_agentic", nr, "round_robin")["p99_ttft_s"] * 1.001
            for nr in replica_counts
            if {"least_kv", "round_robin"} <= set(policies)
        ),
    }
    for name, ok in checks.items():
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
    report = {
        "benchmark": "cluster_routing",
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "checks": checks,
        "results": rows + [real_cell],
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n[saved to {args.output}]")
    if not all(checks.values()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
