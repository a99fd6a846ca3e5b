"""Colocated vs disaggregated serving under long-document + chat interference.

The experiment behind prefill/decode disaggregation (DistServe, Mooncake):
mix interactive chat traffic with bursty long-document QA on the **same**
fleet and watch the chat decodes' inter-token latency.

* **colocated** — a :class:`~repro.serving.ServingCluster` of N identical
  replicas (``least_kv`` routing).  A 64K-token prefill monopolises its
  replica's clock for the whole prefill, stalling every chat request decoding
  there — the classic p99 TPOT blow-up.
* **disaggregated** — a :class:`~repro.serving.DisaggregatedCluster` with the
  same N replicas split into a prefill pool and a decode pool.  Long prefills
  run on the prefill tier; migrated KV (priced by
  :class:`~repro.gpu.cost_model.TransferCostModel`) decodes on the decode
  tier, where no prefill ever interleaves.

The acceptance checks assert (a) the disaggregated chat p99 TPOT strictly
beats colocated at matched hardware, (b) a real-compute
(:class:`~repro.serving.LServeBackend`) disaggregated run produces outputs
**byte-identical** to a single-replica ``ServingEngine`` reference, and
(c) after every migration both tiers' page allocators end at zero allocated
pages — migration never leaks.

Run with::

    PYTHONPATH=src python benchmarks/bench_disaggregation.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_disaggregation.py --smoke    # CI smoke

The JSON report is written to ``benchmarks/results/BENCH_disaggregation.json``
(override with ``--output``); CI uploads it as a workflow artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

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

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_disaggregation.json"

CHAT_PRIORITY = 0
LONGDOC_PRIORITY = 1


def interference_spec(arrival_rate: float) -> WorkloadSpec:
    """Interactive chat + bursty long-document QA on one fleet."""
    return WorkloadSpec(
        name="chat-plus-longdoc",
        arrival_process="poisson",
        arrival_rate_rps=arrival_rate,
        ttft_slo_s=2.0,
        tpot_slo_s=0.08,
        classes=(
            RequestClass(
                name="chat",
                weight=4.0,
                priority=CHAT_PRIORITY,
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
                priority=LONGDOC_PRIORITY,
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


def run_sim_cell(mode: str, n_replicas: int, n: int, seed: int, latency) -> dict:
    """One simulated cell: colocated or disaggregated at matched hardware."""
    spec = interference_spec(arrival_rate=1.5 * n_replicas)
    requests = WorkloadGenerator(spec, seed=seed).generate(n)
    config = SchedulerConfig(max_batch_size=8, kv_token_capacity=1 << 20)

    async def serve():
        if mode == "colocated":
            cluster = ServingCluster(
                [SimulatedBackend(latency) for _ in range(n_replicas)],
                config,
                routing="least_kv",
            )
        else:
            split = max(1, n_replicas // 2)
            cluster = DisaggregatedCluster(
                prefill_backends=[SimulatedBackend(latency) for _ in range(split)],
                decode_backends=[
                    SimulatedBackend(latency) for _ in range(n_replicas - split)
                ],
                scheduler_config=config,
                transfer_model=TransferCostModel(),
            )
        async with cluster:
            await cluster.replay(requests)
            metrics = await cluster.drain()
        return cluster, metrics

    cluster, metrics = asyncio.run(serve())
    fleet = metrics.fleet()
    row = {
        "mode": mode,
        "replicas": n_replicas,
        "requests": n,
        "chat_p99_tpot_s": fleet.percentile_tpot_s(99, priority=CHAT_PRIORITY),
        "chat_mean_tpot_s": fleet.mean_time_per_output_token_s(priority=CHAT_PRIORITY),
        "chat_p99_ttft_s": fleet.percentile_ttft_s(99, priority=CHAT_PRIORITY),
        "longdoc_p99_ttft_s": fleet.percentile_ttft_s(99, priority=LONGDOC_PRIORITY),
        "slo_attainment": fleet.slo_attainment(
            spec.ttft_slo_s, spec.tpot_slo_s, priority=CHAT_PRIORITY
        ),
        "completed": len(fleet),
    }
    if mode == "disaggregated":
        row["migrations"] = cluster.migrations_total
        row["migrated_pages"] = cluster.migrated_pages_total
        row["mean_transfer_ms"] = fleet.mean_transfer_ms()
        row["prefill_tier_mean_ttft_s"] = metrics.tier("prefill").mean_ttft_s()
        row["decode_tier_mean_tpot_s"] = (
            metrics.tier("decode").mean_time_per_output_token_s()
        )
    return row


def make_real_backend(model) -> LServeBackend:
    engine = LServeEngine(
        model,
        LServeConfig(
            streaming_head_ratio=0.5,
            dynamic_sparsity_enabled=True,
            kv_bits=16,
            physical_page_size=16,
            logical_page_size=4,
            sink_tokens=16,
            local_tokens=32,
            q_block_size=16,
            token_budget=64,
            prefix_cache_enabled=False,
        ),
        streaming_kv_heads=np.array([False, True]),
        num_cache_pages=512,
    )
    return LServeBackend(engine)


def run_real_identity_cell(n: int, seed: int, model) -> dict:
    """Real-compute migration: byte-identity vs single engine + zero leaks."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        prompt = rng.integers(0, model.config.vocab_size, size=int(rng.integers(80, 180)))
        requests.append(
            Request.from_prompt(
                f"real-{i}", prompt, max_new_tokens=8, arrival_time_s=0.01 * i
            )
        )
    config = SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20)

    reference_engine = ServingEngine(make_real_backend(model), config)
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    async def serve():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_real_backend(model), make_real_backend(model)],
            decode_backends=[make_real_backend(model)],
            scheduler_config=config,
        )
        async with cluster:
            handles = await cluster.replay(requests)
            await cluster.drain()
        return cluster, handles

    cluster, handles = asyncio.run(serve())
    outputs = {h.request_id: h.output_tokens for h in handles}
    leaked = {
        replica.replica_id: (
            replica.engine.engine.backend.engine.cache.dense_cache.allocator.num_allocated
        )
        for replica in cluster.replicas
    }
    return {
        "mode": "real_identity",
        "requests": n,
        "byte_identical_outputs": outputs == reference,
        "migrations": cluster.migrations_total,
        "migrated_pages": cluster.migrated_pages_total,
        "leaked_pages": leaked,
        "zero_leaked_pages": all(v == 0 for v in leaked.values()),
    }


def format_table(rows: list[dict]) -> str:
    """Render the simulated cells as an aligned text table."""
    header = (
        f"{'mode':<16}{'R':>3}{'chat p99 TPOT':>15}{'chat p99 TTFT':>15}"
        f"{'doc p99 TTFT':>14}{'SLO':>7}{'migrations':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['mode']:<16}{r['replicas']:>3}{r['chat_p99_tpot_s']:>15.4f}"
            f"{r['chat_p99_ttft_s']:>15.3f}{r['longdoc_p99_ttft_s']:>14.3f}"
            f"{r['slo_attainment']:>7.2f}{r.get('migrations', 0):>12d}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """Run the comparison and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="requests per cell")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        replica_counts, n_sim, n_real = [4], 40, 6
    else:
        replica_counts, n_sim, n_real = [4, 8], 96, 10
    if args.n:
        n_sim = n_real = args.n

    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    model = TinyTransformer(tiny_model_config(), seed=11)

    rows = []
    for n_replicas in replica_counts:
        for mode in ("colocated", "disaggregated"):
            rows.append(run_sim_cell(mode, n_replicas, n_sim, args.seed, latency))
    real_cell = run_real_identity_cell(n_real, args.seed, model)

    print(format_table(rows))
    print(
        f"\nreal-backend: byte-identical={real_cell['byte_identical_outputs']} "
        f"migrations={real_cell['migrations']} "
        f"zero-leak={real_cell['zero_leaked_pages']}"
    )

    def cell(mode, n_replicas):
        return next(
            r for r in rows if r["mode"] == mode and r["replicas"] == n_replicas
        )

    checks = {
        # The acceptance property: at matched hardware, disaggregation keeps
        # chat decode p99 TPOT strictly below the colocated fleet's.
        "disaggregated_chat_p99_tpot_beats_colocated": all(
            cell("disaggregated", nr)["chat_p99_tpot_s"]
            < cell("colocated", nr)["chat_p99_tpot_s"]
            for nr in replica_counts
        ),
        "byte_identical_outputs": real_cell["byte_identical_outputs"],
        "zero_leaked_pages_after_migration": real_cell["zero_leaked_pages"],
        "migrations_happened": real_cell["migrations"] > 0
        and all(cell("disaggregated", nr)["migrations"] > 0 for nr in replica_counts),
    }
    for name, ok in checks.items():
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
    report = {
        "benchmark": "disaggregation",
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
