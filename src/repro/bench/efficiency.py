"""Efficiency experiments (cost-model based): Figs. 2, 10, 11, 14, 15, 16
and Tables 1, 5, 7, plus the head-ratio ablation and the functional kernel
check."""

from __future__ import annotations

import numpy as np

from repro.attention.flash_reference import blockwise_attention
from repro.attention.masks import block_streaming_mask
from repro.baselines.systems import (
    all_decode_baselines,
    all_prefill_baselines,
    lserve_dynamic_only_policy,
    lserve_policy,
    lserve_static_only_policy,
    qserve_policy,
    quest_policy,
    vllm_policy,
)
from repro.bench.tables import Table
from repro.gpu.cost_model import SystemCostModel
from repro.gpu.device import A100_80G, L40S_48G, DeviceSpec
from repro.gpu.kernels import KernelCostModel
from repro.gpu.simulator import LatencySimulator, OutOfMemoryError
from repro.model.configs import LLAMA_2_7B, LLAMA_3_8B, MINITRON_4B, ModelConfig
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerConfig

__all__ = [
    "fig02_latency_breakdown",
    "tab01_page_size_latency",
    "fig10_decode_speed",
    "fig11_prefill_speed",
    "tab05_quest_comparison",
    "fig14_selector_overhead",
    "fig15_attention_breakdown",
    "fig16_e2e_breakdown",
    "tab07_artifact_latency",
    "ablation_head_ratio",
    "kernel_functional_check",
]

_K = 1024


def fig02_latency_breakdown() -> Table:
    """Figure 2: prefill/decode latency breakdown vs input length (Llama-3-8B, A100)."""
    table = Table(
        title="Figure 2 — Latency breakdown of Llama-3-8B on A100 (dense FP16 serving)",
        columns=["stage", "input length", "attention frac", "gemm frac", "other frac"],
        notes="Attention dominates both stages as the sequence grows (paper: >50% at 64K, ~75% at 128K).",
    )
    cost = SystemCostModel(LLAMA_3_8B, A100_80G, vllm_policy())
    for length in (8 * _K, 16 * _K, 32 * _K, 64 * _K, 128 * _K):
        pre = cost.prefill_breakdown(length)
        dec = cost.decode_step_breakdown(length)
        table.add_row("prefill", f"{length // _K}K", pre.attention_fraction,
                      pre.gemm_s / pre.total_s, (pre.selector_s + pre.other_s) / pre.total_s)
        table.add_row("decode", f"{length // _K}K", dec.attention_fraction,
                      dec.gemm_s / dec.total_s, (dec.selector_s + dec.other_s) / dec.total_s)
    return table


def tab01_page_size_latency() -> Table:
    """Table 1: QServe decode latency (ms/step) vs KV page size, Llama-3-8B, batch 32."""
    table = Table(
        title="Table 1 — Per-step decode latency (ms) of QServe vs page size (Llama-3-8B, batch 32, A100)",
        columns=["seq len", "page 16", "page 32", "page 64", "page 128"],
        notes="Small pages under-utilise HBM bandwidth; paper reports up to 1.52x slowdown for page 16.",
    )
    rows = {}
    for seq in (512, 1024, 2048, 4096, 8192):
        row = [f"{seq}"]
        for page in (16, 32, 64, 128):
            policy = qserve_policy().with_overrides(page_size=page)
            latency = SystemCostModel(LLAMA_3_8B, A100_80G, policy).decode_step_latency(
                seq, batch=32
            )
            row.append(latency * 1e3)
        rows[seq] = row
        table.add_row(*row)
    slowdowns = [
        max(rows[seq][i] / rows[seq][4] for seq in rows) for i in range(1, 5)
    ]
    table.add_row("max slowdown", *slowdowns)
    return table


def _relative_decode_table(
    model: ModelConfig, device: DeviceSpec, lengths: tuple[int, ...], batch: int
) -> Table:
    systems = all_decode_baselines()
    lserve = next(p for p in systems if p.name == "LServe")
    table = Table(
        title=f"Figure 10 — Decode throughput relative to LServe ({model.name}, {device.name}, batch {batch})",
        columns=["system"] + [f"{length // _K}K" for length in lengths] + ["geomean"],
        notes="1.00 = LServe; OOM marks configurations whose KV cache does not fit.",
    )
    lserve_latency = {}
    for length in lengths:
        lserve_latency[length] = LatencySimulator(model, device, lserve).decode_step_latency(
            length, batch
        )
    for policy in systems:
        sim = LatencySimulator(model, device, policy)
        ratios: list[float | str] = []
        numeric = []
        for length in lengths:
            try:
                latency = sim.decode_step_latency(length, batch)
                rel = lserve_latency[length] / latency
                ratios.append(rel)
                numeric.append(rel)
            except OutOfMemoryError:
                ratios.append("OOM")
        geomean = float(np.exp(np.mean(np.log(numeric)))) if numeric else float("nan")
        table.add_row(policy.name, *ratios, geomean)
    return table


def fig10_decode_speed() -> list[Table]:
    """Figure 10: decoding speed vs baselines on the paper's four model/GPU combos."""
    return [
        _relative_decode_table(LLAMA_3_8B, A100_80G, (64 * _K, 96 * _K, 128 * _K, 192 * _K, 256 * _K, 320 * _K), batch=1),
        _relative_decode_table(LLAMA_2_7B, A100_80G, (16 * _K, 32 * _K, 64 * _K, 96 * _K, 128 * _K), batch=1),
        _relative_decode_table(MINITRON_4B, A100_80G, (64 * _K, 128 * _K, 256 * _K, 512 * _K), batch=1),
        _relative_decode_table(LLAMA_3_8B, L40S_48G, (32 * _K, 64 * _K, 96 * _K, 128 * _K, 160 * _K), batch=1),
    ]


def fig11_prefill_speed() -> list[Table]:
    """Figure 11: prefilling speed vs baselines (Llama-3-8B and Llama-2-7B, A100)."""
    tables = []
    for model, lengths in (
        (LLAMA_3_8B, (64 * _K, 96 * _K, 128 * _K, 192 * _K, 256 * _K)),
        (LLAMA_2_7B, (16 * _K, 32 * _K, 64 * _K, 96 * _K, 128 * _K)),
    ):
        systems = all_prefill_baselines()
        lserve = next(p for p in systems if p.name == "LServe")
        lserve_lat = {
            n: LatencySimulator(model, A100_80G, lserve).prefill_latency(n) for n in lengths
        }
        table = Table(
            title=f"Figure 11 — Prefill throughput relative to LServe ({model.name}, A100)",
            columns=["system"] + [f"{n // _K}K" for n in lengths] + ["geomean"],
            notes="1.00 = LServe.",
        )
        for policy in systems:
            sim = LatencySimulator(model, A100_80G, policy)
            ratios, numeric = [], []
            for n in lengths:
                try:
                    rel = lserve_lat[n] / sim.prefill_latency(n)
                    ratios.append(rel)
                    numeric.append(rel)
                except OutOfMemoryError:
                    ratios.append("OOM")
            geomean = float(np.exp(np.mean(np.log(numeric)))) if numeric else float("nan")
            table.add_row(policy.name, *ratios, geomean)
        tables.append(table)
    return tables


def tab05_quest_comparison() -> Table:
    """Table 5: LServe vs Quest latency on Llama-2-7B (prefill seconds, decode ms)."""
    lengths = (4 * _K, 8 * _K, 16 * _K, 32 * _K, 64 * _K)
    quest = LatencySimulator(LLAMA_2_7B, A100_80G, quest_policy())
    lserve = LatencySimulator(LLAMA_2_7B, A100_80G, lserve_policy())
    table = Table(
        title="Table 5 — LServe vs Quest on Llama-2-7B (A100)",
        columns=["seq len", "Quest prefill (s)", "LServe prefill (s)", "prefill speedup",
                 "Quest decode (ms)", "LServe decode (ms)", "decode speedup"],
        notes="Paper reports 1.5-2.1x prefill and 1.3-1.5x decode speedups.",
    )
    for n in lengths:
        qp = quest.prefill_latency(n)
        lp = lserve.prefill_latency(n)
        qd = quest.decode_step_latency(n) * 1e3
        ld = lserve.decode_step_latency(n) * 1e3
        table.add_row(f"{n // _K}K", qp, lp, qp / lp, qd, ld, qd / ld)
    return table


def fig14_selector_overhead() -> Table:
    """Figure 14: page selector vs sparse attention latency, vanilla vs reusable selector."""
    kernels = KernelCostModel(A100_80G)
    cfg = LLAMA_3_8B
    policy = lserve_policy()
    table = Table(
        title="Figure 14 — Decode-stage dynamic sparsity cost per step, all layers (Llama-3-8B, A100)",
        columns=["context", "sparse attention (ms)", "vanilla selector (ms)", "reusable selector (ms)"],
        notes="The vanilla selector grows linearly and overtakes the budget-bounded attention beyond ~128K; reuse (interval 4) removes that bottleneck.",
    )
    dense_kv_heads = cfg.n_kv_heads // 2
    for length in (8 * _K, 16 * _K, 32 * _K, 64 * _K, 128 * _K, 256 * _K):
        attn = cfg.n_layers * kernels.decode_attention_latency(
            min(length, policy.decode_token_budget or length), dense_kv_heads,
            cfg.head_dim, kv_bits=policy.kv_bits, page_size=policy.page_size,
        )
        selector = cfg.n_layers * kernels.page_selector_latency(
            length // policy.effective_logical_page_size
        )
        table.add_row(f"{length // _K}K", attn * 1e3, selector * 1e3, selector / policy.reuse_interval * 1e3)
    return table


def fig15_attention_breakdown() -> Table:
    """Figure 15: single-layer decode attention latency under each sparsity mode (Llama-2-7B)."""
    kernels = KernelCostModel(A100_80G)
    cfg = LLAMA_2_7B
    table = Table(
        title="Figure 15 — Decode attention latency per layer (Llama-2-7B, A100, µs)",
        columns=["context", "dense", "+static (50%)", "+dynamic (4K budget)", "LServe (both)"],
        notes="Static sparsity helps at short contexts; dynamic sparsity bounds long-context cost to a constant.",
    )
    budget = 4096
    for length in (4 * _K, 8 * _K, 16 * _K, 32 * _K, 64 * _K, 128 * _K, 256 * _K):
        def attn(tokens, heads):
            if heads == 0:
                return 0.0
            return kernels.decode_attention_latency(tokens, heads, cfg.head_dim, kv_bits=8, page_size=64)
        dense = attn(length, cfg.n_kv_heads)
        static = attn(length, cfg.n_kv_heads // 2) + attn(min(length, 384), cfg.n_kv_heads // 2)
        dynamic = attn(min(length, budget), cfg.n_kv_heads)
        both = attn(min(length, budget), cfg.n_kv_heads // 2) + attn(min(length, 384), cfg.n_kv_heads // 2)
        table.add_row(f"{length // _K}K", dense * 1e6, static * 1e6, dynamic * 1e6, both * 1e6)
    return table


def _served_decode_step_latency(
    policy, length: int, output_tokens: int = 9, model: ModelConfig = LLAMA_3_8B
) -> float:
    """Per-step decode latency measured through the serving front door.

    One ``length``-token request is served end to end by a
    ``ServingEngine`` over the policy's cost-model backend, and the per-token
    decode latency is read off the request's :class:`ServingMetrics` record —
    the same path real serving runs report through.
    """
    latency = LatencySimulator(model, A100_80G, policy)
    engine = ServingEngine(
        latency.as_backend(),
        SchedulerConfig(max_batch_size=1, kv_token_capacity=8 * 1024 * 1024),
    )
    metrics = engine.run(
        [Request("probe", prompt_tokens=length, max_new_tokens=output_tokens)]
    )
    return metrics.records[0].time_per_output_token_s


def fig16_e2e_breakdown() -> Table:
    """Figure 16: end-to-end decode throughput breakdown (Llama-3-8B, unit batch)."""
    table = Table(
        title="Figure 16 — End-to-end decode throughput normalised to LServe (Llama-3-8B, A100, batch 1)",
        columns=["context", "dense attention", "+50% streaming heads", "+dynamic sparsity", "LServe"],
        notes="Per-step latencies measured through ServingEngine runs; ablations share "
        "LServe's quantized serving stack; static sparsity dominates the gains at "
        "short contexts, dynamic sparsity at long contexts.",
    )
    systems = {
        "dense": lserve_policy().with_overrides(
            name="LServe-DenseAblation",
            streaming_head_ratio=0.0,
            decode_token_budget=None,
            prefill_sparse=False,
        ),
        "static": lserve_static_only_policy(),
        "dynamic": lserve_dynamic_only_policy(),
        "lserve": lserve_policy(),
    }
    for length in (4 * _K, 8 * _K, 16 * _K, 32 * _K, 64 * _K, 128 * _K, 256 * _K):
        served = {k: _served_decode_step_latency(p, length) for k, p in systems.items()}
        base = served["lserve"]
        row = [base / served[k] for k in ("dense", "static", "dynamic", "lserve")]
        table.add_row(f"{length // _K}K", *row)
    return table


def tab07_artifact_latency() -> Table:
    """Table 7 (artifact appendix): per-step generation latency, vLLM vs LServe."""
    table = Table(
        title="Table 7 — Generation latency (ms/step) of vLLM vs LServe (Llama-3-8B, A100)",
        columns=["seq len", "vLLM (ms)", "LServe (ms)", "speedup"],
        notes="Measured through end-to-end ServingEngine runs. "
        "Paper reference: 1.09x at 64K growing to 1.82x at 320K.",
    )
    for length in (64 * _K, 96 * _K, 128 * _K, 160 * _K, 192 * _K, 224 * _K, 256 * _K, 320 * _K):
        v = _served_decode_step_latency(vllm_policy(), length) * 1e3
        l = _served_decode_step_latency(lserve_policy(), length) * 1e3
        table.add_row(f"{length // _K}K", v, l, v / l)
    return table


def ablation_head_ratio() -> Table:
    """Extra ablation: sensitivity of decode latency to the streaming-head ratio."""
    table = Table(
        title="Ablation — Decode latency vs streaming-head ratio (Llama-3-8B, A100, 256K context)",
        columns=["streaming ratio", "decode latency (ms)", "speedup vs ratio 0"],
        notes="The paper converts 50% of heads; this sweep shows the marginal benefit of each additional quarter.",
    )
    base = None
    for ratio in (0.0, 0.25, 0.5, 0.75):
        policy = lserve_policy(streaming_head_ratio=ratio)
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, policy).decode_step_latency(256 * _K) * 1e3
        if base is None:
            base = latency
        table.add_row(ratio, latency, base / latency)
    return table


def kernel_functional_check() -> Table:
    """Functional check: the block-sparse kernel skips work and matches dense output."""
    rng = np.random.default_rng(0)
    n = 512
    blk = 64
    q = rng.normal(size=(n, 4, 32))
    k = rng.normal(size=(n, 4, 32))
    v = rng.normal(size=(n, 4, 32))
    dense = blockwise_attention(q, k, v, blk, blk)
    mask = block_streaming_mask(n, n, blk, blk, sink_blocks=1, local_blocks=2)
    sparse = blockwise_attention(q, k, v, blk, blk, block_mask=mask)
    max_err = float(np.max(np.abs(
        sparse.output[:, 0] - dense.output[:, 0]
    )))  # first rows match because early blocks are inside the Λ window
    table = Table(
        title="Functional kernel check — block-sparse attention work accounting",
        columns=["kernel", "visited tiles", "total causal tiles", "sparsity", "theoretical speedup"],
        notes=f"Streaming-mask output for early rows matches dense to {max_err:.1e} (same visited blocks).",
    )
    table.add_row("dense causal", dense.visited_blocks, dense.total_blocks, dense.block_sparsity, 1.0)
    table.add_row(
        "streaming Λ", sparse.visited_blocks, sparse.total_blocks, sparse.block_sparsity,
        1.0 / (1.0 - sparse.block_sparsity),
    )
    return table
