"""Speculative decoding benchmark: k x scenario sweep, byte-exact by contract.

Two halves, one report:

* **Latency cells** (virtual clock, gated): each scenario preset (``chat`` /
  ``long_document_qa`` / ``mixed_agentic``) is served request-at-a-time —
  the latency-bound regime speculation targets — through the
  ``SimulatedBackend`` cost model, with a :class:`ModeledDraft` pinning the
  per-token acceptance rate.  Cells sweep ``speculation_k`` x acceptance
  rate and report the end-to-end decode speedup (non-speculative makespan /
  speculative makespan) and the TPOT speedup.  The virtual clock is
  deterministic for a given seed, so these ratios are machine-independent
  and ``perf_gate.py`` enforces a floor: **speedup > 1 at acceptance 0.6**,
  the ISSUE's acceptance bar.
* **Verification cells** (real engine, gated flags): scenario-shaped seeded
  traces decode through the real tiny-model ``LServeBackend`` with n-gram
  and prerecorded draft sources, and every cell asserts the speculative
  output is **byte-identical** to the non-speculative reference and that the
  page pool drains to zero — rejected draft KV must vanish through the
  ref-counted release path.  Wall-clock speedups ride along ungated (they
  measure the runner, not the contract).

A saturated-batching row is also **gated**: with a full continuous batch,
fused batch verification (``decode_speculative_batch`` — every speculating
member's chunk in one grouped weight pass) must beat plain ``decode_batch``
on decode tok/s at every acceptance >= 0.6.  The same row reports the
fused-vs-per-member ratio: the cross-request amortization the pre-fusion
per-request verify chunks forfeited, now recovered.

Run with::

    PYTHONPATH=src python benchmarks/bench_speculative.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_speculative.py --smoke    # CI smoke

The JSON report is written to ``benchmarks/results/BENCH_speculative.json``
(override with ``--output``); ``benchmarks/perf_gate.py`` diffs the smoke
report against the committed baseline in CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
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
    ModeledDraft,
    NGramDraft,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
    SpecBatchResult,
    WorkloadGenerator,
    scenario,
)

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_speculative.json"

#: Per-scenario KV pool sizing (mirrors bench_serving_slo.py).
SCENARIO_KV_CAPACITY = {
    "chat": 16_384,
    "long_document_qa": 196_608,
    "mixed_agentic": 131_072,
}

SCENARIOS = ("chat", "long_document_qa", "mixed_agentic")


# -- latency cells: virtual-clock speedup at pinned acceptance ---------------------


def verify_per_member(backend) -> None:
    """Rebind ``backend.decode_speculative_batch`` to the pre-fusion reference.

    The real call once per member, results joined: every chunk is billed its
    own weight pass (``elapsed_s`` sums), which is what verification cost
    before the members of a step shared one pass.
    """
    fused = backend.decode_speculative_batch

    def per_member(requests):
        parts = [fused([request]) for request in requests]
        return SpecBatchResult(
            logits=[p.logits[0] for p in parts],
            elapsed_s=sum(p.elapsed_s for p in parts),
            chunks=[p.chunks[0] for p in parts],
        )

    backend.decode_speculative_batch = per_member


def sim_engine(
    name: str, k: int, acceptance: float, seed: int, max_batch: int, per_member: bool = False
):
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    capacity = SCENARIO_KV_CAPACITY[name]
    backend = SimulatedBackend(latency)
    if per_member:
        verify_per_member(backend)
    return ServingEngine(
        backend,
        SchedulerConfig(
            max_batch_size=max_batch,
            kv_token_capacity=capacity,
            kv_high_watermark=capacity - 256,
            kv_low_watermark=int(0.75 * capacity),
        ),
        draft_source=ModeledDraft(acceptance=acceptance, seed=seed) if k else None,
    )


def sim_requests(name: str, n: int, seed: int, k: int) -> list[Request]:
    """A seeded scenario trace, all-at-zero arrivals, opted into speculation."""
    requests = WorkloadGenerator(scenario(name), seed=seed).generate(n)
    return [
        dataclasses.replace(
            r, arrival_time_s=0.0, sampling=SamplingParams(speculation_k=k)
        )
        for r in requests
    ]


def run_latency_cell(name: str, k: int, acceptance: float, n: int, seed: int) -> dict:
    """Request-at-a-time serving: speculation's target regime (gated)."""
    baseline = sim_engine(name, 0, 0.0, seed, max_batch=1)
    base_metrics = baseline.run(sim_requests(name, n, seed, 0))
    engine = sim_engine(name, k, acceptance, seed, max_batch=1)
    metrics = engine.run(sim_requests(name, n, seed, k))
    assert metrics.total_generated_tokens() == base_metrics.total_generated_tokens()
    observed = engine.draft_tokens_accepted / max(engine.draft_tokens_proposed, 1)
    return {
        "scenario": name,
        "k": k,
        "acceptance": acceptance,
        "requests": n,
        "decode_speedup": round(base_metrics.makespan_s() / metrics.makespan_s(), 3),
        "tpot_speedup": round(
            base_metrics.mean_time_per_output_token_s()
            / metrics.mean_time_per_output_token_s(),
            3,
        ),
        "observed_acceptance": round(observed, 3),
        "effective_tokens_per_step": round(
            metrics.mean_effective_tokens_per_step(), 3
        ),
    }


def _decode_tok_s(metrics) -> float:
    return metrics.total_generated_tokens() / metrics.makespan_s()


def run_saturated_cell(name: str, k: int, acceptance: float, n: int, seed: int) -> dict:
    """Full continuous batch: fused verification vs plain decode (gated).

    Three runs over the same seeded trace at ``max_batch_size = 8``: plain
    batched decode (``k = 0``), *fused* speculative verification (the default
    engine path — every speculating member's chunk verifies in one grouped
    backend call billed as a single weight pass), and *per-member*
    verification (:func:`verify_per_member`: the same call, once per member)
    as the pre-fusion reference that used to lose the cross-request
    amortization.  ``perf_gate.py`` requires fused
    speculation to beat plain decode on decode tok/s at every gated
    acceptance rate (all >= 0.6); the fused-vs-unfused ratio rides along as
    the amortization-recovered evidence.
    """
    plain = sim_engine(name, 0, 0.0, seed, max_batch=8)
    plain_metrics = plain.run(sim_requests(name, n, seed, 0))

    fused = sim_engine(name, k, acceptance, seed, max_batch=8)
    fused_metrics = fused.run(sim_requests(name, n, seed, k))

    unfused = sim_engine(name, k, acceptance, seed, max_batch=8, per_member=True)
    unfused_metrics = unfused.run(sim_requests(name, n, seed, k))

    assert (
        fused_metrics.total_generated_tokens()
        == unfused_metrics.total_generated_tokens()
        == plain_metrics.total_generated_tokens()
    )
    plain_tok_s = _decode_tok_s(plain_metrics)
    fused_tok_s = _decode_tok_s(fused_metrics)
    unfused_tok_s = _decode_tok_s(unfused_metrics)
    return {
        "scenario": name,
        "k": k,
        "acceptance": acceptance,
        "max_batch_size": 8,
        "requests": n,
        "plain_decode_tok_s": round(plain_tok_s, 1),
        "fused_decode_tok_s": round(fused_tok_s, 1),
        "unfused_decode_tok_s": round(unfused_tok_s, 1),
        "fused_speedup_vs_plain": round(fused_tok_s / plain_tok_s, 3),
        "fused_speedup_vs_unfused": round(fused_tok_s / unfused_tok_s, 3),
        "fused_beats_plain": bool(fused_tok_s > plain_tok_s),
    }


# -- verification cells: real engine, byte-identity + zero-leak --------------------


def make_backend(model) -> LServeBackend:
    engine = LServeEngine(
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
        num_cache_pages=1024,
    )
    return LServeBackend(engine)


def real_trace(name: str, model, n: int, max_new: int, seed: int, k: int):
    """Scenario-*shaped* mini traces sized for the real tiny-model engine.

    ``chat`` = short varied prompts; ``long_document_qa`` = one shared long
    repetitive document plus a short per-request question (the n-gram
    drafter's home turf); ``mixed_agentic`` = alternating short interactive
    prompts and longer tool-loop prompts with repeated spans.
    """
    vocab = model.config.vocab_size
    rng = np.random.default_rng(seed)
    sampling = SamplingParams(speculation_k=k)
    requests = []
    document = [int(t) for t in (np.arange(96) * 7) % vocab]
    for i in range(n):
        if name == "chat":
            prompt = [int(t) for t in rng.integers(0, vocab, size=24 + 8 * (i % 3))]
        elif name == "long_document_qa":
            question = [int(t) for t in rng.integers(0, vocab, size=8)]
            prompt = document + question
        else:  # mixed_agentic
            if i % 2:
                span = [int(t) for t in rng.integers(0, vocab, size=16)]
                prompt = span * 3 + [int(t) for t in rng.integers(0, vocab, size=8)]
            else:
                prompt = [int(t) for t in rng.integers(0, vocab, size=32)]
        requests.append(
            Request.from_prompt(
                f"{name}-r{i}",
                prompt,
                max_new_tokens=max_new,
                sampling=sampling,
                arrival_time_s=0.001 * i,
            )
        )
    return requests


def run_real(model, requests, draft=None):
    backend = make_backend(model)
    engine = ServingEngine(
        backend, SchedulerConfig(max_batch_size=4), draft_source=draft
    )
    t0 = time.perf_counter()
    engine.run(list(requests))
    elapsed = time.perf_counter() - t0
    outputs = {
        r.request_id: list(engine.handle(r.request_id).output_tokens)
        for r in requests
    }
    leaked = backend.engine.cache.dense_cache.allocator.num_allocated
    return engine, outputs, elapsed, leaked


def run_verification_cell(name: str, k: int, model, n: int, max_new: int, seed: int) -> dict:
    """Real-engine cell: n-gram + prerecorded drafts vs. the plain reference."""
    plain = [
        dataclasses.replace(r, sampling=SamplingParams())
        for r in real_trace(name, model, n, max_new, seed, k)
    ]
    _, reference, plain_s, leaked_ref = run_real(model, plain)

    spec = real_trace(name, model, n, max_new, seed, k)
    ngram_engine, ngram_out, ngram_s, leaked_ngram = run_real(
        model, spec, draft=NGramDraft(max_ngram=3)
    )
    rec_engine, rec_out, rec_s, leaked_rec = run_real(
        model, spec, draft=PrerecordedDraft(reference)
    )

    ngram_rate = ngram_engine.draft_tokens_accepted / max(
        ngram_engine.draft_tokens_proposed, 1
    )
    return {
        "scenario": name,
        "k": k,
        "requests": n,
        "byte_identical": ngram_out == reference and rec_out == reference,
        "leaked_pages": leaked_ref + leaked_ngram + leaked_rec,
        "ngram_acceptance": round(ngram_rate, 3),
        "prerecorded_acceptance": round(
            rec_engine.draft_tokens_accepted
            / max(rec_engine.draft_tokens_proposed, 1),
            3,
        ),
        "ngram_wall_speedup": round(plain_s / ngram_s, 3),
        "prerecorded_wall_speedup": round(plain_s / rec_s, 3),
    }


# -- report --------------------------------------------------------------------


def format_table(rows: list[dict]) -> str:
    """Fixed-width latency-sweep table for the console."""
    header = (
        f"{'scenario':>18} {'k':>3} {'accept':>7} {'decode x':>9} "
        f"{'tpot x':>7} {'eff tok/step':>13}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['scenario']:>18} {r['k']:>3} {r['acceptance']:>7.1f} "
            f"{r['decode_speedup']:>9.3f} {r['tpot_speedup']:>7.3f} "
            f"{r['effective_tokens_per_step']:>13.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """Run the sweep, check the contracts, and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI-sized run (fewer cells, shorter traces)",
    )
    parser.add_argument("--seed", type=int, default=0, help="model/workload seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        ks, acceptances, n_sim = (4,), (0.6, 1.0), 6
        real_n, real_max_new = 3, 16
    else:
        ks, acceptances, n_sim = (2, 4), (0.6, 0.8, 1.0), 8
        real_n, real_max_new = 4, 24

    latency_rows = [
        run_latency_cell(name, k, acc, n_sim, args.seed)
        for name in SCENARIOS
        for acc in acceptances
        for k in ks
    ]
    n_saturated = 12 if args.smoke else 16  # > max_batch_size: a full batch
    saturated_rows = [
        run_saturated_cell("chat", 4, acc, n_saturated, args.seed)
        for acc in (0.6, 1.0)
    ]

    model = TinyTransformer(tiny_model_config(), seed=11)
    verification_rows = [
        run_verification_cell(name, k, model, real_n, real_max_new, args.seed)
        for name in SCENARIOS
        for k in ks
    ]

    byte_identical_all = all(r["byte_identical"] for r in verification_rows)
    zero_leaked = all(r["leaked_pages"] == 0 for r in verification_rows)
    floor_rows = [r for r in latency_rows if r["acceptance"] >= 0.6]
    speedup_at_06 = all(
        r["decode_speedup"] > 1.0 and r["tpot_speedup"] > 1.0 for r in floor_rows
    )
    fused_beats_plain_saturated = all(
        r["fused_beats_plain"] for r in saturated_rows if r["acceptance"] >= 0.6
    )

    print(format_table(latency_rows))
    print("\nsaturated-batch fused verification (gated):")
    for r in saturated_rows:
        print(
            f"  {r['scenario']} k={r['k']} accept={r['acceptance']}: "
            f"fused x{r['fused_speedup_vs_plain']:.3f} vs plain, "
            f"x{r['fused_speedup_vs_unfused']:.3f} vs per-seq "
            f"at batch {r['max_batch_size']}"
        )
    print("\nreal-engine verification:")
    for r in verification_rows:
        print(
            f"  {r['scenario']} k={r['k']}: byte_identical={r['byte_identical']} "
            f"ngram_acceptance={r['ngram_acceptance']:.2f} "
            f"wall x{r['prerecorded_wall_speedup']:.2f} (prerecorded)"
        )
    print(
        f"\nbyte-identity {'OK' if byte_identical_all else 'FAILED'}; "
        f"zero-leak {'OK' if zero_leaked else 'FAILED'}; "
        f"speedup at acceptance >= 0.6 "
        f"{'OK' if speedup_at_06 else 'FAILED (perf_gate.py decides)'}; "
        f"saturated fused-beats-plain "
        f"{'OK' if fused_beats_plain_saturated else 'FAILED (perf_gate.py decides)'}"
    )

    report = {
        "benchmark": "speculative",
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "checks": {
            "byte_identical_all": byte_identical_all,
            "zero_leaked_pages": zero_leaked,
            "speedup_at_acceptance_0_6": speedup_at_06,
            "fused_beats_plain_saturated": fused_beats_plain_saturated,
        },
        "results": latency_rows,
        "saturated": saturated_rows,
        "verification": verification_rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {args.output}]")


if __name__ == "__main__":
    main()
