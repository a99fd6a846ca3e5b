"""Decode hot-path microbenchmark: vectorized batch decode vs. sequential.

Exercises the two paths the paper's speed figures rest on (Fig. 10 decode,
Fig. 11 prefill) on the real tiny-model ``LServeEngine`` and *checks* the
refactor's contract instead of just reporting numbers:

* the vectorized ``decode_batch`` step is **byte-identical** to decoding the
  same sequences one at a time through ``decode`` (same tokens, same order),
  at every step and every batch size swept;
* at the reference batch size the vectorized step sustains at least
  ``MIN_SPEEDUP``x the sequential tokens/sec *measured in the same run*, so
  the gate tracks a ratio (stable across machines) rather than an absolute
  wall-clock number.  Byte-identity is asserted here (it is deterministic);
  the speedup floor is enforced by ``benchmarks/perf_gate.py`` in CI, where
  the ``perf-regression-ok`` override label applies.

* the block-sparse prefill kernel realises its block sparsity on the wall
  clock (Fig. 12, measured): half-streaming over all-dense kernel time, in
  the same run, as a share of the theoretical ``1 / (1 - r)`` — the
  ``prefill.sparse_efficiency`` floor is enforced by ``perf_gate.py`` too.

Per-step wall time (also split into selector refresh steps and reuse hit
steps) and prefill tokens/sec are reported alongside as the
perf-trajectory record CI uploads for every run, and so is the cost of a
speculative verify + commit cycle beside a plain decode step of the same
batch (``verify``; recorded, not gated).

Run with::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI smoke

The JSON report is written to ``benchmarks/results/BENCH_hotpath.json``
(override with ``--output``); ``benchmarks/perf_gate.py`` diffs the smoke
report against the committed baseline in CI.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import time
from pathlib import Path

import numpy as np

import repro.core.engine as engine_module
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.core.unified_sparse_attention import prefill_sparse_attention
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_hotpath.json"

# Acceptance floor for vectorized-vs-sequential decode throughput at the
# reference batch size, measured within a single run.
MIN_SPEEDUP = 3.0
REFERENCE_BATCH = 32


def build_engine(batch: int, context: int, seed: int, kv_bits: int = 8) -> LServeEngine:
    """Tiny-model engine with a mixed dense/streaming head split, prefilled.

    The shape mirrors the fig10/fig11 harness: 2 layers, 8 query heads over
    4 KV heads (GQA group 2), alternating dense/streaming KV heads, KV8
    quantization (``kv_bits``), and a token budget small enough that dynamic
    page selection is active at the benchmarked context length.
    """
    cfg = tiny_model_config(
        n_layers=2, n_heads=8, n_kv_heads=4, head_dim=16, max_context_length=8192
    )
    model = TinyTransformer(cfg, seed=seed)
    config = LServeConfig(
        token_budget=256,
        physical_page_size=32,
        logical_page_size=16,
        sink_tokens=32,
        local_tokens=64,
        kv_bits=kv_bits,
        q_block_size=32,
    )
    engine = LServeEngine(
        model,
        config,
        streaming_kv_heads=np.array([False, True, False, True]),
        num_cache_pages=8192,
    )
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, cfg.vocab_size, size=context)
    for i in range(batch):
        engine.prefill(f"s{i}", prompt)
    return engine


def run_decode_cell(
    batch: int, context: int, steps: int, seed: int, passes: int = 5
) -> dict:
    """Time vectorized vs. sequential decode on identical engines.

    Both engines start from the same seeded prefill and consume the same
    token stream; the sequential run doubles as the byte-identity reference
    for every logits row the vectorized run produced.  Each engine decodes
    ``passes`` chunks of ``steps`` tokens, with the batched and sequential
    chunks *interleaved* so both paths sample the same machine conditions.
    Every decode step is timed individually and the per-step **median** is
    used for throughput — robust against the bursty scheduler noise of
    shared CI runners, which would corrupt a single min- or mean-of-passes
    estimate in either direction.

    ``calls_per_step`` is the interpreter-level call count of one batched
    step (Python and C calls under ``cProfile``, over ``steps`` extra untimed
    steps): the machine-independent reading of how much per-sequence Python
    is left in the step, recorded beside ``batched_step_ms``.

    ``refresh_step_ms`` and ``hit_step_ms`` split the batched steps by
    whether the page selector scored a fresh selection in them (a reuse
    chunk starting, or a new logical page) or served every member from its
    cached one; medians, with ``refresh_steps`` counting the former.
    Recorded, not gated.
    """
    rng = np.random.default_rng(seed + 1)
    vocab = 512
    total = passes * steps
    tokens = rng.integers(0, vocab, size=(batch, total + steps))
    seq_ids = [f"s{i}" for i in range(batch)]

    batched_engine = build_engine(batch, context, seed)
    sequential_engine = build_engine(batch, context, seed)
    batched_logits = []
    sequential_logits: list[list[np.ndarray]] = [[] for _ in range(batch)]
    batched_step_s = []
    refreshed = []
    sequential_step_s = []
    for p in range(passes):
        for t in range(p * steps, (p + 1) * steps):
            scored = batched_engine.selector.num_selector_calls
            t0 = time.perf_counter()
            batched_logits.append(
                batched_engine.decode_batch(seq_ids, tokens[:, t].tolist())
            )
            batched_step_s.append(time.perf_counter() - t0)
            refreshed.append(batched_engine.selector.num_selector_calls > scored)

        for t in range(p * steps, (p + 1) * steps):
            t0 = time.perf_counter()
            for i, seq_id in enumerate(seq_ids):
                sequential_logits[i].append(
                    sequential_engine.decode(seq_id, int(tokens[i, t]))
                )
            sequential_step_s.append(time.perf_counter() - t0)
    batched_s = float(np.median(batched_step_s)) * steps
    refresh_s = [dt for dt, fresh in zip(batched_step_s, refreshed) if fresh]
    hit_s = [dt for dt, fresh in zip(batched_step_s, refreshed) if not fresh]
    sequential_s = float(np.median(sequential_step_s)) * steps

    byte_identical = all(
        batched_logits[t][i].tobytes() == sequential_logits[i][t].tobytes()
        for t in range(total)
        for i in range(batch)
    )
    assert byte_identical, (
        f"vectorized decode_batch diverged from sequential decode "
        f"(batch={batch}, context={context})"
    )

    profile = cProfile.Profile()
    profile.enable()
    for t in range(total, total + steps):
        batched_engine.decode_batch(seq_ids, tokens[:, t].tolist())
    profile.disable()
    calls_per_step = pstats.Stats(profile).total_calls / steps

    n_tokens = batch * steps
    return {
        "batch": batch,
        "context": context,
        "steps": steps,
        "batched_tokens_per_s": round(n_tokens / batched_s, 1),
        "sequential_tokens_per_s": round(n_tokens / sequential_s, 1),
        "speedup": round(sequential_s / batched_s, 3),
        "batched_step_ms": round(batched_s / steps * 1e3, 3),
        "refresh_steps": len(refresh_s),
        "refresh_step_ms": round(float(np.median(refresh_s)) * 1e3, 3) if refresh_s else None,
        "hit_step_ms": round(float(np.median(hit_s)) * 1e3, 3) if hit_s else None,
        "calls_per_step": round(calls_per_step),
        "byte_identical": byte_identical,
    }


def run_prefill_cell(
    context: int, seed: int, repeats: int = 3, kernel_repeats: int = 7
) -> dict:
    """Prefill tokens/sec (fig11 path) and the *measured* Fig. 12 kernel ratio.

    The prompts are prefilled the way the serving path does it
    (``logits_to_keep=1``: every position's KV, the last position's logits).

    Fig. 12's claim is that the block-sparse prefill kernel approaches the
    theoretical ``1 / (1 - r)`` at block sparsity ``r``.  The kernel is timed
    at the engine's geometry with its half-streaming head split and with all
    heads dense, the two interleaved so both sample the same machine
    conditions, median of ``kernel_repeats``.  ``sparse_efficiency`` is the
    realised ratio over the theoretical one from the kernel's own block
    counts — an in-run ratio, so ``perf_gate.py`` can put a floor under it.
    """
    engine = build_engine(batch=0, context=context, seed=seed)
    rng = np.random.default_rng(seed + 2)
    prompt = rng.integers(0, 512, size=context)
    t0 = time.perf_counter()
    for i in range(repeats):
        engine.prefill(f"p{i}", prompt, logits_to_keep=1)
    elapsed = time.perf_counter() - t0

    cfg = engine.model.config
    q = rng.normal(size=(context, cfg.n_heads, cfg.head_dim))
    k = rng.normal(size=(context, cfg.n_kv_heads, cfg.head_dim))
    v = rng.normal(size=(context, cfg.n_kv_heads, cfg.head_dim))
    head_splits = {
        "sparse": engine.streaming_query_heads,
        "dense": np.zeros(cfg.n_heads, dtype=bool),
    }
    kernel_s: dict[str, list[float]] = {name: [] for name in head_splits}
    stats = {}
    for _ in range(kernel_repeats):
        for name, head_is_streaming in head_splits.items():
            t0 = time.perf_counter()
            _, stats[name] = prefill_sparse_attention(
                q,
                k,
                v,
                head_is_streaming,
                engine.config.sink_tokens,
                engine.config.local_tokens,
                q_block=engine.config.q_block_size,
                kv_block=engine.config.physical_page_size,
            )
            kernel_s[name].append(time.perf_counter() - t0)
    theoretical = stats["sparse"].theoretical_speedup
    sparse_s = float(np.median(kernel_s["sparse"]))
    dense_s = float(np.median(kernel_s["dense"]))
    realised = dense_s / sparse_s
    return {
        "context": context,
        "repeats": repeats,
        "tokens_per_s": round(repeats * context / elapsed, 1),
        "kernel_repeats": kernel_repeats,
        "sparse_kernel_ms": round(sparse_s * 1e3, 3),
        "dense_kernel_ms": round(dense_s * 1e3, 3),
        "realised_speedup": round(realised, 3),
        "theoretical_speedup": round(theoretical, 3),
        "sparse_efficiency": round(realised / theoretical, 3),
    }


def run_verify_cell(batch: int, context: int, k: int, steps: int, seed: int) -> dict:
    """A speculative verify + commit cycle beside a plain decode step.

    ``verify_step_ms`` is one ``decode_speculative_batch`` of ``batch``
    chunks of ``k + 1`` tokens (verified run by run in the sequences' own
    pages, then the rewind) followed by committing every chunk whole in
    one ``commit_speculative`` call, of which ``commit_ms`` is the commit
    alone; ``decode_step_ms`` is one
    ``decode_batch`` of the same batch on a twin engine.  The two are
    interleaved, medians of ``steps``.  ``attention_calls_per_verify`` and
    ``advance_calls_per_verify`` count, per verify, the
    ``decode_batched_attention`` calls and the cache's ``advance`` calls
    (one per attention phase and layer); they are exact for the seed.
    """
    verify_engine, decode_engine = (build_engine(batch, context, seed) for _ in range(2))
    seq_ids = [f"s{i}" for i in range(batch)]
    rng = np.random.default_rng(seed + 3)
    verify_s, commit_s, decode_s = [], [], []
    calls = {"attention": 0, "advance": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for _ in range(steps):
        chunks = rng.integers(0, 512, size=(batch, k + 1))
        attention, advance = engine_module.decode_batched_attention, verify_engine.cache.advance
        engine_module.decode_batched_attention = counted("attention", attention)
        verify_engine.cache.advance = counted("advance", advance)
        t0 = time.perf_counter()
        results = verify_engine.decode_speculative_batch(list(zip(seq_ids, chunks)))
        t1 = time.perf_counter()
        engine_module.decode_batched_attention = attention
        del verify_engine.cache.advance
        verify_engine.commit_speculative([(seq_id, chunk, k + 1) for seq_id, (_, chunk) in zip(seq_ids, results)])
        t2 = time.perf_counter()
        verify_s.append(t2 - t0)
        commit_s.append(t2 - t1)
        t0 = time.perf_counter()
        decode_engine.decode_batch(seq_ids, chunks[:, 0])
        decode_s.append(time.perf_counter() - t0)
    verify_ms, decode_ms = float(np.median(verify_s)) * 1e3, float(np.median(decode_s)) * 1e3
    return {
        "batch": batch,
        "context": context,
        "speculation_k": k,
        "steps": steps,
        "verify_step_ms": round(verify_ms, 3),
        "commit_ms": round(float(np.median(commit_s)) * 1e3, 3),
        "decode_step_ms": round(decode_ms, 3),
        "verify_over_decode": round(verify_ms / decode_ms, 3),
        "attention_calls_per_verify": calls["attention"] / steps,
        "advance_calls_per_verify": calls["advance"] / steps,
    }


def format_table(rows: list[dict]) -> str:
    """Fixed-width decode sweep table for the console."""
    header = (
        f"{'batch':>6} {'ctx':>6} {'batched tok/s':>14} "
        f"{'sequential tok/s':>17} {'speedup':>8} {'ms/step':>8} {'refresh':>8} {'hit':>8} "
        f"{'calls/step':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        refresh, hit = (
            f"{x:>8.2f}" if x is not None else f"{'-':>8}" for x in (r["refresh_step_ms"], r["hit_step_ms"])
        )
        lines.append(
            f"{r['batch']:>6} {r['context']:>6} {r['batched_tokens_per_s']:>14.1f} "
            f"{r['sequential_tokens_per_s']:>17.1f} {r['speedup']:>8.2f} "
            f"{r['batched_step_ms']:>8.2f} {refresh} {hit} {r['calls_per_step']:>11d}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """Run the sweep, check identity and speedup, and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI-sized run (reference batch only, short context)",
    )
    parser.add_argument("--seed", type=int, default=0, help="model/workload seed")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        context, steps, prefill_context, verify_steps = 512, 6, 2048, 10
        batches = [REFERENCE_BATCH]
    else:
        context, steps, prefill_context, verify_steps = 512, 10, 4096, 30
        batches = [REFERENCE_BATCH, 8, 1]

    rows = [run_decode_cell(b, context, steps, args.seed) for b in batches]
    prefill = run_prefill_cell(prefill_context, args.seed)
    verify = run_verify_cell(8, context, 4, verify_steps, args.seed)

    reference = rows[0]
    assert reference["batch"] == REFERENCE_BATCH
    speedup_ok = reference["speedup"] >= MIN_SPEEDUP

    print(format_table(rows))
    print(
        f"\nprefill (ctx {prefill['context']}): {prefill['tokens_per_s']:.1f} tok/s; "
        f"sparse kernel {prefill['realised_speedup']:.2f}x over dense, "
        f"theoretical {prefill['theoretical_speedup']:.2f}x "
        f"(efficiency {prefill['sparse_efficiency']:.2f}, floor enforced by perf_gate.py)"
    )
    print(
        f"verify + commit (batch {verify['batch']}, k={verify['speculation_k']}): "
        f"{verify['verify_step_ms']:.2f} ms (commit {verify['commit_ms']:.2f} ms) vs decode "
        f"{verify['decode_step_ms']:.2f} ms ({verify['verify_over_decode']:.2f}x); per verify "
        f"{verify['attention_calls_per_verify']:g} attention calls, {verify['advance_calls_per_verify']:g} advances"
    )
    print(
        f"byte-identity: OK across all cells; reference speedup "
        f"{reference['speedup']:.2f}x (nominal floor {MIN_SPEEDUP}x, "
        f"enforced by perf_gate.py)"
    )
    if not speedup_ok:
        print(
            f"WARNING: speedup below the {MIN_SPEEDUP}x nominal floor this run "
            f"(noisy runner?) — perf_gate.py decides pass/fail"
        )
    report = {
        "benchmark": "hotpath",
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "min_speedup": MIN_SPEEDUP,
        "reference_batch": REFERENCE_BATCH,
        "checks": {
            "byte_identical_batched_decode": all(r["byte_identical"] for r in rows),
            "speedup_at_least_floor": speedup_ok,
        },
        "prefill": prefill,
        "verify": verify,
        "results": rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {args.output}]")


if __name__ == "__main__":
    main()
