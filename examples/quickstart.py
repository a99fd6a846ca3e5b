"""Quickstart: serve a small model through the unified serving front door.

Builds a tiny synthetic-weight transformer, wraps it in the real
``LServeBackend`` (streaming heads + quantized paged KV + hierarchical page
selection), and generates through ``ServingEngine`` — the same API that drives
the cost-model ``SimulatedBackend`` in the other examples.  Reports the work
the sparse engine skipped.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.tokenizer import ToyTokenizer
from repro.model.transformer import TinyTransformer
from repro.serving import LServeBackend, SamplingParams, SchedulerConfig, ServingEngine


def main() -> None:
    config = tiny_model_config(n_layers=2, n_heads=4, n_kv_heads=2, head_dim=16)
    model = TinyTransformer(config, seed=0)
    tokenizer = ToyTokenizer(vocab_size=config.vocab_size)

    prompt = "the quick brown fox jumps over the lazy dog " * 24
    prompt_ids = np.array(tokenizer.encode(prompt))
    print(f"Prompt: {prompt_ids.size} tokens, model: {config.name} "
          f"({config.n_layers} layers, {config.n_heads} heads)")

    # Dense reference generation: the same engine with every sparsity off.
    dense_out = LServeEngine(model, LServeConfig.dense_baseline()).generate(prompt_ids, max_new_tokens=8)

    # LServe serving configuration scaled down to the tiny model.
    lserve_config = LServeConfig(
        streaming_head_ratio=0.5,
        sink_tokens=16,
        local_tokens=32,
        token_budget=64,
        physical_page_size=16,
        logical_page_size=4,
        reuse_interval=4,
        kv_bits=8,
        q_block_size=16,
    )
    engine = LServeEngine(
        model,
        lserve_config,
        calibration_tokens=prompt_ids[:64],
        num_cache_pages=256,
    )
    print(f"Streaming KV heads chosen offline: {engine.streaming_kv_heads.tolist()}")

    # The serving front door: the same ServingEngine API also drives the
    # cost-model backend (see examples/serving_throughput.py).
    backend = LServeBackend(engine)
    server = ServingEngine(backend, SchedulerConfig(max_batch_size=4))
    lserve_out = server.generate(
        prompt_ids,
        max_new_tokens=8,
        sampling=SamplingParams.greedy(stop_token_ids=(tokenizer.eos_id,)),
    )

    print(f"\nDense generation : {dense_out}")
    print(f"LServe generation: {lserve_out}")
    agree = sum(a == b for a, b in zip(dense_out, lserve_out)) / len(dense_out)
    print(f"Token agreement  : {agree:.0%}  "
          "(a random-weight toy model has no redundant heads, so divergence is "
          "expected here; the paper's accuracy parity claims are reproduced by "
          "the eval harnesses and benchmarks, not by this toy model)")

    stats = engine.stats
    work = backend.work
    print("\nLServe work statistics (from the same serving run)")
    print(f"  prefill block sparsity : {stats.prefill_block_sparsity:.1%} of causal tiles skipped")
    print(f"  decode KV compression  : {stats.decode_kv_compression:.1%} of dense-head KV read")
    print(f"  selector invocations   : {engine.selector.num_selector_calls} "
          f"for {engine.selector.num_queries} queries "
          f"({engine.selector.overhead_reduction():.1f}x reuse)")
    print(f"  backend work           : {work.prefill_tokens} prefill tokens, {work.decode_tokens} "
          f"decode tokens in {work.decode_iterations} iterations")
    print(f"  serving metrics        : TTFT {server.metrics.mean_ttft_s() * 1e3:.1f} ms, "
          f"TPOT {server.metrics.mean_time_per_output_token_s() * 1e3:.1f} ms "
          "(wall-clock of this toy CPU run)")


if __name__ == "__main__":
    main()
