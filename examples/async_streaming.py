"""Async streaming walkthrough: live submission, SSE, cancellation, gauges.

Serves a tiny synthetic-weight transformer through the asyncio front end and
shows the four things the async layer adds over the batch API:

1. **per-token streaming** — tokens print as they are emitted; time to first
   token is measured at the first ``async for`` yield;
2. **live arrivals** — a second request is submitted while the first is
   mid-decode and joins the running batch;
3. **cancellation** — a long generation is aborted mid-stream and its KV is
   reclaimed (watch the gauges);
4. **the HTTP front end** — the same engine served over OpenAI-style
   ``POST /v1/completions`` with SSE, probed with the bundled async client.

Run with:  python examples/async_streaming.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.tokenizer import ToyTokenizer
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    CompletionClient,
    CompletionServer,
    LServeBackend,
    Request,
    SchedulerConfig,
)


def make_backend(model: TinyTransformer) -> LServeBackend:
    engine = LServeEngine(
        model,
        LServeConfig(
            streaming_head_ratio=0.5,
            sink_tokens=16,
            local_tokens=32,
            token_budget=64,
            physical_page_size=16,
            logical_page_size=4,
            reuse_interval=4,
            kv_bits=8,
            q_block_size=16,
        ),
        num_cache_pages=256,
    )
    return LServeBackend(engine)


async def streaming_demo(model: TinyTransformer) -> None:
    prompt = np.arange(64) % model.config.vocab_size
    async with AsyncServingEngine(
        make_backend(model), SchedulerConfig(max_batch_size=4)
    ) as server:
        print("— streaming + a live arrival —")
        start = time.perf_counter()
        first = server.submit(
            Request.from_prompt("first", prompt, max_new_tokens=16), arrive_now=True
        )
        late = None
        tokens = []
        async for token in first.stream():
            if not tokens:
                print(f"  first token after {1e3 * (time.perf_counter() - start):.1f} ms "
                      "(completion still in flight)")
            tokens.append(token)
            if len(tokens) == 4:
                # The engine is mid-decode; this request joins the next iteration.
                late = server.submit(
                    Request.from_prompt("late", prompt[:32], max_new_tokens=8),
                    arrive_now=True,
                )
        print(f"  'first' streamed {len(tokens)} tokens: {tokens[:6]}...")
        print(f"  'late'  joined mid-run and produced {len(await late.result())} tokens")

        print("\n— cancellation reclaims KV —")
        victim = server.submit(
            Request.from_prompt("victim", prompt, max_new_tokens=2048), arrive_now=True
        )
        got = []
        async for token in victim.stream():
            got.append(token)
            if len(got) == 8:
                print(f"  gauges before cancel: {server.live_gauges().backend_kv_tokens} "
                      "backend KV tokens")
                victim.cancel()
        print(f"  cancelled after {len(got)} of 2048 tokens; "
              f"gauges after cancel: {server.live_gauges().backend_kv_tokens} "
              "backend KV tokens")


async def http_demo(model: TinyTransformer) -> None:
    print("\n— the HTTP front end —")
    tokenizer = ToyTokenizer(vocab_size=model.config.vocab_size)
    async with AsyncServingEngine(
        make_backend(model), SchedulerConfig(max_batch_size=4)
    ) as engine:
        async with CompletionServer(engine, port=0, tokenizer=tokenizer) as server:
            client = CompletionClient(server.host, server.port)
            print(f"  serving on http://{server.address}  "
                  f"(healthz: {(await client.healthz())['status']})")
            result = await client.complete(
                "the quick brown fox jumps over the lazy dog",
                max_tokens=12,
                stream=True,
            )
            print(f"  SSE stream: {len(result.token_ids)} tokens, "
                  f"TTFT {1e3 * result.wall_ttft_s:.1f} ms, "
                  f"completion {1e3 * result.wall_latency_s:.1f} ms")
            print(f"  decoded text: {result.text!r}")
            metrics = await client.metrics()
            completed = [line for line in metrics.splitlines()
                         if line.startswith("repro_serving_completed")]
            print(f"  /metrics says: {completed[0]}")


def main() -> None:
    model = TinyTransformer(tiny_model_config(), seed=0)
    asyncio.run(streaming_demo(model))
    asyncio.run(http_demo(model))


if __name__ == "__main__":
    main()
