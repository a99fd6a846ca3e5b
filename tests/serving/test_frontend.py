"""Tests for the asyncio serving front end: streaming, cancellation, drain.

The acceptance-critical properties:

* tokens collected by streaming through ``AsyncServingEngine`` are
  **byte-identical** to a ``ServingEngine.run`` batch run on the same trace,
  with preemption enabled;
* TTFT is observable at the first stream yield, long before completion;
* aborting a streaming request mid-decode leaks **zero** pages (allocator
  refcount audit, same invariant style as tests/kvcache/test_prefix_sharing.py)
  and does not perturb the byte-identity of concurrent requests;
* drain/shutdown honour their contract (drain serves everything, refuses new
  submissions; shutdown aborts what is left).

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    LServeBackend,
    Request,
    RequestAborted,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
)
from tests.conftest import assert_no_leaked_pages

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def make_backend(model, prefix_cache=False, num_pages=512) -> LServeBackend:
    """Aligned 16-bit config so prefix attach (when enabled) is byte-exact."""
    return LServeBackend(
        LServeEngine(
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
                reuse_interval=4,
                prefix_cache_enabled=prefix_cache,
            ),
            streaming_kv_heads=STREAMING_MASK,
            num_cache_pages=num_pages,
        )
    )


def prompt(model, seed: int, n: int = 48) -> np.ndarray:
    return (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size


def trace(model, n=6, max_new=40) -> list[Request]:
    return [
        Request.from_prompt(
            f"r{i}", prompt(model, i, 48 + 16 * (i % 3)), max_new_tokens=max_new
        )
        for i in range(n)
    ]


#: Tight enough that concurrent decode growth overcommits the pool and
#: triggers recompute preemption mid-run (asserted below).
TIGHT = SchedulerConfig(
    max_batch_size=4, kv_token_capacity=256, kv_high_watermark=230, kv_low_watermark=128
)


def batch_baseline(model, requests, config) -> tuple[dict[str, list[int]], int]:
    """Outputs + preemption count of the synchronous batch API on a trace."""
    engine = ServingEngine(make_backend(model), config)
    handles = [engine.submit(r) for r in requests]
    metrics = engine.run_until_complete()
    return (
        {h.request_id: list(h.output_tokens) for h in handles},
        metrics.total_preemptions(),
    )


class TestStreaming:
    @pytest.mark.slow
    def test_stream_byte_identical_to_batch_run_under_preemption(self, model):
        requests = trace(model)
        expected, preemptions = batch_baseline(model, requests, TIGHT)
        assert preemptions > 0, "trace must exercise preemption for this to count"

        async def main():
            async with AsyncServingEngine(make_backend(model), TIGHT) as server:
                handles = [server.submit(r) for r in requests]
                outs = {}
                for h in handles:
                    outs[h.request_id] = [t async for t in h.stream()]
                return outs

        assert asyncio.run(main()) == expected

    def test_first_token_observed_before_completion(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                handle = server.submit(
                    Request.from_prompt("r0", prompt(model, 0), max_new_tokens=16)
                )
                ttft_seen_unfinished = None
                count = 0
                async for _ in handle.stream():
                    if count == 0:
                        # TTFT is observable here; the request is still decoding.
                        ttft_seen_unfinished = not handle.finished
                    count += 1
                return ttft_seen_unfinished, count

        unfinished_at_first_token, count = asyncio.run(main())
        assert unfinished_at_first_token is True
        assert count == 16

    def test_late_submission_joins_live_engine(self, model):
        solo_engine = ServingEngine(make_backend(model))
        solo = solo_engine.generate(prompt(model, 7), max_new_tokens=8)

        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                first = server.submit(
                    Request.from_prompt("first", prompt(model, 1), max_new_tokens=24)
                )
                stream = first.stream()
                prefix = [await anext(stream), await anext(stream)]
                # The engine is mid-decode; submit a brand-new request now.
                late = server.submit(
                    Request.from_prompt("late", prompt(model, 7), max_new_tokens=8),
                    arrive_now=True,
                )
                late_tokens = await late.result()
                rest = [t async for t in stream]
                return prefix + rest, late_tokens

        first_tokens, late_tokens = asyncio.run(main())
        assert late_tokens == solo
        assert len(first_tokens) == 24

    def test_result_matches_stream(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                a = server.submit(
                    Request.from_prompt("a", prompt(model, 2), max_new_tokens=6)
                )
                b = server.submit(
                    Request.from_prompt("b", prompt(model, 2), max_new_tokens=6)
                )
                streamed = [t async for t in a.stream()]
                awaited = await b.result()
                return streamed, awaited, a.output_tokens

        streamed, awaited, accumulated = asyncio.run(main())
        assert streamed == awaited == accumulated  # same prompt, same tokens

    def test_drain_serves_inflight_and_refuses_new(self, model):
        async def main():
            server = AsyncServingEngine(make_backend(model))
            handle = server.submit(
                Request.from_prompt("r0", prompt(model, 0), max_new_tokens=8)
            )
            metrics = await server.drain()
            with pytest.raises(RuntimeError, match="draining"):
                server.submit(
                    Request.from_prompt("r1", prompt(model, 1), max_new_tokens=4)
                )
            return handle, metrics

        handle, metrics = asyncio.run(main())
        assert handle.finished and not handle.cancelled
        assert len(handle.output_tokens) == 8
        assert len(metrics) == 1

    def test_shutdown_aborts_inflight(self, model):
        async def main():
            server = AsyncServingEngine(make_backend(model))
            # Long enough never to end before the shutdown, small enough for the page pool.
            handle = server.submit(
                Request.from_prompt("r0", prompt(model, 0), max_new_tokens=4_000)
            )
            stream = handle.stream()
            await anext(stream)  # ensure it is genuinely mid-decode
            await server.shutdown()
            return handle

        handle = asyncio.run(main())
        assert handle.cancelled
        assert 1 <= len(handle.output_tokens) < 4_000


class TestCancellation:
    def test_cancel_mid_decode_leaks_zero_pages(self, model):
        """Abort releases every page the request held (allocator audit)."""
        backend = make_backend(model, prefix_cache=False)
        allocator = backend.engine.cache.dense_cache.allocator

        solo = ServingEngine(make_backend(model)).generate(
            prompt(model, 5), max_new_tokens=12
        )

        async def main():
            async with AsyncServingEngine(backend) as server:
                victim = server.submit(
                    Request.from_prompt("victim", prompt(model, 3), max_new_tokens=400)
                )
                survivor = server.submit(
                    Request.from_prompt("survivor", prompt(model, 5), max_new_tokens=12)
                )
                got = []
                async for token in victim.stream():
                    got.append(token)
                    if len(got) == 3:
                        assert victim.cancel() is True
                with pytest.raises(RequestAborted) as excinfo:
                    await victim.result()
                assert excinfo.value.partial_tokens == got
                survivor_tokens = await survivor.result()
                return got, survivor_tokens

        got, survivor_tokens = asyncio.run(main())
        assert len(got) == 3
        # Zero leaked pages: the victim's KV went back to the pool at abort,
        # the survivor's at retire.
        assert_no_leaked_pages(allocator, backend=backend)
        # ... and the concurrent request's bytes never noticed.
        assert survivor_tokens == solo

    def test_cancel_with_prefix_cache_only_index_refs_remain(self, model):
        """With sharing on, abort decrefs the victim's references only.

        After the abort and a full drain every still-allocated page must be
        held by exactly one reference — the prefix index's — mirroring the
        refcount-audit style of tests/kvcache/test_prefix_sharing.py.
        """
        backend = make_backend(model, prefix_cache=True)
        allocator = backend.engine.cache.dense_cache.allocator
        shared = prompt(model, 1, 64)
        reqs = [
            Request.from_prompt(
                f"r{i}",
                np.concatenate([shared, prompt(model, 10 + i, 16)]),
                max_new_tokens=200 if i == 0 else 8,
            )
            for i in range(3)
        ]

        async def main():
            async with AsyncServingEngine(backend) as server:
                handles = [server.submit(r) for r in reqs]
                stream = handles[0].stream()
                for _ in range(4):
                    await anext(stream)
                handles[0].cancel()
                for h in handles[1:]:
                    await h.result()
                return None

        asyncio.run(main())
        assert allocator.num_allocated > 0  # the index keeps prefixes alive
        for page in range(allocator.capacity):
            if allocator.refcount(page) > 0:
                assert allocator.refcount(page) == 1  # index only, no leaked seq refs
        assert backend.kv_tokens_in_use() == 0

    def test_abort_waiting_request_never_admitted(self, model):
        one_at_a_time = SchedulerConfig(max_batch_size=1)
        backend = make_backend(model)
        allocator = backend.engine.cache.dense_cache.allocator

        async def main():
            async with AsyncServingEngine(backend, one_at_a_time) as server:
                running = server.submit(
                    Request.from_prompt("running", prompt(model, 0), max_new_tokens=16)
                )
                queued = server.submit(
                    Request.from_prompt("queued", prompt(model, 1), max_new_tokens=16)
                )
                stream = running.stream()
                await anext(stream)
                assert queued.cancel() is True
                queued_tokens = [t async for t in queued.stream()]
                rest = [t async for t in stream]
                return queued_tokens, rest

        queued_tokens, rest = asyncio.run(main())
        assert queued_tokens == []  # never admitted, never emitted
        assert len(rest) == 15
        assert_no_leaked_pages(allocator)

    def test_abort_pending_future_arrival(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                # Arrival far in the virtual future: stays on the arrivals list.
                ghost = server.submit(
                    Request.from_prompt(
                        "ghost", prompt(model, 2), max_new_tokens=4,
                        arrival_time_s=1e9,
                    )
                )
                assert server.abort("ghost") is True
                now = server.submit(
                    Request.from_prompt("now", prompt(model, 3), max_new_tokens=4),
                    arrive_now=True,
                )
                return ghost, await now.result()

        ghost, now_tokens = asyncio.run(main())
        assert ghost.cancelled and ghost.output_tokens == []
        assert len(now_tokens) == 4

    def test_abort_terminal_and_unknown(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                done = server.submit(
                    Request.from_prompt("done", prompt(model, 0), max_new_tokens=2)
                )
                await done.result()
                assert done.cancel() is False  # already finished: no-op
                # Terminal requests are pruned from the live maps, so
                # finished and never-existed ids both report "not in flight".
                assert server.abort("done") is False
                assert server.abort("no-such-request") is False

        asyncio.run(main())

    def test_terminal_handles_are_pruned_but_keep_working(self, model):
        """A long-lived engine must not accumulate one handle per request."""

        async def main():
            async with AsyncServingEngine(make_backend(model)) as server:
                handles = [
                    server.submit(
                        Request.from_prompt(f"r{i}", prompt(model, i), max_new_tokens=4),
                        arrive_now=True,
                    )
                    for i in range(5)
                ]
                outputs = [await h.result() for h in handles]
                # Both the async and the sync engine maps are empty again...
                assert server._handles == {}
                assert server.engine._handles == {}
                # ...while the handles the caller kept still serve results.
                assert all(len(out) == 4 for out in outputs)
                assert all(h.output_tokens == out for h, out in zip(handles, outputs))
                assert len(server.metrics) == 5

        asyncio.run(main())

    def test_drive_loop_failure_ends_streams_and_surfaces_error(self, model):
        """A step exception must not strand consumers on never-ending streams."""

        class ExplodingBackend:
            produces_logits = True  # delegates to the real backend's logits

            def __init__(self, inner):
                self.inner = inner
                self.work = inner.work
                self.calls = 0

            def prefill(self, seq_id, token_ids):
                return self.inner.prefill(seq_id, token_ids)

            def decode_batch(self, seq_ids, token_ids):
                self.calls += 1
                if self.calls >= 3:
                    raise RuntimeError("injected backend fault")
                return self.inner.decode_batch(seq_ids, token_ids)

            def release(self, seq_id):
                self.inner.release(seq_id)

        backend = ExplodingBackend(make_backend(model))

        async def main():
            server = AsyncServingEngine(backend)
            handle = server.submit(
                Request.from_prompt("r0", prompt(model, 0), max_new_tokens=64)
            )
            tokens = [t async for t in handle.stream()]  # ends instead of hanging
            assert handle.finished
            with pytest.raises(RuntimeError, match="drive loop failed"):
                server.submit(
                    Request.from_prompt("r1", prompt(model, 1), max_new_tokens=4)
                )
            with pytest.raises(RuntimeError, match="drive loop failed") as excinfo:
                await server.shutdown()
            assert "injected backend fault" in str(excinfo.value.__cause__)
            return tokens

        tokens = asyncio.run(main())
        assert 1 <= len(tokens) < 64


class TestBoundedState:
    """A server that never restarts holds no per-request state once its requests end."""

    @staticmethod
    def container_sizes(*owners) -> dict[str, int]:
        """Length of every list, dict and set attribute of each owner, by ``Type.attribute``."""
        return {
            f"{type(owner).__name__}.{name}": len(value)
            for owner in owners
            for name, value in vars(owner).items()
            if isinstance(value, (list, dict, set))
        }

    def serve(self, n: int) -> dict[str, int]:
        """Serve ``n`` short requests, every fifth aborted after its first token."""
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())

        async def consume(i, handle):
            async for _ in handle.stream():
                if i % 5 == 0:
                    handle.cancel()

        async def main():
            async with AsyncServingEngine(
                SimulatedBackend(latency), SchedulerConfig(max_batch_size=8)
            ) as server:
                handles = [
                    server.submit(Request(f"r{i}", prompt_tokens=64, max_new_tokens=6))
                    for i in range(n)
                ]
                await asyncio.gather(*(consume(i, h) for i, h in enumerate(handles)))
                assert sum(h.cancelled for h in handles) == n // 5
                engine = server.engine
                # The one exemption: a record per completed request (not bounded yet).
                assert len(engine.metrics.records) == n - n // 5
                return self.container_sizes(server, engine, engine.scheduler, engine.backend)

        return asyncio.run(main())

    def test_containers_do_not_grow_with_requests_served(self):
        small, large = self.serve(50), self.serve(200)
        assert small.keys() == large.keys() and small
        grown = {name: (small[name], large[name]) for name in small if small[name] != large[name]}
        assert grown == {}
