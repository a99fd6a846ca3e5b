"""One workload in one fresh process: build the stack, serve the blocks, check, report.

``run.py`` spawns this once per workload (and a few more times for set-up
samples) so that ``setup_s`` and ``peak_rss_mb`` belong to one workload alone.
Server, load generator and engine share one thread and one event loop.

The stack is the real request path, wall-billed::

    CompletionServer -> AsyncServingEngine -> ServingEngine.step
        -> LServeBackend(latency=None) -> LServeEngine -> DualPagedKVCache
"""

from __future__ import annotations

import asyncio
import dataclasses
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

import trace as e2e_trace
from client import Served, inproc_completion, sse_completion
from guard import Guard
from metrics import LayerFold, block_end_to_end, end_to_end
from workloads import (
    SPEC_DISTINCT_PROMPTS,
    VOCAB_SIZE,
    WORKLOADS,
    RequestSpec,
    Workload,
    block_requests,
    digest,
    warmup_requests,
)

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    CompletionServer,
    LServeBackend,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
)

# The engine geometry bench_hotpath.py and the ROADMAP profile use, so numbers line up.
MODEL_CONFIG = tiny_model_config(n_layers=2, n_heads=8, n_kv_heads=4, head_dim=16, max_context_length=8192)
LSERVE_CONFIG = LServeConfig(
    token_budget=256,
    physical_page_size=32,
    logical_page_size=16,
    sink_tokens=32,
    local_tokens=64,
    kv_bits=8,
    q_block_size=32,
)
STREAMING_KV_HEADS = (False, True, False, True)
NUM_CACHE_PAGES = 8192
MODEL_SEED = 0  # the program under test; --seed drives the inputs only
CHECKED_PER_WORKLOAD = 4
# Not 5: with speculation_k=4 a verify step advances k+1=5 positions, a period of 5 puts every
# corrupted token on the slot the engine samples itself, and acceptance reads 0.995.
DRAFT_CORRUPT_EVERY = 13
MAX_TIMED_BLOCKS = 64  # a timed pass serves no more, however fast the machine
# Resident memory grows a little with every block served, and how many blocks a pass serves
# depends on how many the guard rejects: the peak is read at a fixed amount of work.
RSS_AFTER_BLOCKS = 3


@dataclass
class Stack:
    """The serving stack of one pass, built by :func:`open_stack`."""

    engine: LServeEngine
    frontend: AsyncServingEngine
    server: CompletionServer | None
    draft: PrerecordedDraft | None
    tracer: e2e_trace.Tracer | None


def new_engine(num_cache_pages: int) -> LServeEngine:
    return LServeEngine(
        TinyTransformer(MODEL_CONFIG, seed=MODEL_SEED),
        LSERVE_CONFIG,
        streaming_kv_heads=np.array(STREAMING_KV_HEADS),
        num_cache_pages=num_cache_pages,
    )


async def open_stack(w: Workload, seed: int, tracer: e2e_trace.Tracer | None) -> Stack:
    """Build the stack (with timing wrappers when given a tracer) and drain four warm-up requests."""
    engine = new_engine(NUM_CACHE_PAGES)
    backend = LServeBackend(engine, latency=None)
    draft = PrerecordedDraft({}) if w.speculation_k else None
    if tracer is not None:
        below = {
            "engine": engine,
            "engine_module": sys.modules["repro.core.engine"],
            "selector": engine.selector,
            "cache": engine.cache,
            "dense_cache": engine.cache.dense_cache,
            "backend": backend,
        }
        if draft is not None:
            below["draft"] = draft
        e2e_trace.instrument(tracer, below)
    frontend = AsyncServingEngine(
        backend,
        SchedulerConfig(
            max_batch_size=w.max_batch_size,
            kv_token_capacity=NUM_CACHE_PAGES * LSERVE_CONFIG.physical_page_size,
        ),
        draft_source=draft,
    )
    if tracer is not None:
        e2e_trace.instrument(
            tracer,
            {
                "frontend": frontend,
                "serving": frontend.engine,
                "serving_module": sys.modules["repro.serving.engine"],
                "scheduler": frontend.engine.scheduler,
            },
        )
    server = None
    if w.driver == "http":
        server = await CompletionServer(frontend, host="127.0.0.1", port=0).start()
    stack = Stack(engine, frontend, server, draft, tracer)
    await serve_block(stack, w, warmup_requests(w.name, seed), "warmup")
    if tracer is not None:
        tracer.take()
    return stack


async def close_stack(stack: Stack) -> dict:
    """Drain and shut the stack down; report what must be zero afterwards."""
    if stack.server is not None:
        await stack.server.close()
    await stack.frontend.drain()
    if stack.tracer is not None:
        stack.tracer.restore()
    return {
        "leaked_pages": stack.engine.cache.dense_cache.allocator.num_allocated,
        "preemptions": stack.frontend.engine.scheduler.total_preemptions,
    }


async def serve_block(
    stack: Stack, w: Workload, specs: list[RequestSpec], tag: str, scripts: dict | None = None
) -> dict:
    """Serve ``specs`` closed-loop on ``w.concurrency`` connections or streams.

    ``scripts`` (draft tokens per distinct prompt) turns speculation on for the block.
    """
    todo = deque(enumerate(specs))
    served: list[Served | None] = [None] * len(specs)
    sampling = SamplingParams(speculation_k=w.speculation_k) if scripts is not None else None

    async def one_client() -> None:
        while todo:
            i, spec = todo.popleft()
            if stack.server is not None:
                served[i] = await sse_completion(stack.server.host, stack.server.port, spec.prompt, spec.max_tokens)
            else:
                request = Request.from_prompt(f"{tag}-r{i}", spec.prompt, spec.max_tokens, sampling=sampling)
                if scripts is not None:
                    stack.draft.scripts[request.request_id] = scripts[spec.prompt_key]
                served[i] = await inproc_completion(stack.frontend, request)
                if scripts is not None:
                    del stack.draft.scripts[request.request_id]

    start = time.perf_counter()
    await asyncio.gather(*(one_client() for _ in range(w.concurrency)))
    end = time.perf_counter()
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "http": stack.server is not None,
        "specs": specs,
        "served": served,
        "records": [
            {
                "request_id": s.request_id,
                "prompt_tokens": len(spec.prompt),
                "sent_at": s.sent_at,
                "token_times": s.token_times,
                "done_at": s.done_at,
            }
            for spec, s in zip(specs, served)
        ],
    }


def failures_of(block: dict, expected: dict) -> list[str]:
    """Why requests of ``block`` failed; ``expected`` maps a check key to reference tokens."""
    out = []
    for spec, s in zip(block["specs"], block["served"]):
        where = f"block {spec.block} request {spec.index}"
        if s.status != 200:
            out.append(f"{where}: HTTP status {s.status}")
        elif not s.terminated:
            out.append(f"{where}: stream ended without its terminal event")
        elif len(s.tokens) != spec.max_tokens:
            out.append(f"{where}: {len(s.tokens)} tokens, expected {spec.max_tokens}")
        else:
            reference = expected.get(spec.check_key)
            if reference is not None and s.tokens != reference:
                out.append(f"{where}: tokens differ from the reference")
    return out


def solo_reference(specs: list[RequestSpec]) -> dict:
    """Tokens the same build's solo ``LServeEngine.generate`` gives for ``specs``.

    Compared in-run and never against committed tokens: a hot-path change may
    re-pin bytes, but batched serving must still equal solo generation.
    """
    engine = new_engine(num_cache_pages=256)
    out = {}
    for spec in specs:
        out[spec.check_key] = engine.generate(np.asarray(spec.prompt), spec.max_tokens, seq_id="ref")
        engine.release("ref")
    return out


def draft_script(reference: list[int]) -> list[int]:
    """The greedy output with every 13th token corrupted: acceptance pinned near 0.83."""
    return [
        (t + 1) % VOCAB_SIZE if j % DRAFT_CORRUPT_EVERY == DRAFT_CORRUPT_EVERY - 1 else t
        for j, t in enumerate(reference)
    ]


@dataclass
class Attempt:
    """One serving of one block, with the calibration readings on both sides of it."""

    block: dict
    before_ms: float
    after_ms: float
    spans: list | None
    stats: dict[str, int]  # what the block added to ``EngineStats``

    @property
    def reading_ms(self) -> float:
        """The slower of the two readings: what the block is judged by."""
        return max(self.before_ms, self.after_ms)


class Pass:
    """Blocks served through one stack: what was attempted, what failed and what counts."""

    def __init__(self, tag: str, w: Workload, seed: int, scale: float, guard: Guard | None) -> None:
        self.tag, self.w, self.seed, self.scale, self.guard = tag, w, seed, scale, guard
        #: Of the attempts at each block the one with the fastest reading; the others are lost time.
        self.attempts: dict[int, Attempt] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: Every serving of a block: ``[block, readings before and after, wall seconds, output tok/s]``.
        self.log: list[list] = []
        self.peak_rss_mb = 0.0

    def accepted(self) -> dict[int, Attempt]:
        """The attempts that count, by block.

        Those that read fast on both sides by the fastest reading known *now*
        (a block is dropped again when a later reading shows it ran in the slow
        state) - or, once the loss budget is spent, every block with the best
        attempt made at it.
        """
        guard, attempts = self.guard, dict(sorted(self.attempts.items()))
        if guard is None:
            return attempts
        fast = {i: a for i, a in attempts.items() if guard.fast(a.reading_ms)}
        pending_s = sum(a.block["wall_s"] for i, a in attempts.items() if i not in fast)
        return fast if pending_s < guard.left_s else attempts

    @property
    def blocks(self) -> list[dict]:
        return [a.block for a in self.accepted().values()]

    async def serve(self, stack: Stack, expected: dict, scripts: dict | None, block_id: int) -> dict:
        """Serve one block and count its requests and failures, whatever becomes of the block."""
        specs = block_requests(self.w.name, self.seed, block_id, self.scale)
        block = await serve_block(stack, self.w, specs, f"{self.tag}-b{block_id}-n{self.attempted}", scripts)
        self.attempted += len(specs)
        self.failures += failures_of(block, expected)
        return block

    async def run(
        self,
        stack: Stack,
        expected: dict,
        scripts: dict | None,
        n_blocks: int | None,
        target_s: float | None = None,
    ) -> None:
        """Serve until blocks ``0 .. n_blocks - 1``, or ``target_s`` seconds of blocks, are accepted.

        Always the lowest block not accepted is served next, so a rejected
        block is served again with the same requests.

        A guarded pass is a measured one and first serves block 0 once,
        unmeasured: the first full-size block a new engine serves in some way
        (plain, or with speculation) touches KV pages and grows buffers for the
        first time and runs a tenth or more slower than every later one.  That
        is paid once per process and is neither set-up (``setup_s`` is the four
        warm-up requests) nor steady-state serving.
        """
        guard = self.guard
        if guard is not None:
            await self.serve(stack, expected, scripts, 0)
            if stack.tracer is not None:
                stack.tracer.take()
        while True:
            accepted = self.accepted()
            if n_blocks is not None:
                done = len(accepted) >= n_blocks
            else:
                done = (
                    sum(a.block["wall_s"] for a in accepted.values()) >= target_s or len(self.log) >= MAX_TIMED_BLOCKS
                )
            if done:
                break
            block_id = next(i for i in range(len(accepted) + 1) if i not in accepted)
            before = guard.seek(guard.left_s) if guard else 0.0
            stats_before = dataclasses.asdict(stack.engine.stats)
            block = await self.serve(stack, expected, scripts, block_id)
            after = guard.reading() if guard else 0.0
            stats = {k: v - stats_before[k] for k, v in dataclasses.asdict(stack.engine.stats).items()}
            spans = stack.tracer.take() if stack.tracer is not None else None
            attempt = Attempt(block, before, after, spans, stats)
            earlier = self.attempts.get(block_id)
            if earlier is not None:
                guard.blocks_rerun += 1
                if earlier.reading_ms < attempt.reading_ms:
                    attempt, earlier = earlier, attempt
                guard.lost_s += earlier.block["wall_s"]
            self.attempts[block_id] = attempt
            self.log.append([block_id, before, after, block["wall_s"], block_end_to_end(block)[0]["output_tok_s"]])
            if len(self.log) <= RSS_AFTER_BLOCKS:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if guard is not None:
            guard.unsettled |= any(not guard.fast(a.reading_ms) for a in accepted.values())


def median_wall_s(blocks: list[dict]) -> float:
    return statistics.median(b["wall_s"] for b in blocks)


def layer_metrics(
    w: Workload, names: list[str], traced: Pass, untraced: Pass, plain: Pass | None, zero: dict
) -> dict[str, float]:
    """Every per-layer metric: the traced pass's spans folded, plus what spans cannot give."""
    fold = LayerFold(names)
    stats: dict[str, int] = {}
    accepted = list(traced.accepted().values())
    for a in accepted:
        fold.add_block(a.spans, e2e_trace.self_times(a.spans), a.block, LSERVE_CONFIG.physical_page_size)
        for key, value in a.stats.items():
            stats[key] = stats.get(key, 0) + value
    http = w.driver == "http"
    guard = traced.guard
    layers = fold.metrics()
    layers.update(
        {
            "client.failed": float(len(traced.failures)),
            "http.requests": fold.requests / len(accepted) if http else 0.0,
            "http.errors": float(sum(s.status != 200 for a in accepted for s in a.block["served"])) if http else 0.0,
            "scheduler.preemptions": float(zero["preemptions"]),
            "kv.leaked_pages": float(zero["leaked_pages"]),
            "engine.decode_kv_compression": (
                stats["dense_tokens_attended"] / stats["dense_tokens_total"] if stats["dense_tokens_total"] else 1.0
            ),
            "engine.prefill_block_sparsity": (
                1.0 - stats["prefill_blocks_visited"] / stats["prefill_blocks_total"]
                if stats["prefill_blocks_total"]
                else 0.0
            ),
            "spec.speedup_vs_plain": (
                end_to_end(untraced.blocks)[0]["output_tok_s"] / end_to_end(plain.blocks)[0]["output_tok_s"]
                if plain
                else 0.0
            ),
            "trace.overhead_frac": median_wall_s(traced.blocks) / median_wall_s(untraced.blocks) - 1.0,
            "calib.ref_ms": guard.ref_ms if guard else 0.0,
            "calib.blocks_rerun": float(guard.blocks_rerun) if guard else 0.0,
            "calib.state": float(guard.unsettled) if guard else 1.0,
        }
    )
    return layers


async def run_job(job: dict) -> dict:
    """Run one job from ``run.py`` (its fields are listed at ``run.make_job``)."""
    w = WORKLOADS[job["workload"]]
    seed, scale, tracing = job["seed"], job["scale"], job["trace"]
    stack = await open_stack(w, seed, tracer=None)
    result: dict = {"workload": w.name, "setup_s": time.time() - job["spawned_at"]}
    if job["setup_only"]:
        await close_stack(stack)
        return result

    guard = Guard(job["ref_ms"], job["loss_budget_s"], job["cpus"]) if job["ref_ms"] is not None else None
    checked = [spec for block_id in (0, 1) for spec in block_requests(w.name, seed, block_id, scale)]
    expected = solo_reference(checked[:CHECKED_PER_WORKLOAD])
    passes: list[Pass] = []

    scripts = plain = None
    if w.speculation_k:
        # A plain pass over all 32 prompts, never counted in the end-to-end
        # numbers: it is checked against the solo references, then becomes the
        # reference of every speculative request, the source of the draft
        # scripts and (guarded, when tracing) the base of spec.speedup_vs_plain.
        plain = Pass("plain", w, seed, scale, guard if tracing else None)
        await plain.run(stack, expected, None, SPEC_DISTINCT_PROMPTS // w.block_requests)
        passes.append(plain)
        for block in plain.blocks:
            for spec, s in zip(block["specs"], block["served"]):
                expected[spec.check_key] = s.tokens
        scripts = {key[1]: draft_script(tokens) for key, tokens in expected.items()}

    # The untraced and the traced pass share a timed run's seconds.
    target_s = job["seconds"] / 2 if job["seconds"] and tracing else job["seconds"]
    untraced = Pass("untraced", w, seed, scale, guard)
    await untraced.run(stack, expected, scripts, job["blocks"], target_s)
    passes.append(untraced)
    zero = await close_stack(stack)
    result["end_to_end"], result["samples"] = end_to_end(untraced.blocks)
    result["end_to_end"]["peak_rss_mb"] = untraced.peak_rss_mb
    result["blocks"] = list(untraced.accepted())
    result["requests_sha256"] = digest([b["specs"] for b in untraced.blocks])

    if tracing:
        tracer = e2e_trace.Tracer()
        stack = await open_stack(w, seed, tracer)
        traced = Pass("traced", w, seed, scale, guard)
        await traced.run(stack, expected, scripts, len(untraced.blocks))
        passes.append(traced)
        traced_zero = await close_stack(stack)
        zero = {key: zero[key] + traced_zero[key] for key in zero}
        result["per_layer"] = layer_metrics(w, tracer.names, traced, untraced, plain, zero)
        if job["chrome_trace"]:
            first = next(iter(traced.accepted().values()))
            e2e_trace.write_chrome_trace(first.spans, tracer.names, job["chrome_trace"])

    failed_requests = [f for p in passes for f in p.failures]
    other = []
    if zero["leaked_pages"]:
        other.append(f"{zero['leaked_pages']} KV pages still allocated after drain")
    if zero["preemptions"]:
        other.append(f"{zero['preemptions']} preemptions; this benchmark must not preempt")
    result.update(
        attempted=sum(p.attempted for p in passes),
        failed=len(failed_requests),
        failures=(other + failed_requests)[:20],
        correct=not (other or failed_requests),
        passes={p.tag: {"attempted": p.attempted, "failed": len(p.failures)} for p in passes},
        served_log={p.tag: p.log for p in passes},
        calib={
            "ref_ms": guard.ref_ms if guard else None,
            "lost_s": guard.lost_s if guard else 0.0,
            "blocks_rerun": guard.blocks_rerun if guard else 0,
            "state": "unsettled" if guard is None or guard.unsettled else "settled",
        },
    )
    return result
