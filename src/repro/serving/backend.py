"""The serving back door: one ``InferenceBackend`` API, two implementations.

Everything behind the :class:`~repro.serving.engine.ServingEngine` front door
speaks this protocol:

* :class:`LServeBackend` wraps the real :class:`~repro.core.engine.LServeEngine`
  — tokens actually flow through the sparse-attention model, decode iterations
  run as true multi-sequence batches, and prefill can be chunked.
* :class:`SimulatedBackend` wraps the :class:`~repro.gpu.simulator.LatencySimulator`
  cost model — no logits are produced, but every call is billed the modelled
  GPU time, so scheduler-level experiments run in virtual time at any scale.

Both report work through the same :class:`BackendWork` counters and both bill
time through :class:`StepResult.elapsed_s`, which is what lets TTFT /
throughput metrics and engine statistics come from the *same* run regardless
of which backend is plugged in.

Both also offer the surface a cold KV tier needs, and hold no tier
themselves: ``tiering`` (the :class:`~repro.kvcache.tiering.KVTieringConfig`,
or ``None``), ``handoff_pages(seq_id)`` (what a hand-off would move),
``handoff_out(seq_id, kv_bits=None)`` / ``handoff_in(seq_id, handoff)`` (the
migration unit, optionally re-quantized on the way out) and
``demotion_order(seq_ids)`` (LRU victim ranking).  A demotion is a hand-off
whose destination is host memory: the
:class:`~repro.serving.engine.ServingEngine` parks the :class:`KVHandoff` in
its ``cold_store`` and bills the restore from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.engine import LServeEngine
from repro.gpu.cost_model import TransferCostModel
from repro.gpu.simulator import LatencySimulator
from repro.kvcache.prefix_index import PrefixIndex
from repro.kvcache.tiering import KVTieringConfig, compress_page_images, lru_order

__all__ = [
    "StepResult",
    "SpecStepResult",
    "SpecBatchResult",
    "BackendWork",
    "InferenceBackend",
    "KVHandoff",
    "SimulatedBackend",
    "LServeBackend",
]


@dataclass(frozen=True)
class KVHandoff:
    """A sequence's KV state in flight between two backends.

    Produced by a backend's ``handoff_out`` and consumed by another backend's
    ``handoff_in`` (the prefill→decode migration of a disaggregated cluster),
    or by the same backend's after a stay in the serving engine's cold tier.
    The geometry fields describe the wire payload for a
    :class:`~repro.gpu.cost_model.TransferCostModel` (``kv_bits`` is the
    width the pages travel at: the hot width, or the one ``handoff_out`` was
    asked to re-quantize to); ``payload`` is the
    backend-specific state (the page images of both pools for
    :class:`LServeBackend`, the modelled context length for
    :class:`SimulatedBackend`) and is opaque to the cluster layer.
    """

    n_tokens: int
    n_pages: int
    page_size: int
    n_layers: int
    n_kv_heads: int
    head_dim: int
    kv_bits: int
    payload: object

    def transfer_bytes(self, model: TransferCostModel) -> float:
        """Wire bytes of this hand-off under ``model``."""
        return model.transfer_bytes(
            self.n_pages, self.page_size, self.n_layers,
            self.n_kv_heads, self.head_dim, self.kv_bits,
        )

    def transfer_latency_s(self, model: TransferCostModel) -> float:
        """Modeled migration latency of this hand-off under ``model``."""
        return model.transfer_latency_s(
            self.n_pages, self.page_size, self.n_layers,
            self.n_kv_heads, self.head_dim, self.kv_bits,
        )


@dataclass(frozen=True)
class StepResult:
    """Outcome of one backend call.

    ``logits`` is the next-token distribution — ``(vocab_size,)`` for the last
    prompt position after :meth:`InferenceBackend.prefill`, ``(batch,
    vocab_size)`` after :meth:`InferenceBackend.decode_batch` — or ``None``
    for backends that model time but not content.  ``elapsed_s`` is the time
    the call is billed on the serving clock (modelled GPU seconds for the
    simulator, measured or modelled seconds for the real engine).
    ``prefix_hit_tokens`` reports how many prompt tokens a prefill attached
    from a shared prefix instead of computing (0 when sharing is off); the
    serving engine uses it to account only *unique* KV against the
    scheduler's watermarks.  ``restored_pages`` / ``restore_s`` report cold
    prefix pages a prefill brought back from the host tier and the modeled
    transfer latency folded into ``elapsed_s`` for them.
    """

    logits: np.ndarray | None
    elapsed_s: float
    prefix_hit_tokens: int = 0
    restored_pages: int = 0
    restore_s: float = 0.0


@dataclass(frozen=True)
class SpecStepResult:
    """Outcome of one speculative verification chunk.

    ``logits`` holds one next-token distribution per chunk position —
    ``(m, vocab_size)``, where row ``j`` is the distribution after consuming
    the chunk's first ``j + 1`` tokens — or ``None`` for content-free
    backends.  ``elapsed_s`` is the chunk's billed time (one amortized
    forward over ``m`` positions, not ``m`` sequential steps — that gap *is*
    the speculation speedup).  ``chunk`` is the backend-private verified
    state to pass to ``commit_speculative``; nothing has been committed to
    the real sequence yet.
    """

    logits: np.ndarray | None
    elapsed_s: float
    chunk: object


@dataclass(frozen=True)
class SpecBatchResult:
    """Outcome of one *fused* batch of speculative verification chunks.

    ``logits[i]`` is the ``(m_i, vocab_size)`` per-position logits of batch
    member ``i`` (``None`` entries for content-free backends), bitwise equal
    to what a solo ``decode_speculative`` call would have returned;
    ``chunks[i]`` is the member's backend-private verified state for
    ``commit_speculative`` — members commit independently, so one member's
    commit failure never disturbs another.  ``elapsed_s`` bills the whole
    fused pass **once**: all members' chunk rows share a single weight pass
    per layer, which is the cross-request amortization that makes
    speculation win at saturated batching.
    """

    logits: list[np.ndarray | None]
    elapsed_s: float
    chunks: list[object]

    def only(self) -> SpecStepResult:
        """The single member of a batch-of-one pass, as a solo result."""
        return SpecStepResult(self.logits[0], self.elapsed_s, self.chunks[0])


@dataclass
class BackendWork:
    """Uniform work/latency accounting every backend maintains."""

    prefill_calls: int = 0
    prefill_tokens: int = 0
    prefill_time_s: float = 0.0
    decode_iterations: int = 0
    decode_tokens: int = 0
    decode_time_s: float = 0.0
    #: Prompt tokens served from a shared prefix (not counted in
    #: ``prefill_tokens``, which tracks *computed* prefill work).
    prefix_hit_tokens: int = 0
    #: Speculative verification chunks run (each counted in
    #: ``decode_iterations`` too, with its positions in ``decode_tokens``).
    spec_chunks: int = 0

    @property
    def total_time_s(self) -> float:
        """Total billed backend seconds (prefill + decode)."""
        return self.prefill_time_s + self.decode_time_s

    @property
    def mean_decode_batch_size(self) -> float:
        """Average number of sequences per decode iteration."""
        if self.decode_iterations == 0:
            return 0.0
        return self.decode_tokens / self.decode_iterations

    def record_prefill(self, n_tokens: int, elapsed_s: float) -> None:
        """Account one prefill call of ``n_tokens`` prompt tokens."""
        self.prefill_calls += 1
        self.prefill_tokens += n_tokens
        self.prefill_time_s += elapsed_s

    def record_decode(self, batch: int, elapsed_s: float) -> None:
        """Account one decode iteration over ``batch`` sequences."""
        self.decode_iterations += 1
        self.decode_tokens += batch
        self.decode_time_s += elapsed_s


@runtime_checkable
class InferenceBackend(Protocol):
    """What the serving front door needs from an execution engine.

    A backend owns per-sequence KV state keyed by ``seq_id``: ``prefill``
    creates it, ``decode_batch`` advances every listed sequence by one token,
    and ``release`` frees it.  ``work`` accumulates the uniform accounting.

    Implementations should also expose a ``produces_logits`` class attribute:
    ``True`` when calls return real next-token distributions (requests must
    then carry ``prompt_token_ids``), ``False`` for content-free cost models
    (the serving engine records placeholder tokens and refuses ``generate()``).

    Optionally, a backend may expose ``kv_tokens_in_use() -> int`` reporting
    the KV tokens it currently materialises across all live sequences; the
    serving engine surfaces it as the ground-truth occupancy gauge in
    :meth:`~repro.serving.engine.ServingEngine.live_gauges` (the scheduler's
    own count is an estimate that excludes shared prefix pages).

    Backends that support disaggregated serving or a cold KV tier
    additionally expose the migration hooks ``handoff_out(seq_id,
    kv_bits=None) -> KVHandoff`` (extract a sequence's KV and release it
    locally, re-quantizing the page images at ``kv_bits`` when given; a
    second hand-off of the same sequence raises ``KeyError``),
    ``handoff_in(seq_id, handoff)`` (install a migrated sequence, which then
    counts as the most recently attended; an existing ``seq_id`` raises
    ``ValueError``) and ``handoff_pages(seq_id)`` (the pages ``handoff_out``
    would move).  None of them bills time — the cluster layer charges the
    modeled transfer latency on the receiving replica's clock, the serving
    engine the restore from its cold tier.  The cold tier itself lives in the
    serving engine; a backend only carries its ``tiering`` config (``None``
    when off) and ranks victims with ``demotion_order(seq_ids)``.

    Backends that support speculative decoding expose
    ``decode_speculative_batch(requests) -> SpecBatchResult`` (verify every
    speculating sequence's chunk of candidate tokens in one amortized forward
    pass, billed once, without committing anything; per-member results must
    not depend on the batch composition) and
    ``commit_speculative(seq_id, chunk, n_commit)`` (append the accepted
    prefix; must leave the sequence bit-identical to having decoded those
    tokens one at a time).  Both raise
    :class:`~repro.core.engine.DecodeOutOfPagesError` cleanly — the real
    sequence is never left half-advanced.  The serving engine calls only
    these two, with one member or many;
    ``decode_speculative(seq_id, token_ids) -> SpecStepResult`` is the
    batch-of-one convenience for direct callers.
    """

    work: BackendWork
    produces_logits: bool

    def prefill(self, seq_id: object, token_ids: np.ndarray) -> StepResult:
        """Ingest a prompt for a fresh sequence."""
        ...

    def decode_batch(
        self, seq_ids: list[object], token_ids: list[int] | np.ndarray
    ) -> StepResult:
        """Advance each sequence by one token (one continuous-batching iteration)."""
        ...

    def release(self, seq_id: object) -> None:
        """Free all state held for ``seq_id``."""
        ...


class SimulatedBackend:
    """Cost-model backend: bills modelled GPU time, produces no logits.

    This is the original cost-model-only serving loop re-expressed as one
    configuration of the backend API: prefill is billed the modelled
    time-to-first-token of the prompt, a decode iteration is billed the
    modelled step latency at the longest context in the batch.
    """

    produces_logits = False

    def __init__(
        self,
        latency: LatencySimulator,
        prefix_block_tokens: int | None = None,
        tiering: KVTieringConfig | None = None,
    ) -> None:
        """``prefix_block_tokens`` enables a prefix-cache cost model.

        When set, the backend keeps a token-block index of every prompt it
        has prefilled (the same :class:`~repro.kvcache.prefix_index.PrefixIndex`
        the real engine uses, with no pages to pin); a later prompt is billed
        only for its unmatched tail.  Requests must then carry real
        ``prompt_token_ids`` — length-only requests all share the placeholder
        prompt and would spuriously match each other; the serving engine
        rejects them at submit via :attr:`requires_token_content`.

        ``tiering`` enables the cold KV tier: the serving engine parks a
        victim's modeled KV host-side through :meth:`handoff_out` and brings
        it back through :meth:`handoff_in`, billing the config's transfer
        cost model.
        """
        if prefix_block_tokens is not None and prefix_block_tokens < 1:
            raise ValueError("prefix_block_tokens must be >= 1 when set")
        self.latency = latency
        self.prefix_block_tokens = prefix_block_tokens
        self.tiering = tiering
        self.work = BackendWork()
        self._context: dict[object, int] = {}
        # Per-sequence attend stamps for LRU victim ranking (the simulator has
        # no allocator access clock; a monotone counter plays its role).
        self._attend_clock = 0
        self._attend: dict[object, int] = {}
        self._prefix_index = (
            PrefixIndex(page_size=prefix_block_tokens)
            if prefix_block_tokens is not None
            else None
        )

    @property
    def requires_token_content(self) -> bool:
        """Whether requests must carry real token ids (prefix model enabled)."""
        return self._prefix_index is not None

    def prefill(self, seq_id: object, token_ids: np.ndarray) -> StepResult:
        """Bill the modelled time-to-first-token for a fresh sequence's prompt.

        With the prefix-cache cost model enabled, only the unmatched prompt
        tail is billed and the hit is reported in the result.
        """
        if seq_id in self._context:
            raise ValueError(f"sequence {seq_id!r} already prefilled")
        token_ids = np.asarray(token_ids)
        n = int(token_ids.size)
        if n == 0:
            raise ValueError("token_ids must be non-empty")
        hit = 0
        if self._prefix_index is not None:
            block = self.prefix_block_tokens
            limit = (n - 1) // block * block  # leave one token computed
            hit = len(self._prefix_index.match(token_ids, max_tokens=limit)) * block
            n_blocks = n // block
            self._prefix_index.register(token_ids, [()] * n_blocks)
        elapsed = self.latency.prefill_latency(n - hit)
        self._context[seq_id] = n
        self._attend_clock += 1
        self._attend[seq_id] = self._attend_clock
        self.work.record_prefill(n - hit, elapsed)
        self.work.prefix_hit_tokens += hit
        return StepResult(logits=None, elapsed_s=elapsed, prefix_hit_tokens=hit)

    def decode_batch(
        self, seq_ids: list[object], token_ids: list[int] | np.ndarray
    ) -> StepResult:
        """Bill one decode iteration at the longest context in the batch."""
        if not seq_ids:
            raise ValueError("decode_batch requires at least one sequence")
        for seq_id in seq_ids:
            if seq_id not in self._context:
                raise KeyError(f"unknown sequence {seq_id!r}")
        context = max(self._context[s] for s in seq_ids)
        elapsed = self.latency.decode_step_latency(context, batch=len(seq_ids))
        self._attend_clock += 1
        for seq_id in seq_ids:
            self._context[seq_id] += 1
            self._attend[seq_id] = self._attend_clock
        self.work.record_decode(len(seq_ids), elapsed)
        return StepResult(logits=None, elapsed_s=elapsed)

    def decode_speculative(
        self, seq_id: object, token_ids: list[int] | np.ndarray
    ) -> SpecStepResult:
        """Bill one verification chunk: :meth:`decode_speculative_batch` of one."""
        return self.decode_speculative_batch([(seq_id, token_ids)]).only()

    def decode_speculative_batch(self, requests: list) -> SpecBatchResult:
        """Bill one fused verification pass over every member's chunk rows.

        The pass is billed as **one** decode iteration of batch ``sum(m_i)``
        at the longest member context — one weight pass amortized over each
        chunk (the cost structure that makes speculation a decode-latency
        win) and shared by all members (the cross-request amortization a
        saturated batch would lose to one call per member).  No modelled
        state advances until :meth:`commit_speculative`.
        """
        if not requests:
            raise ValueError("decode_speculative_batch requires at least one sequence")
        ms = []
        for seq_id, token_ids in requests:
            if seq_id not in self._context:
                raise KeyError(f"unknown sequence {seq_id!r}")
            m = int(np.asarray(token_ids).size)
            if m == 0:
                raise ValueError("decode_speculative requires at least one token")
            ms.append(m)
        context = max(self._context[seq_id] for seq_id, _ in requests)
        total = sum(ms)
        elapsed = self.latency.decode_step_latency(context, batch=total)
        self._attend_clock += 1
        for seq_id, _ in requests:
            self._attend[seq_id] = self._attend_clock
        self.work.record_decode(total, elapsed)
        self.work.spec_chunks += len(requests)
        return SpecBatchResult(logits=[None] * len(requests), elapsed_s=elapsed, chunks=ms)

    def commit_speculative(self, seq_id: object, chunk: object, n_commit: int) -> None:
        """Advance the modelled context by the accepted prefix length."""
        if seq_id not in self._context:
            raise KeyError(f"unknown sequence {seq_id!r}")
        if not 1 <= int(n_commit) <= int(chunk):
            raise ValueError(f"n_commit must be in [1, {chunk}], got {n_commit}")
        self._context[seq_id] += int(n_commit)

    def kv_tokens_in_use(self) -> int:
        """Modelled KV tokens across all live sequences (live-gauge support)."""
        return int(sum(self._context.values()))

    def handoff_pages(self, seq_id: object) -> int:
        """Pages :meth:`handoff_out` would move (``KeyError`` when unknown)."""
        return -(-self._context[seq_id] // self.latency.policy.page_size)

    def handoff_out(self, seq_id: object, kv_bits: int | None = None) -> KVHandoff:
        """Extract the sequence's modelled KV for migration and drop it here.

        The hand-off geometry comes from the cost model's model config and
        system policy, so :class:`~repro.gpu.cost_model.TransferCostModel`
        latencies line up with the same timing units every other
        ``SimulatedBackend`` call bills; ``kv_bits`` overrides the policy's
        width (a re-quantized cold copy).  Raises ``KeyError`` for an unknown
        (or already handed-off) sequence.
        """
        n_pages = self.handoff_pages(seq_id)
        n_tokens = self._context.pop(seq_id)
        self._attend.pop(seq_id, None)
        model = self.latency.model
        policy = self.latency.policy
        return KVHandoff(
            n_tokens=n_tokens,
            n_pages=n_pages,
            page_size=policy.page_size,
            n_layers=model.n_layers,
            n_kv_heads=model.n_kv_heads,
            head_dim=model.head_dim,
            kv_bits=policy.kv_bits if kv_bits is None else kv_bits,
            payload=n_tokens,
        )

    def handoff_in(self, seq_id: object, handoff: KVHandoff) -> None:
        """Adopt a migrated sequence's modelled context length.

        The arrival counts as an attend, so the sequence ranks newest in
        :meth:`demotion_order`.  Raises ``ValueError`` when ``seq_id`` already
        exists on this backend.
        """
        if seq_id in self._context:
            raise ValueError(f"sequence {seq_id!r} already exists")
        self._context[seq_id] = int(handoff.payload)
        self._attend_clock += 1
        self._attend[seq_id] = self._attend_clock

    def last_attended(self, seq_id: object) -> int:
        """Monotone stamp of the sequence's last prefill/decode (0 = never)."""
        return self._attend.get(seq_id, 0)

    def demotion_order(self, seq_ids: list[object]) -> list[object]:
        """Rank live demotion candidates, least-recently-attended first."""
        live = [s for s in seq_ids if s in self._context]
        return sorted(live, key=lambda s: self._attend.get(s, 0))

    def release(self, seq_id: object) -> None:
        """Forget the sequence's modelled context length (idempotent)."""
        self._context.pop(seq_id, None)
        self._attend.pop(seq_id, None)


class LServeBackend:
    """Real-compute backend: drives an :class:`LServeEngine`.

    Tokens flow through the actual sparse-attention model.  Time is billed
    from ``latency`` (the GPU cost model) when provided — keeping the virtual
    clock comparable with :class:`SimulatedBackend` runs — and from measured
    wall-clock time otherwise.  ``prefill_chunk_size`` enables the engine's
    chunked prefill.
    """

    produces_logits = True

    def __init__(
        self,
        engine: LServeEngine,
        latency: LatencySimulator | None = None,
        prefill_chunk_size: int | None = None,
        tiering: KVTieringConfig | None = None,
    ) -> None:
        """``tiering`` enables the cold KV tier on this backend.

        The serving engine then round-trips real page images (bit-exact in
        ``"offload"`` mode, re-quantized in ``"quantized"`` mode) through its
        host-side :class:`~repro.kvcache.tiering.ColdTierStore`, and idle
        prefix-index pages demote before they are hard-dropped
        (``tiering.prefix_demotion``).
        """
        if prefill_chunk_size is not None:
            q_block = engine.config.q_block_size
            page = engine.config.physical_page_size
            if (
                prefill_chunk_size < 1
                or prefill_chunk_size % q_block != 0
                or prefill_chunk_size % page != 0
            ):
                raise ValueError(
                    f"prefill_chunk_size ({prefill_chunk_size}) must be a positive "
                    f"multiple of q_block_size ({q_block}) and physical_page_size "
                    f"({page}); misaligned chunks silently tile the sparse masks at "
                    "shifted boundaries and change model outputs"
                )
        self.engine = engine
        self.latency = latency
        self.prefill_chunk_size = prefill_chunk_size
        self.tiering = tiering
        self.work = BackendWork()
        if tiering is not None and tiering.prefix_demotion:
            engine.prefix_demote_enabled = True

    @property
    def stats(self):
        """The wrapped engine's :class:`~repro.core.engine.EngineStats`."""
        return self.engine.stats

    @property
    def vocab_size(self) -> int:
        """Token ids the model embeds: requests must stay in ``[0, vocab_size)``."""
        return self.engine.model.config.vocab_size

    def prefill(self, seq_id: object, token_ids: np.ndarray) -> StepResult:
        """Run real (optionally chunked) prefill; returns last-position logits.

        When the engine's prefix cache attaches part of the prompt, only the
        computed tail is billed (modelled time scales with computed tokens)
        and the hit size is reported in the result.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        hits_before = self.engine.stats.prefix_hit_tokens
        restored_before = self.engine.stats.restored_prefix_pages
        wall_start = time.perf_counter()
        logits = self.engine.prefill(
            seq_id, token_ids, chunk_size=self.prefill_chunk_size, logits_to_keep=1
        )
        wall = time.perf_counter() - wall_start
        hit = self.engine.stats.prefix_hit_tokens - hits_before
        computed = int(token_ids.size) - hit
        elapsed = (
            self.latency.prefill_latency(computed) if self.latency is not None else wall
        )
        # Prefix pages re-attached from the cold tier owe their restore
        # transfer on the serving clock (the hit tokens they cover were
        # *not* billed as computed prefill).
        restored = self.engine.stats.restored_prefix_pages - restored_before
        restore_s = 0.0
        if restored > 0 and self.tiering is not None:
            restore_s = self.tiering.restore_cost.transfer_latency_s(
                restored, *self._page_geometry(),
            )
            elapsed += restore_s
        self.work.record_prefill(computed, elapsed)
        self.work.prefix_hit_tokens += hit
        return StepResult(
            logits=logits[-1],
            elapsed_s=elapsed,
            prefix_hit_tokens=hit,
            restored_pages=restored,
            restore_s=restore_s,
        )

    def decode_batch(
        self, seq_ids: list[object], token_ids: list[int] | np.ndarray
    ) -> StepResult:
        """Advance every sequence by one token through the real engine."""
        context = max(self.engine.context_length(s) for s in seq_ids)
        wall_start = time.perf_counter()
        logits = self.engine.decode_batch(seq_ids, token_ids)
        wall = time.perf_counter() - wall_start
        elapsed = (
            self.latency.decode_step_latency(context, batch=len(seq_ids))
            if self.latency is not None
            else wall
        )
        self.work.record_decode(len(seq_ids), elapsed)
        return StepResult(logits=logits, elapsed_s=elapsed)

    def decode_speculative(
        self, seq_id: object, token_ids: list[int] | np.ndarray
    ) -> SpecStepResult:
        """Verify one candidate chunk: :meth:`decode_speculative_batch` of one."""
        return self.decode_speculative_batch([(seq_id, token_ids)]).only()

    def decode_speculative_batch(self, requests: list) -> SpecBatchResult:
        """Verify every member's chunk in one fused engine pass.

        Per-member logits are bit-identical to sequential decode whatever the
        batch composition (see
        :meth:`~repro.core.engine.LServeEngine.decode_speculative_batch`).
        With the cost model attached the whole pass is billed **once** as a
        decode iteration of batch ``sum(m_i)`` at the longest pre-chunk
        context (the chunks' GEMMs are amortized exactly like a batched
        decode — one shared weight pass, not one per member), measured
        wall-clock otherwise.  Every member is rewound to its length before
        the call, its chunk's rows waiting past the count for the commit.  A
        pool too small for some members raises
        :class:`~repro.core.engine.DecodeOutOfPagesError` naming them before
        any page is reserved or any row written.
        """
        if not requests:
            raise ValueError("decode_speculative_batch requires at least one sequence")
        context = max(self.engine.context_length(s) for s, _ in requests)
        total = sum(int(np.asarray(t).size) for _, t in requests)
        wall_start = time.perf_counter()
        results = self.engine.decode_speculative_batch(requests)
        wall = time.perf_counter() - wall_start
        elapsed = (
            self.latency.decode_step_latency(context, batch=total)
            if self.latency is not None
            else wall
        )
        self.work.record_decode(total, elapsed)
        self.work.spec_chunks += len(requests)
        return SpecBatchResult(
            logits=[logits for logits, _ in results],
            elapsed_s=elapsed,
            chunks=[chunk for _, chunk in results],
        )

    def commit_speculative(self, seq_id: object, chunk: object, n_commit: int) -> None:
        """Take the accepted prefix of the latest verified chunk into the sequence (bit-exact).

        Commit is bookkeeping (per layer the token count advances, the
        accepted keys fold into the key statistics and one selection entry
        is installed; verify already wrote the K/V), not a forward pass — no
        time is billed, matching the hand-off hooks.
        """
        self.engine.commit_speculative(seq_id, chunk, n_commit)

    def kv_tokens_in_use(self) -> int:
        """KV tokens the engine holds across live sequences (live-gauge support)."""
        return sum(self.engine.context_length(s) for s in self.engine.cache.sequences())

    def handoff_pages(self, seq_id: object) -> int:
        """Dense pages :meth:`handoff_out` would move (``KeyError`` when unknown)."""
        self.engine.context_length(seq_id)  # KeyError when unknown
        dense = self.engine.cache.dense_cache
        return len(dense.sequence_pages(seq_id)) if dense is not None else 0

    def handoff_out(self, seq_id: object, kv_bits: int | None = None) -> KVHandoff:
        """Export the sequence's real KV (bit-exact page images) and release it.

        The local dense pages are decref'd to zero (freed unless the prefix
        index pins them); the snapshot travels in the hand-off payload.  With
        ``kv_bits`` the dense K/V images are re-quantized at that width
        (lossy; the key-statistic rows stay exact) and the hand-off is billed
        at it.  Raises ``KeyError`` for an unknown (or already handed-off)
        sequence.
        """
        engine = self.engine
        n_tokens = engine.context_length(seq_id)  # KeyError when unknown
        export = engine.handoff_out(seq_id)
        cfg = engine.model.config
        dense = export.dense
        if kv_bits is not None and dense is not None:
            dense.k_pages = compress_page_images(dense.k_pages, kv_bits)
            dense.v_pages = compress_page_images(dense.v_pages, kv_bits)
        return KVHandoff(
            n_tokens=n_tokens,
            n_pages=export.n_pages,
            page_size=engine.config.physical_page_size,
            n_layers=cfg.n_layers,
            n_kv_heads=dense.n_kv_heads if dense is not None else cfg.n_kv_heads,
            head_dim=cfg.head_dim,
            kv_bits=engine.config.kv_bits if kv_bits is None else kv_bits,
            payload=export,
        )

    def handoff_in(self, seq_id: object, handoff: KVHandoff) -> None:
        """Install a migrated sequence on this backend's engine.

        Fresh pages are attached on the local allocator (refcount 1 each) and
        the page images bit-copied, and the cached page selections come
        along, so decode continues numerically identical to a run that never
        migrated.  The arrival counts as an attend: the pages take the newest
        access-clock stamp, so the sequence is the last demotion candidate,
        as on :class:`SimulatedBackend`.  Raises ``ValueError`` when
        ``seq_id`` already exists, and
        :class:`~repro.kvcache.allocator.OutOfPagesError` when the pool
        cannot hold the pages, before any sequence state changes.
        """
        self.engine.handoff_in(seq_id, handoff.payload)
        dense = self.engine.cache.dense_cache
        if dense is not None:
            dense.allocator.touch_many(dense.sequence_pages(seq_id))

    def _page_geometry(self) -> tuple[int, int, int, int, int]:
        """``(page_size, n_layers, n_kv_heads, head_dim, cold_bits)`` of a cold prefix page."""
        cfg = self.engine.model.config
        dense = self.engine.cache.dense_cache
        return (
            self.engine.config.physical_page_size,
            cfg.n_layers,
            dense.config.n_kv_heads if dense is not None else cfg.n_kv_heads,
            cfg.head_dim,
            self.tiering.cold_bits(self.engine.config.kv_bits),
        )

    def last_attended(self, seq_id: object) -> int:
        """Allocator access-clock stamp of the sequence's last attended KV read."""
        return self.engine.last_attended(seq_id)

    def demotion_order(self, seq_ids: list[object]) -> list[object]:
        """Rank live demotion candidates least-recently-attended first.

        Owners holding pinned (prefix-index) pages are filtered out by
        :func:`~repro.kvcache.tiering.lru_order` — those sequences fall back
        to recompute preemption.
        """
        live = [s for s in seq_ids if self.engine.cache.has_sequence(s)]
        dense = self.engine.cache.dense_cache
        if dense is None or self.tiering is None:
            return live
        return lru_order(dense.allocator, {s: dense.sequence_pages(s) for s in live})

    def release(self, seq_id: object) -> None:
        """Free the engine's KV pages and cached page selections for ``seq_id``."""
        self.engine.release(seq_id)
