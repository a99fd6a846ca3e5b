"""The LServe engine: hybrid sparse attention serving over a two-way paged cache.

This is the functional counterpart of the system in Fig. 5.  It drives a
:class:`~repro.model.transformer.TinyTransformer`'s weights through LServe's
dataflow:

* **Prefill**: QKV projections, RoPE, then the fused block-sparse prefill
  attention (dense heads causal, streaming heads Λ-masked), writing quantized
  KV into the two-way paged cache (dense-head pages with key statistics,
  streaming-head store with only sink + local tokens).
* **Decode**: streaming heads attend over their constant-size store; dense
  heads go through the (reusable) hierarchical page selector and attend only
  over the selected physical pages.

The engine records work statistics (blocks visited, tokens attended, selector
invocations) that the analysis benchmarks consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.attention.rope import apply_rope
from repro.core.config import LServeConfig
from repro.core.head_classifier import classify_heads, collect_head_gates
from repro.core.hierarchical_paging import HierarchicalPagingConfig
from repro.core.page_selector import PageSelector, ReusablePageSelector
from repro.core.streaming import StreamingConfig, expand_kv_head_mask
from repro.core.unified_sparse_attention import (
    decode_batched_attention,
    decode_group_attention,  # noqa: F401 - the e2e tracer's PLAN wraps this name here
    prefill_sparse_attention,
)
from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.dual_cache import DualPagedKVCache, DualSequenceExport
from repro.kvcache.paged_cache import PagedCacheConfig
from repro.kvcache.prefix_index import PrefixIndex
from repro.model.transformer import TinyTransformer, rms_norm, silu

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving wraps the engine)
    from repro.serving.sampling import SamplingParams

__all__ = [
    "DecodeOutOfPagesError",
    "EngineStats",
    "LServeEngine",
    "SpeculativeChunk",
]


class DecodeOutOfPagesError(OutOfPagesError):
    """A decode iteration could not reserve KV pages for some sequences.

    Raised by :meth:`LServeEngine.decode_batch` and
    :meth:`LServeEngine.decode_speculative_batch` *before any KV data or
    token accounting is written*: every member's pages are counted before
    any is taken, so an exhausted pool surfaces as a clean per-sequence
    failure (``failed_seq_ids``) the scheduler can preempt on, and the
    surviving sequences hold no page more than before either — never a
    mid-batch, mid-layer corruption where some sequences already appended
    their token and others did not.
    """

    def __init__(self, failed_seq_ids: list[object], num_free: int) -> None:
        self.failed_seq_ids = tuple(failed_seq_ids)
        super().__init__(
            f"cannot reserve decode pages for sequences {self.failed_seq_ids!r}: "
            f"{num_free} pages free"
        )


@dataclass
class EngineStats:
    """Aggregate work counters for one engine instance."""

    prefill_tokens: int = 0
    decode_steps: int = 0
    prefill_blocks_visited: int = 0
    prefill_blocks_total: int = 0
    dense_tokens_attended: int = 0
    dense_tokens_total: int = 0
    streaming_tokens_attended: int = 0
    #: Prompt tokens whose KV was attached from the prefix cache instead of
    #: being recomputed.  ``prefill_tokens`` counts *computed* tokens, so
    #: ``prefill_tokens + prefix_hit_tokens`` is the total prompt volume seen.
    prefix_hit_tokens: int = 0

    @property
    def prefill_block_sparsity(self) -> float:
        """Fraction of prefill attention blocks skipped by the sparse masks."""
        if self.prefill_blocks_total == 0:
            return 0.0
        return 1.0 - self.prefill_blocks_visited / self.prefill_blocks_total

    @property
    def decode_kv_compression(self) -> float:
        """Fraction of dense-head KV tokens actually read during decoding."""
        if self.dense_tokens_total == 0:
            return 1.0
        return self.dense_tokens_attended / self.dense_tokens_total


@dataclass
class SpeculativeChunk:
    """One verified-but-uncommitted speculative decode chunk.

    Produced by :meth:`LServeEngine.decode_speculative_batch`, consumed by
    :meth:`LServeEngine.commit_speculative`.  The chunk's K/V rows are not
    here: verification wrote them, quantised, into the sequence's own pages
    past its token count, where they wait for the commit.  The chunk holds
    what the commit still needs: per layer, the post-RoPE raw keys
    ``k_per_layer[layer]`` ``(m, n_kv_heads, head_dim)``, whose accepted
    prefix folds into the key statistics (exact min/max, the fold a decode
    step makes), and ``selector_per_layer[layer][j]``, the sequence's
    ``(selection, queries_served)`` entry (``None`` when it has none) right
    after chunk row ``j`` attended — the state a one-at-a-time decode of rows
    ``0..j`` would hold.  ``base_len`` is the length verification started
    from; the engine also remembers each sequence's latest chunk, because a
    later verification overwrites the rows an older chunk refers to.
    """

    seq_id: object
    base_len: int
    tokens: np.ndarray
    k_per_layer: list[np.ndarray]
    selector_per_layer: list[list[tuple | None]]

    def __len__(self) -> int:
        return int(self.tokens.size)


#: Rows a prefill works on at a time inside each layer (rounded up to a
#: multiple of the query block and the physical page, so a chunk is whole
#: query blocks and ends on a page).  It bounds the prefill's temporaries:
#: only the residual stream and the layer's K/V are prompt-sized.
_PREFILL_ROW_CHUNK = 512


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with per-row results independent of the batch size.

    BLAS routes single-row matmuls to a GEMV kernel whose accumulation order
    differs from the GEMM kernels used for taller inputs; duplicating the lone
    row forces the GEMM path, so a decode batch of one produces byte-identical
    rows to the same sequence decoded inside any larger batch.
    """
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    return x @ w


class LServeEngine:
    """Serve a :class:`TinyTransformer` with LServe's unified sparse attention."""

    def __init__(
        self,
        model: TinyTransformer,
        config: LServeConfig,
        streaming_kv_heads: np.ndarray | None = None,
        num_cache_pages: int = 4096,
        calibration_tokens: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.config = config
        cfg = model.config
        self.streaming = StreamingConfig(
            sink_tokens=config.sink_tokens, local_tokens=config.local_tokens
        )

        if streaming_kv_heads is None:
            streaming_kv_heads = self._classify_streaming_heads(calibration_tokens)
        streaming_kv_heads = np.asarray(streaming_kv_heads, dtype=bool)
        if streaming_kv_heads.shape != (cfg.n_kv_heads,):
            raise ValueError(
                f"streaming_kv_heads must have shape ({cfg.n_kv_heads},), "
                f"got {streaming_kv_heads.shape}"
            )
        self.streaming_kv_heads = streaming_kv_heads
        self.streaming_query_heads = expand_kv_head_mask(
            streaming_kv_heads, cfg.gqa_group_size
        )

        self.cache = DualPagedKVCache(
            PagedCacheConfig(
                n_layers=cfg.n_layers,
                n_kv_heads=cfg.n_kv_heads,
                head_dim=cfg.head_dim,
                page_size=config.physical_page_size,
                num_pages=num_cache_pages,
                kv_bits=config.kv_bits,
                logical_page_size=config.logical_page_size,
            ),
            streaming_head_mask=streaming_kv_heads,
            sink_tokens=config.sink_tokens,
            local_tokens=config.local_tokens,
        )
        self.prefix_cache: PrefixIndex | None = None
        if config.prefix_cache_enabled:
            self.prefix_cache = PrefixIndex(
                page_size=config.physical_page_size,
                allocators=tuple(pool.allocator for pool in self.cache.pools),
            )
        self.selector = ReusablePageSelector(
            PageSelector(
                HierarchicalPagingConfig(
                    physical_page_size=config.physical_page_size,
                    logical_page_size=config.logical_page_size,
                    token_budget=config.token_budget,
                ),
                sink_pages=config.sink_pages,
                local_pages=config.local_pages,
            ),
            reuse_interval=config.reuse_interval,
        )
        # The selector's entries live with the pages they index, so every
        # pool operation on a sequence carries them.
        self._selections = self.cache.pools[0].page_selections
        # Each sequence's latest verified chunk: the one whose rows its pages hold.
        self._verified: dict[object, SpeculativeChunk] = {}
        self.stats = EngineStats()

        # Query-head bookkeeping for the two head groups.
        group = cfg.gqa_group_size
        self._dense_kv_heads = np.flatnonzero(~streaming_kv_heads)
        self._streaming_kv_heads_idx = np.flatnonzero(streaming_kv_heads)
        self._streaming_query_idx = np.flatnonzero(self.streaming_query_heads)
        self._dense_query_heads = np.concatenate(
            [np.arange(kv * group, (kv + 1) * group) for kv in self._dense_kv_heads]
        ) if self._dense_kv_heads.size else np.zeros(0, dtype=np.int64)

    # -- setup -----------------------------------------------------------------
    def _classify_streaming_heads(
        self, calibration_tokens: np.ndarray | None
    ) -> np.ndarray:
        """Derive the streaming KV-head mask from DuoAttention-style gates."""
        cfg = self.model.config
        if self.config.streaming_head_ratio == 0.0:
            return np.zeros(cfg.n_kv_heads, dtype=bool)
        if calibration_tokens is None:
            rng = np.random.default_rng(0)
            length = min(128, cfg.max_context_length)
            calibration_tokens = rng.integers(0, cfg.vocab_size, size=length)
        gates = collect_head_gates(self.model, calibration_tokens, self.streaming)
        # One mask shared by all layers: rank KV heads by their mean gate.
        mean_gates = gates.mean(axis=0)
        classification = classify_heads(mean_gates, sparsity=self.config.streaming_head_ratio)
        return classification.streaming_mask.ravel()

    # -- sequence lifecycle ------------------------------------------------------
    def add_sequence(self, seq_id: object) -> None:
        """Register an empty sequence in the paged KV cache."""
        self.cache.add_sequence(seq_id)

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Fork ``child_id`` from ``parent_id``, sharing its full KV pages.

        Full pages are shared by reference; a partly filled tail page is
        copied to a fresh page of each pool at once, so neither sequence
        ever writes into a shared page.  Prefix-index pages are evicted
        first when no page is free for the copy, as a write's page count
        does; an exhausted pool raises :class:`OutOfPagesError` with nothing
        changed.  The child continues with the parent's cached page
        selections and reuse phase, so fed the same tokens it decodes the
        parent's rows.
        """
        self._make_room(1)
        self.cache.fork_sequence(parent_id, child_id)

    def release(self, seq_id: object) -> None:
        """Free one sequence's KV pages and, with them, its cached page selections."""
        self.cache.remove_sequence(seq_id)
        self._verified.pop(seq_id, None)

    def context_length(self, seq_id: object) -> int:
        """Tokens currently held in the KV cache for ``seq_id``."""
        return self.cache.seq_len(seq_id)

    def last_attended(self, seq_id: object) -> int:
        """Allocator access-clock stamp of the sequence's most recent KV read.

        The LRU demotion policy of the cold KV tier orders victims by this;
        0 for a sequence whose dense pages were never read (or when there are
        no dense heads).
        """
        dense = self.cache.dense_cache
        return dense.last_attended(seq_id) if dense is not None else 0

    def handoff_out(self, seq_id: object) -> DualSequenceExport:
        """Export a sequence's KV state for migration and release it locally.

        The snapshot carries bit-exact dense page images (stored values are
        post-quantization while key stats fold raw keys, so replaying tokens
        on the target would diverge — images are the unit of migration), the
        images of the streaming pages, and the cached page selections with
        their reuse phase.  The local copy is then released:
        every page is decref'd, so refcounts drop to zero and the pages free
        unless the prefix index still pins them.  A second hand-off of the
        same sequence raises ``KeyError`` (the sequence is gone).
        """
        export = self.cache.export_sequence(seq_id)
        self.release(seq_id)
        return export

    def handoff_in(self, seq_id: object, export: DualSequenceExport) -> int:
        """Install a migrated sequence on this engine's pool; returns pages attached.

        Fresh pages are allocated (refcount 1 each — the target-side attach)
        and the images bit-copied, so subsequent decode steps are numerically
        identical to a run that had never migrated: the cached page
        selections come along, so the reuse phase continues where it left
        off.  When the pool is tight, prefix-index pages are evicted first,
        mirroring the page count of a prefill.
        """
        self._make_room((export.dense or export.streaming).n_pages)
        return self.cache.import_sequence(seq_id, export)

    # -- serving entry points ------------------------------------------------------
    def prefill(
        self,
        seq_id: object,
        token_ids: np.ndarray,
        logits_to_keep: int | None = None,
    ) -> np.ndarray:
        """Prefill a fresh sequence; returns logits for the computed positions.

        ``logits_to_keep=None`` returns a row per computed position — the
        reference form the tests compare against dense attention.
        ``logits_to_keep=k`` returns only the last ``min(k, computed)`` rows
        (``1`` is what a server samples from, ``0`` only writes the KV): the
        KV of *every* position is still written, but the last layer forms
        queries, attention, FFN and the LM head only for the query blocks
        holding those rows (see :meth:`_run_layers`).  The rows returned, the
        cache and every later decode step are byte-identical in both forms.

        The sequence must be empty.  With the prefix cache enabled
        (``config.prefix_cache_enabled``), a prompt whose leading pages match
        a registered prefix **attaches** the matched KV pages instead of
        recomputing them; only the unmatched tail is computed, as a
        continuation at :attr:`~repro.core.config.LServeConfig.prefix_match_alignment`:
        it attends over the attached history plus its own fresh keys/values,
        so its block masks tile at the same boundaries as a single-shot
        prefill, and with ``kv_bits < 16`` the re-read history adds
        quantization rounding.  The returned logits cover just the computed
        positions — the last row is still the next-token distribution.  At
        least one prompt token is always computed.
        ``stats.prefix_hit_tokens`` counts the attached tokens;
        ``stats.prefill_tokens`` counts computed ones.

        A pool that cannot hold the computed tokens raises
        :class:`OutOfPagesError` after undoing the call: the sequence it
        registered goes, with the prefix pages it attached (the index keeps
        its own references).
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("token_ids must be a non-empty 1-D array")
        if logits_to_keep is not None and logits_to_keep < 0:
            raise ValueError("logits_to_keep must be >= 0 when set")
        self._check_token_ids(token_ids)
        n = int(token_ids.size)

        registered = not self.cache.has_sequence(seq_id)
        attached = 0
        if self.prefix_cache is not None and registered:
            attached = self._attach_prefix(seq_id, token_ids)
        if not self.cache.has_sequence(seq_id):
            self.add_sequence(seq_id)
        if self.cache.seq_len(seq_id) != attached:
            raise ValueError("prefill requires an empty sequence")

        remaining = token_ids[attached:]
        computed = int(remaining.size)
        if self._count_pages([seq_id], [computed]):
            free = self.cache.allocator.num_free
            if registered:
                self.release(seq_id)
            raise OutOfPagesError(f"cannot prefill {computed} tokens of {seq_id!r}: {free} pages free")
        # Rows before ``first_kept`` owe the caller no logits.
        first_kept = 0 if logits_to_keep is None else max(0, computed - logits_to_keep)
        logits = self._forward(seq_id, remaining, first_kept)
        self.stats.prefill_tokens += n - attached
        self.stats.prefix_hit_tokens += attached
        if self.prefix_cache is not None:
            # The streaming table still holds every page the prompt wrote.
            n_pages = n // self.config.physical_page_size
            self.prefix_cache.register(token_ids, self.cache.prefix_pages(seq_id, n_pages))
        self.cache.slide(seq_id)
        return logits

    # -- prefix sharing ----------------------------------------------------------
    def _attach_prefix(self, seq_id: object, token_ids: np.ndarray) -> int:
        """Attach the longest indexed prefix of the prompt; returns tokens attached."""
        assert self.prefix_cache is not None
        align = self.config.prefix_match_alignment
        page = self.config.physical_page_size
        # Keep at least one prompt token to compute (the caller needs the
        # last position's logits) and land the boundary on the alignment.
        max_tokens = ((token_ids.size - 1) // align) * align
        if max_tokens <= 0:
            return 0
        chain = self.prefix_cache.match(token_ids, max_tokens=max_tokens)
        matched = ((len(chain) * page) // align) * align
        if matched:
            self.cache.attach_prefix(seq_id, matched, [node.pages for node in chain[: matched // page]])
        return matched

    def _make_room(self, n_pages: int) -> bool:
        """Whether ``n_pages`` can be allocated, evicting prefix-index pages first when they cannot."""
        allocator = self.cache.allocator
        if self.prefix_cache is not None and not allocator.can_allocate(n_pages):
            self.prefix_cache.evict_until(n_pages)
        return allocator.can_allocate(n_pages)

    def _count_pages(self, seq_ids: list[object], ms: list[int]) -> list[object]:
        """The sequences whose next ``ms[i]`` rows the pool cannot take; nothing is taken.

        Each sequence slides its window, then claims the pages its write
        will allocate (:meth:`DualPagedKVCache.pages_required`), evicting
        prefix-index pages when the claims outrun the free pool.  A write
        after a clean count allocates exactly the counted pages, so it cannot
        run out of pages mid-way.
        """
        failed: list[object] = []
        claimed = 0
        for seq_id, m in zip(seq_ids, ms):
            self.cache.slide(seq_id)
            need = self.cache.pages_required(seq_id, m)
            if need and self._make_room(claimed + need):
                claimed += need
            elif need:
                failed.append(seq_id)
        return failed

    def decode(self, seq_id: object, token_id: int) -> np.ndarray:
        """One decode step; returns logits ``(vocab_size,)``."""
        return self.decode_batch([seq_id], [token_id])[0]

    def decode_batch(
        self, seq_ids: list[object], token_ids: list[int] | np.ndarray
    ) -> np.ndarray:
        """One decode iteration over a batch of sequences.

        Each sequence advances by one token; the embedding, QKV/output
        projections and FFN run as batched GEMMs over all sequences while
        attention reads each sequence's own paged cache.  The per-sequence
        numerics are identical to calling :meth:`decode` sequentially.
        It is the verify core at one row per sequence, kept (no rewind): an
        exhausted pool raises :class:`DecodeOutOfPagesError` with nothing
        taken or written, and the step drops a pending verified chunk.
        Returns logits ``(batch, vocab_size)``.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64).ravel()
        if token_ids.shape != (len(seq_ids),):
            raise ValueError(
                f"token_ids must have one entry per sequence, got {token_ids.shape}"
            )
        return self._decode_rows(list(seq_ids), token_ids, [1] * len(seq_ids), keep=True)

    # -- speculative decoding ------------------------------------------------------
    def decode_speculative(
        self, seq_id: object, token_ids: list[int] | np.ndarray
    ) -> tuple[np.ndarray, SpeculativeChunk]:
        """Verify one sequence's chunk: :meth:`decode_speculative_batch` of one."""
        return self.decode_speculative_batch([(seq_id, token_ids)])[0]

    def decode_speculative_batch(
        self, requests: list[tuple[object, list[int] | np.ndarray]]
    ) -> list[tuple[np.ndarray, SpeculativeChunk]]:
        """Verify every speculating sequence's chunk in one grouped pass, in place.

        ``requests`` is ``[(seq_id, token_ids), ...]``; each ``token_ids`` is
        the sequence's pending token followed by its draft proposals.  All
        chunks' rows are concatenated, so the per-layer embedding/QKV/output/
        FFN projections are **single GEMMs** over ``M = sum(m_i)`` rows (the
        speculation speedup — the amortization :meth:`decode_batch` exploits
        across sequences, here within and across chunks).  It runs the one
        decode core :meth:`decode_batch` runs, with several rows per sequence
        and the rows taken back out: per layer, every chunk row is written,
        quantised, into the slots past its sequence's count in its **own**
        pages by one
        :meth:`~repro.kvcache.dual_cache.DualPagedKVCache.write_past_count`.
        Attention then goes run by run, not row by row: each chunk splits,
        before the forward, into runs of rows that share one dense selection
        and runs that read one streaming window (:meth:`_plan_stops` — the
        counts and selection entries fix every boundary).  The members stop
        at the ends of their runs in phases; per phase one ``advance`` moves
        the counts over the rows up to each stop (folding the key
        statistics), and one :meth:`_decode_attention_batch` gathers each
        ending run's KV once and attends all of its rows in one call, each
        row a batch entry over the run's operand at the member's own
        capacity, row ``j`` seeing exactly its positions ``0..j`` (the
        slots past them are masked).  A refresh run is scored at its first
        row with that row's key folded into the statistics
        (:meth:`_score_ahead`).  No read reaches a slot past a row's
        context, so row ``j`` sees the cache a decode of rows ``0..j``
        leaves.

        Row ``j`` of entry ``i``'s logits ``(m_i, vocab)`` is therefore
        **bitwise identical** to what sequential :meth:`decode` calls return
        after consuming ``token_ids[:j+1]``, whatever the batch composition:
        per-row ops are row-local, :func:`_rowwise_matmul` rows are
        batch-size independent, the KV write (quantisation groups are per
        token and head) is composition-stable, an attention row's operand
        is sized by its own sequence's pages (:func:`decode_batched_attention`
        is batch-invariant at a fixed capacity), and each row is a decode
        step of the sequence itself — its selection entries after each row, recorded in the chunk
        as ``(selection, queries served)`` arithmetic on its run, are the
        ones :meth:`commit_speculative` installs.

        Before returning, every sequence is **rewound** to its length before
        the call: token counts, the key-statistic rows the chunk folded into
        and the selection entries go back, and an operand block goes back
        with its members (see :meth:`DualPagedKVCache.rewind`).  The chunk's
        rows stay in the slots past the count, where no read reaches them,
        and the pages taken for them stay with the sequence;
        :meth:`commit_speculative` takes the accepted prefix back in, and the
        next write overwrites the rest.  Committing one sequence never
        affects another.

        Atomicity matches :meth:`decode_batch`: every member's pages are
        counted *before* any compute, and a pool too small for some chunks
        raises :class:`DecodeOutOfPagesError` naming exactly the failed
        sequences with **nothing mutated** — no page is reserved for any
        member, so every sequence (and batchmate) reads as before and the
        caller can fall back or evict only the failed members and retry the
        survivors.
        """
        seq_ids = [seq_id for seq_id, _ in requests]
        token_arrays = [np.asarray(token_ids, dtype=np.int64).ravel() for _, token_ids in requests]
        ms = [arr.size for arr in token_arrays]
        if 0 in ms:
            raise ValueError("decode_speculative requires at least one token")
        token_ids = np.concatenate(token_arrays) if token_arrays else np.zeros(0, dtype=np.int64)
        return self._decode_rows(seq_ids, token_ids, ms, keep=False)

    def _decode_rows(self, seq_ids: list[object], token_ids: np.ndarray, ms: list[int], keep: bool):
        """The one decode core: ``ms[i]`` rows of ``seq_ids[i]`` (member-major) through one grouped pass.

        ``keep=True`` is a decode step, one row per sequence kept; it returns
        the logits.  ``keep=False`` is a verify, rewound afterwards; it
        returns :meth:`decode_speculative_batch`'s ``(rows, chunk)`` pairs.
        """
        if not seq_ids:
            raise ValueError("decode requires at least one sequence")
        if len(set(seq_ids)) != len(seq_ids):
            raise ValueError("duplicate seq_id in decode batch")
        self._check_token_ids(token_ids)
        bases = [self.cache.seq_len(seq_id) for seq_id in seq_ids]
        if 0 in bases:
            raise ValueError(f"decode requires a prefilled sequence, got {seq_ids[bases.index(0)]!r}")

        failed = self._count_pages(seq_ids, ms)
        if failed:
            raise DecodeOutOfPagesError(failed, self.cache.allocator.num_free)

        if self._verified:
            for seq_id in seq_ids:
                # The rows an older chunk refers to are about to be overwritten.
                self._verified.pop(seq_id, None)
        if keep:
            positions = np.array(bases, dtype=np.int64)
            contexts = (positions + 1).tolist()

            def write(layer_idx: int, lo: int, k: np.ndarray, v: np.ndarray) -> None:
                self.cache.write_past_count(seq_ids, layer_idx, k, v)
                self.cache.advance(seq_ids, layer_idx, k)

            def attend(layer_idx: int, lo: int, q: np.ndarray) -> np.ndarray:
                output = np.zeros(q.shape)
                self._decode_attention_batch(seq_ids, layer_idx, q, contexts, output)
                return output

            logits = self._run_layers(token_ids, positions, write, attend)
            self.stats.decode_steps += len(token_ids)
            return logits

        offsets = np.cumsum([0, *ms]).tolist()
        positions = np.concatenate([np.arange(b, b + m) for b, m in zip(bases, ms)])
        contexts = (positions + 1).tolist()
        memo: dict = {}
        keys: list[np.ndarray] = []
        # seq_id -> layer -> its selection entry after each of its chunk
        # rows: what commit installs.
        snapshots: dict[object, list[list]] = {seq_id: [] for seq_id in seq_ids}

        def write(layer_idx: int, lo: int, k: np.ndarray, v: np.ndarray) -> None:
            keys.append(k)
            self.cache.write_past_count(seq_ids, layer_idx, k, v, ms)

        def attend(layer_idx: int, lo: int, q: np.ndarray) -> np.ndarray:
            k = keys[layer_idx]
            output = np.zeros(q.shape)
            # Each member's stops in rows of q (see _plan_stops), taken in
            # phases: phase p takes every member that has a p-th stop to it.
            plans = [
                [tuple(None if x is None else x + offset for x in stop) for stop in plan]
                for plan, offset in zip(
                    [self._plan_stops(*member, layer_idx, memo) for member in zip(seq_ids, bases, ms)], offsets
                )
            ]
            for seq_id, m in zip(seq_ids, ms):
                snapshots[seq_id].append([self._selections.get((seq_id, layer_idx))] * m)
            done = [offset - 1 for offset in offsets[:-1]]  # each member's last advanced row
            scored: dict[object, object] = {}
            for p in range(max(map(len, plans))):
                members = [i for i, plan in enumerate(plans) if len(plan) > p]
                stops = [plans[i][p] for i in members]
                ahead = [(i, done[i] + 1, stop[3]) for i, stop in zip(members, stops) if stop[3] is not None]
                if ahead:
                    self._score_ahead(seq_ids, layer_idx, q, k, contexts, ahead, scored)
                ids = [seq_ids[i] for i in members]
                rows = [row for i, stop in zip(members, stops) for row in range(done[i] + 1, stop[0] + 1)]
                self.cache.advance(ids, layer_idx, k[rows], [stop[0] - done[i] for i, stop in zip(members, stops)])
                self._decode_attention_batch(ids, layer_idx, q, contexts, output, stops, scored)
                for i, (end, _, dense_from, _) in zip(members, stops):
                    done[i] = end
                    entry = self._selections.get((seq_ids[i], layer_idx))
                    if dense_from is None or entry is None or not self.config.dynamic_sparsity_active(contexts[end]):
                        continue
                    # The run's rows served its selection one query each.
                    states = snapshots[seq_ids[i]][layer_idx]
                    for row in range(dense_from, end):
                        states[row - offsets[i]] = (entry[0], entry[1] - (end - row))
                    states[end - offsets[i]] = entry
            return output

        points = self.cache.mark(seq_ids)
        try:
            logits = self._run_layers(token_ids, positions, write, attend)
        finally:
            self.cache.rewind(seq_ids, points)
        self.stats.decode_steps += len(token_ids)

        results: list[tuple[np.ndarray, SpeculativeChunk]] = []
        for i, seq_id in enumerate(seq_ids):
            lo, hi = offsets[i], offsets[i + 1]
            chunk = SpeculativeChunk(
                seq_id=seq_id,
                base_len=bases[i],
                tokens=token_ids[lo:hi],
                k_per_layer=[k[lo:hi].copy() for k in keys],
                selector_per_layer=snapshots[seq_id],
            )
            self._verified[seq_id] = chunk
            results.append((logits[lo:hi].copy(), chunk))
        return results

    def _plan_stops(self, seq_id: object, base: int, m: int, layer_idx: int, memo: dict) -> list[tuple]:
        """Split one member's ``m`` chunk rows into runs; returns its stops in one layer.

        A dense run is a maximal run of rows served one selection (or all
        read in full): a new one starts where ``dynamic_sparsity_active``
        turns on and at every row the selector refreshes — ``queries_served``
        reaching ``reuse_interval`` or a new logical or physical page
        (:meth:`ReusablePageSelector.refreshes` applies :meth:`lookup`'s rule
        to the counts) — and, on the full-read path, where a row opens a
        page.  A streaming run is a maximal run that reads one window: a new
        one starts where a row opens a page.  So every row of a run reads
        the same pages, the operand its own decode step would read, and
        each row sees one token more of them than the row before.

        The forward stops the member at the end of every run.  A stop is
        ``(row, stream_from, dense_from, score_to)`` in chunk rows:
        ``stream_from``/``dense_from`` start the streaming/dense run that
        ends at ``row`` (``None`` when none does), and ``score_to`` ends a
        refresh run longer than a row that starts right after the previous
        stop: it is scored before the advance to ``row`` (see
        :meth:`_score_ahead`).
        """
        entry = self._selections.get((seq_id, layer_idx)) if self._dense_kv_heads.size else None
        memo_key = (base, m) if entry is None else (
            base, m, entry[0].n_physical_pages, entry[0].n_logical_pages, entry[1]
        )
        plan = memo.get(memo_key)
        if plan is not None:
            return plan
        page = self.config.physical_page_size
        opens = {j for j in range(1, m) if (base + j) % page == 0}
        stream_starts = opens if self._streaming_kv_heads_idx.size else set()
        dense_starts: set[int] = set()
        refreshes: list[int] = []
        if self._dense_kv_heads.size:
            contexts = range(base + 1, base + m + 1)
            first = next((j for j, c in enumerate(contexts) if self.config.dynamic_sparsity_active(c)), m)
            dense_starts.update(j for j in opens if j < first)
            if first < m:
                lps = self.config.logical_page_size
                flags = self.selector.refreshes(entry, [-(-c // lps) for c in contexts[first:]])
                refreshes = [first + j for j, fresh in enumerate(flags) if fresh]
                dense_starts.update(refreshes, [first])
        dense_bounds = sorted({0, *dense_starts, m})
        stream_bounds = sorted({0, *stream_starts, m})
        ends = sorted({b - 1 for b in dense_bounds[1:] + stream_bounds[1:]})
        dense_runs = dict(zip(dense_bounds[1:], dense_bounds[:-1]))  # end + 1 -> start
        stream_runs = dict(zip(stream_bounds[1:], stream_bounds[:-1]))
        run_ends = {start: end - 1 for end, start in dense_runs.items()}
        plan = []
        previous = -1
        for row in ends:
            first_row = previous + 1
            score_to = run_ends[first_row] if first_row in refreshes and run_ends[first_row] > first_row else None
            plan.append((
                row,
                stream_runs.get(row + 1) if self._streaming_kv_heads_idx.size else None,
                dense_runs.get(row + 1) if self._dense_kv_heads.size else None,
                score_to,
            ))
            previous = row
        memo[memo_key] = plan
        return plan

    def _score_ahead(
        self,
        seq_ids: list[object],
        layer_idx: int,
        q: np.ndarray,
        k: np.ndarray,
        contexts: list[int],
        runs: list[tuple[int, int, int]],
        scored: dict,
    ) -> None:
        """Score refresh runs at their first row before the pool takes that row in.

        ``runs`` holds ``(member, first row, last row)`` in rows of ``q``/``k``;
        each member's count stands just before its first row.  The key
        statistics a decode of the first row would score with are the
        pool's, with that row's raw key folded in (a new row when it opens a
        logical page): the fold :meth:`PagedKVCache.advance` makes, so the
        selection is the one a one-at-a-time decode scores, without a stop
        between the refresh row and the rest of its run.  Each selection is
        recorded as serving its whole run and kept in ``scored`` for the
        run's last row.
        """
        lps = self.config.logical_page_size
        groups: dict[tuple[int, bool], list[tuple[int, int, int]]] = {}
        for run in runs:
            count = contexts[run[1]] - 1
            groups.setdefault((-(-(count + 1) // lps), count % lps == 0), []).append(run)
        for (_, opens), group in groups.items():
            ids = [seq_ids[i] for i, _, _ in group]
            firsts = [first for _, first, _ in group]
            kmin, kmax = self.cache.dense_cache.key_stats_batch(ids, layer_idx)
            new = k[firsts][:, None, self._dense_kv_heads]
            if opens:
                kmin, kmax = np.concatenate([kmin, new], axis=1), np.concatenate([kmax, new], axis=1)
            else:
                kmin[:, -1:] = np.minimum(kmin[:, -1:], new)
                kmax[:, -1:] = np.maximum(kmax[:, -1:], new)
            fresh = self.selector.select_batch(
                self._selections,
                [(seq_id, layer_idx) for seq_id in ids],
                q[np.array(firsts)[:, None], self._dense_query_heads],
                kmin,
                kmax,
                gqa_group_size=self.model.config.gqa_group_size,
                served=[last - first + 1 for _, first, last in group],
            )
            scored.update(zip(ids, fresh))

    def commit_speculative(
        self, seq_id: object, chunk: SpeculativeChunk, n_commit: int
    ) -> None:
        """Take the accepted prefix of the sequence's latest verified chunk back in.

        The rows are already in the sequence's pages, quantised, past its
        count (see :meth:`decode_speculative_batch`), so nothing is written
        or quantised again.  Per layer the count advances by ``n_commit``,
        the rows' raw keys fold into the key statistics, and the selection
        entry verification recorded after row ``n_commit - 1`` is installed,
        so a later decode step sees the same KV, statistics and cached
        selections, with the same reuse phase, as a run that decoded these
        tokens one at a time; nothing is looked up or scored again.  The
        chunk must be the sequence's latest and the sequence still at
        ``base_len``, else ``ValueError``.  A commit allocates nothing: the
        verify took every page its rows need, and those pages stay the
        sequence's own through a fork (:meth:`fork_sequence`), so a commit
        cannot run out of pages.
        """
        if chunk.seq_id != seq_id:
            raise ValueError(
                f"chunk belongs to sequence {chunk.seq_id!r}, not {seq_id!r}"
            )
        if self.cache.seq_len(seq_id) != chunk.base_len:
            raise ValueError(
                f"sequence {seq_id!r} moved since verification "
                f"(length {self.cache.seq_len(seq_id)} != chunk base {chunk.base_len})"
            )
        if self._verified.get(seq_id) is not chunk:
            raise ValueError(
                f"chunk is not the latest verification of {seq_id!r}: a later one overwrote its rows"
            )
        if not 1 <= n_commit <= len(chunk):
            raise ValueError(
                f"n_commit must be in [1, {len(chunk)}], got {n_commit}"
            )
        del self._verified[seq_id]
        for layer_idx, (k, states) in enumerate(zip(chunk.k_per_layer, chunk.selector_per_layer)):
            self.cache.advance([seq_id], layer_idx, k[:n_commit], [n_commit])
            if states[n_commit - 1] is not None:
                self._selections[(seq_id, layer_idx)] = states[n_commit - 1]
        self.cache.slide(seq_id)

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        seq_id: object = "generate",
        sampling: "SamplingParams | None" = None,
    ) -> list[int]:
        """Generation convenience wrapper (prefill + decode loop).

        Produces at most ``max_new_tokens`` tokens (exactly that many unless a
        stop token from ``sampling.stop_token_ids`` is emitted first, which is
        kept in the output).  ``max_new_tokens=0`` generates nothing.
        """
        from repro.serving.sampling import SamplingParams, sample_token

        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        if max_new_tokens == 0:
            return []
        params = sampling or SamplingParams()
        rng = np.random.default_rng(params.seed)
        logits = self.prefill(seq_id, prompt_ids, logits_to_keep=1)
        next_id = sample_token(logits[-1], params, rng)
        generated = [next_id]
        while len(generated) < max_new_tokens and not params.is_stop(next_id):
            next_id = sample_token(self.decode(seq_id, next_id), params, rng)
            generated.append(next_id)
        return generated

    # -- forward pass ------------------------------------------------------------
    def _run_layers(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        write,
        attend,
        keep_from: int = 0,
        chunk: int | None = None,
    ) -> np.ndarray:
        """The model forward over ``token_ids`` rows; returns logits ``(rows - keep_from, vocab)``.

        The one transformer layer loop: prefills, decode steps and
        speculative chunks differ only in their callbacks.  Each layer is two
        passes over the rows, ``chunk`` rows at a time (all of them when
        ``None``).  Pass 1 forms every row's post-RoPE K/V and hands each
        chunk to ``write(layer_idx, lo, k, v)``, ``lo`` its first row, which
        writes it to the cache; pass 2 forms each chunk's queries and takes
        ``attend(layer_idx, lo, q)``'s attention output ``(len(q), n_heads,
        head_dim)`` through ``wo``, the FFN and the residual.  Every
        projection goes through :func:`_rowwise_matmul` and every other op is
        row-local, so a row's bytes never depend on how many rows ride the
        same call or chunk — a one-token prefill, a decode step and a
        verify chunk all take the GEMM route.

        ``keep_from`` cuts the rows nobody reads.  Every row's K/V is needed
        in every layer, but past the last layer's ``wk``/``wv`` a row feeds
        only its own logits: there pass 2, the final norm and the LM head
        run on rows ``keep_from:`` alone (the first of its chunks starts at
        ``keep_from``; none when it is ``rows``).  The kept rows' bytes are
        those of ``keep_from = 0`` whenever ``attend``'s are — the prefill
        kernel's, for a cut on a query-block boundary.
        """
        cfg = self.model.config
        weights = self.model.weights
        rope = self.model.rope
        rows = token_ids.shape[0]
        step = chunk or max(rows, 1)
        hidden = weights.embedding[token_ids]
        cos, sin = rope.cos_sin(positions)  # one table per forward, not per use
        last = len(weights.layers) - 1
        for layer_idx, layer in enumerate(weights.layers):
            for kv_from in range(0, rows, step):
                at = slice(kv_from, kv_from + step)
                kv_in = rms_norm(hidden[at], layer.attn_norm)
                n = kv_in.shape[0]
                k = _rowwise_matmul(kv_in, layer.wk).reshape(n, cfg.n_kv_heads, cfg.head_dim)
                v = _rowwise_matmul(kv_in, layer.wv).reshape(n, cfg.n_kv_heads, cfg.head_dim)
                write(layer_idx, kv_from, apply_rope(k, positions[at], rope, (cos[at], sin[at])), v)
            lo = keep_from if layer_idx == last else 0
            while lo < rows:
                at = slice(lo, (lo // step + 1) * step)
                lo = at.stop
                h = hidden[at]  # a view: the residual adds land in place
                # The last K/V chunk's norm is still at hand: a decode step's only one.
                attn_in = kv_in[at.start - kv_from :] if at.start >= kv_from else rms_norm(h, layer.attn_norm)
                n = attn_in.shape[0]
                q = _rowwise_matmul(attn_in, layer.wq).reshape(n, cfg.n_heads, cfg.head_dim)
                attn_out = attend(layer_idx, at.start, apply_rope(q, positions[at], rope, (cos[at], sin[at])))
                h += _rowwise_matmul(attn_out.reshape(n, cfg.hidden_size), layer.wo)
                ffn_in = rms_norm(h, layer.ffn_norm)
                gate = silu(_rowwise_matmul(ffn_in, layer.w_gate)) * _rowwise_matmul(ffn_in, layer.w_up)
                h += _rowwise_matmul(gate, layer.w_down)

        hidden = rms_norm(hidden[keep_from:], weights.final_norm)
        return _rowwise_matmul(hidden, weights.lm_head)

    def _check_token_ids(self, token_ids: np.ndarray) -> None:
        """Reject ids the embedding lookup would fault on (or silently wrap)."""
        vocab = self.model.config.vocab_size
        if token_ids.min() < 0 or token_ids.max() >= vocab:
            raise ValueError(f"token ids must be in [0, {vocab})")

    def _forward(self, seq_id: object, token_ids: np.ndarray, skip: int = 0) -> np.ndarray:
        """Prefill the computed rows of a sequence: the whole prompt, or the tail after an attached prefix.

        Returns the logits of rows ``skip:`` (none when ``skip`` reaches past
        the rows).  The last layer is cut at the query-block boundary at or
        below ``skip``: a query block is the prefill kernel's tile and its
        output bytes do not depend on which other blocks share the call,
        while a cut inside a block would change the tile's GEMM shape and
        with it the row's bytes.

        Inside each layer the rows go :data:`_PREFILL_ROW_CHUNK` at a time:
        each K/V chunk lands in one head-major operand of the layer (after
        the history, for a continuation) and in the cache, then each query
        chunk attends over the operand up to its own last row — the kernel's
        ``n_q < n_kv`` form, which reproduces a query block's bytes whatever
        else shares the call, so the chunking moves no byte.  A continuation
        starts at ``prefix_match_alignment``, a whole number of pages, so its
        chunks tile the diagonal key blocks as a single-shot prefill does.
        """
        start = self.cache.seq_len(seq_id)
        rows = token_ids.shape[0]
        skip = min(skip, rows)
        q_block, page = self.config.q_block_size, self.config.physical_page_size
        keep_from = rows if skip == rows else (skip // q_block) * q_block
        align = math.lcm(q_block, page)
        chunk = -(-_PREFILL_ROW_CHUNK // align) * align
        last = self.model.config.n_layers - 1
        operand: list[np.ndarray] = []

        def write(layer_idx: int, lo: int, k: np.ndarray, v: np.ndarray) -> None:
            # A continuation reads its history before the layer's first write
            # (the streaming window moves past pages the first queries see); a
            # layer no row of the chunk attends in only writes its K/V.
            if lo == 0:
                operand.clear()  # the previous layer's goes before this one's is built
                if layer_idx < last or keep_from < rows:
                    operand.extend(self._prefill_operand(seq_id, layer_idx, start, rows))
            if operand:
                at = slice(start + lo, start + lo + len(k))
                operand[0][:, at] = k.transpose(1, 0, 2)
                operand[1][:, at] = v.transpose(1, 0, 2)
            self.cache.append(seq_id, layer_idx, k, v)

        def attend(layer_idx: int, lo: int, q: np.ndarray) -> np.ndarray:
            visible = start + lo + len(q)
            k, v = (x[:, :visible].transpose(1, 0, 2) for x in operand)
            output, stats = prefill_sparse_attention(
                q,
                k,
                v,
                head_is_streaming=self.streaming_query_heads,
                streaming=self.streaming,
                q_block=q_block,
                kv_block=page,
            )
            self.stats.prefill_blocks_visited += stats.visited_blocks
            self.stats.prefill_blocks_total += stats.total_blocks
            return output

        logits = self._run_layers(token_ids, np.arange(start, start + rows), write, attend, keep_from, chunk)
        return logits[skip - keep_from :]

    def _prefill_operand(self, seq_id: object, layer_idx: int, start: int, rows: int) -> list[np.ndarray]:
        """Head-major ``(n_kv_heads, start + rows, head_dim)`` K and V of one layer's prefill.

        The ``start`` historical tokens of a continuation are read back
        first: dense heads from the paged cache (quantized, as the pool
        holds them), streaming heads scattered from the sink+local store
        into their original positions — evicted positions stay zero, but the
        Λ block mask never visits them.  The computed rows are left for the
        caller to fill with their raw K/V, exactly as in single-shot prefill.
        """
        cfg = self.model.config
        shape = (cfg.n_kv_heads, start + rows, cfg.head_dim)
        if not start:
            return [np.empty(shape), np.empty(shape)]
        k_full, v_full = np.zeros(shape), np.zeros(shape)
        if self._dense_kv_heads.size:
            k_hist, v_hist = self.cache.get_dense(seq_id, layer_idx)
            k_full[self._dense_kv_heads, :start] = k_hist.transpose(1, 0, 2)
            v_full[self._dense_kv_heads, :start] = v_hist.transpose(1, 0, 2)
        if self._streaming_kv_heads_idx.size:
            k_s, v_s, pos = self.cache.get_streaming(seq_id, layer_idx)
            k_full[np.ix_(self._streaming_kv_heads_idx, pos)] = k_s.transpose(1, 0, 2)
            v_full[np.ix_(self._streaming_kv_heads_idx, pos)] = v_s.transpose(1, 0, 2)
        return [k_full, v_full]

    def _decode_attention_batch(
        self,
        seq_ids: list[object],
        layer_idx: int,
        q: np.ndarray,
        contexts: list[int],
        output: np.ndarray,
        stops: list[tuple] | None = None,
        scored: dict | None = None,
    ) -> None:
        """Decode attention of every run ending at the members' stops, into ``output``.

        ``stops[i]`` is ``seq_ids[i]``'s stop (see :meth:`_plan_stops`) in
        rows of ``q``/``output``/``contexts``; ``contexts[row]`` is the
        row's context length, and each member's count stands at its stop.
        Without ``stops`` it is a decode step: member ``i`` is row ``i``, a
        run of one row.  ``scored`` holds the selections
        :meth:`_score_ahead` scored for runs ending here.

        Every operand is the whole pages a member reads, so its capacity
        follows from the member's own state: ``budget_pages`` pages on the
        sparse path, the member's page count on the full read, the window's
        pages on the streaming heads.  Per head kind, the members that share
        a page count make one indexed KV read and one
        :func:`decode_batched_attention` call, a run's rows batch entries
        over its member's operand, each seeing its own prefix (the slots
        past it are masked).  The kernel is batch-invariant at a fixed
        capacity, so decoding a sequence alone, inside any batch or as a
        chunk row yields byte-identical output.
        """
        cfg = self.model.config
        group = cfg.gqa_group_size
        page = self.config.physical_page_size
        if stops is None:
            ends = stream_from = dense_from = range(len(seq_ids))
        else:
            ends, stream_from, dense_from = ([stop[x] for stop in stops] for x in range(3))
        last_rows = np.asarray(ends)
        # An operand's last page is its member's tail page (the selector keeps
        # it in every row: ``local_pages >= 1``); a row sees every slot but
        # those of the tail page past its context.
        unseen = (-np.asarray(contexts)) % page

        def attend(idxs: list[int], froms, heads: np.ndarray, k_g: np.ndarray, v_g: np.ndarray) -> int:
            """One call over head-major ``(G, H, capacity, d)`` operands; returns the slots it let rows see.

            ``idxs`` are the members and ``froms[i]`` the first row of member
            ``i``'s run.
            """
            slots = last_rows[idxs][:, None]  # (G, 1): a decode step's one row per member
            if stops is not None:
                # A member's ``W`` entries (``W`` the longest run): entry ``r``
                # is the row ``W - 1 - r`` before its last, a short run's
                # spare entries repeat its first row.
                firsts = np.array([froms[i] for i in idxs])[:, None]
                slots = slots + np.arange(-int((slots - firsts).max()), 1)
                real = slots >= firsts
                slots = np.maximum(slots, firsts)
            lengths = k_g.shape[2] - unseen[slots]
            at = (slots[:, :, None], heads)
            output[at] = decode_batched_attention(q[at], k_g, v_g, gqa_group_size=group, lengths=lengths)
            return int(np.add.reduce(lengths if stops is None else lengths * real, axis=None)) * k_g.shape[1]

        # Streaming heads: the sink and window pages, grouped by page count.
        if self._streaming_kv_heads_idx.size:
            members = [i for i, start in enumerate(stream_from) if start is not None]
            for rows, k_g, v_g in self.cache.get_streaming_groups([seq_ids[i] for i in members], layer_idx):
                self.stats.streaming_tokens_attended += attend(
                    [members[r] for r in rows], stream_from, self._streaming_query_idx, k_g, v_g
                )
        if not self._dense_kv_heads.size:
            return

        # Dense heads: dynamic page selection over the full history once the
        # context crosses the sparsity threshold, full reads below it.
        dense_cache = self.cache.dense_cache
        assert dense_cache is not None
        dq_idx = self._dense_query_heads
        n_dense = int(self._dense_kv_heads.size)
        lps = self.config.logical_page_size

        # Every lookup first, at a run's last row for all of its rows at
        # once (a run scored ahead has its selection); the misses that share
        # a logical-page count are then scored together (the count follows
        # from the context).
        selections: dict[int, object] = {}
        misses: dict[int, list[int]] = {}
        for i, row in enumerate(ends):
            if dense_from[i] is None:
                continue
            context = contexts[row]
            if not self.config.dynamic_sparsity_active(context):
                selections[i] = None
                continue
            if scored and seq_ids[i] in scored:
                selections[i] = scored.pop(seq_ids[i])
                continue
            n_logical = -(-context // lps)
            # A miss holds its place in member order until it is scored.
            selections[i] = self.selector.lookup(
                self._selections, (seq_ids[i], layer_idx), n_logical, row - dense_from[i] + 1
            )
            if selections[i] is None:
                misses.setdefault(n_logical, []).append(i)
        for idxs in misses.values():
            ids = [seq_ids[i] for i in idxs]
            kmin, kmax = dense_cache.key_stats_batch(ids, layer_idx)
            fresh = self.selector.select_batch(
                self._selections,
                [(seq_id, layer_idx) for seq_id in ids],
                q[np.asarray(idxs if stops is None else [ends[i] for i in idxs])[:, None], dq_idx],
                kmin,
                kmax,
                gqa_group_size=group,
                served=None if stops is None else [ends[i] - dense_from[i] + 1 for i in idxs],
            )
            for i, selection in zip(idxs, fresh):
                selections[i] = selection

        # Group by page count: the selection's on the sparse path (every
        # selection past the threshold holds ``budget_pages``), the member's
        # own on the full read.
        attended = total = 0
        sel_groups: dict[int, list[int]] = {}
        full_groups: dict[int, list[int]] = {}
        for i in selections:
            selection, row = selections[i], ends[i]
            context = contexts[row]
            total += context if dense_from[i] == row else sum(contexts[dense_from[i] : row + 1])
            if selection is None:
                # The access-clock tick of a full read, in batch order.
                dense_cache.allocator.touch_many(dense_cache.page_table(seq_ids[i]))
                full_groups.setdefault(-(-context // page), []).append(i)
            else:
                sel_groups.setdefault(selection.pages.shape[1], []).append(i)

        for idxs in sel_groups.values():
            k_g, v_g = dense_cache.gather_selected_batch(
                [seq_ids[i] for i in idxs], layer_idx, [selections[i].pages for i in idxs]
            )
            attended += attend(idxs, dense_from, dq_idx, k_g, v_g)
        for idxs in full_groups.values():
            k_g, v_g = dense_cache.read_batch([seq_ids[i] for i in idxs], layer_idx)
            attended += attend(idxs, dense_from, dq_idx, k_g, v_g)
        self.stats.dense_tokens_attended += attended
        self.stats.dense_tokens_total += total * n_dense
