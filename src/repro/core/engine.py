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
    decode_group_attention,
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

    Raised by :meth:`LServeEngine.decode_batch` *before any KV data or token
    accounting is written*: the step's pages are reserved per sequence up
    front, so an exhausted pool surfaces as a clean per-sequence failure
    (``failed_seq_ids``) the scheduler can preempt on — never as a
    mid-batch, mid-layer corruption where some sequences already appended
    their token and others did not.  (Sequences that reserved successfully
    before the failure keep their pre-allocated pages; they hold no tokens
    and are consumed by the next append or returned at release.)
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
    #: Demoted prefix-index pages brought back from the cold tier at attach
    #: time (each one saved a page of recompute but owes a restore transfer).
    restored_prefix_pages: int = 0

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
    prefix folds into the key statistics (exact min/max, the fold an append
    makes), and ``selector_per_layer[layer][j]``, the sequence's
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
        self.streaming = StreamingConfig(
            sink_tokens=config.sink_tokens, local_tokens=config.local_tokens
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
        # With a cold KV tier configured (a tiering-enabled backend flips
        # this), prefix eviction demotes page images host-side instead of
        # hard-dropping them; see _prefix_page_image.
        self.prefix_demote_enabled = False

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
        gates = collect_head_gates(self.model, calibration_tokens, self.streaming_for_calibration())
        # One mask shared by all layers: rank KV heads by their mean gate.
        mean_gates = gates.mean(axis=0)
        classification = classify_heads(mean_gates, sparsity=self.config.streaming_head_ratio)
        return classification.streaming_mask.ravel()

    def streaming_for_calibration(self) -> StreamingConfig:
        """Streaming geometry used during head-gate calibration."""
        return StreamingConfig(
            sink_tokens=self.config.sink_tokens, local_tokens=self.config.local_tokens
        )

    # -- sequence lifecycle ------------------------------------------------------
    def add_sequence(self, seq_id: object) -> None:
        """Register an empty sequence in the paged KV cache."""
        self.cache.add_sequence(seq_id)

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Fork ``child_id`` from ``parent_id`` with copy-on-write KV sharing.

        Full dense-head pages are shared by reference; the partially filled
        tail page is copied the first time either sequence appends a
        divergent token.  The child continues with the parent's cached page
        selections and reuse phase, so fed the same tokens it decodes the
        parent's rows.
        """
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
        mirroring the prefill reservation path.
        """
        self._make_room((export.dense or export.streaming).n_pages)
        return self.cache.import_sequence(seq_id, export)

    # -- serving entry points ------------------------------------------------------
    def prefill(
        self,
        seq_id: object,
        token_ids: np.ndarray,
        chunk_size: int | None = None,
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

        The sequence must be empty.  When ``chunk_size`` is given, the prompt
        is processed in chunks of that many tokens (chunked prefill): each
        chunk attends over the previously written KV history plus its own
        fresh keys/values, so a long prompt never has to be materialised as
        one attention call.  Use a multiple of ``q_block_size`` (and of the
        physical page size) to keep the block-mask tiling — and hence the
        numerics — identical to single-shot prefill; other sizes still work
        but tile the Λ mask at shifted boundaries, and with ``kv_bits < 16``
        the re-read history adds quantization rounding.

        With the prefix cache enabled (``config.prefix_cache_enabled``), a
        prompt whose leading pages match a registered prefix **attaches** the
        matched KV pages instead of recomputing them; only the unmatched tail
        is computed (as a chunked-prefill continuation at an aligned
        boundary, so numerics follow the chunked-prefill rules above), and
        the returned logits cover just those computed positions — the last
        row is still the next-token distribution.  At least one prompt token
        is always computed.  ``stats.prefix_hit_tokens`` counts the attached
        tokens; ``stats.prefill_tokens`` counts computed ones.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("token_ids must be a non-empty 1-D array")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when set")
        if logits_to_keep is not None and logits_to_keep < 0:
            raise ValueError("logits_to_keep must be >= 0 when set")
        self._check_token_ids(token_ids)
        n = int(token_ids.size)

        attached = 0
        if self.prefix_cache is not None and not self.cache.has_sequence(seq_id):
            attached = self._attach_prefix(seq_id, token_ids)
        if not self.cache.has_sequence(seq_id):
            self.add_sequence(seq_id)
        if self.cache.seq_len(seq_id) != attached:
            raise ValueError("prefill requires an empty sequence")

        remaining = token_ids[attached:]
        computed = int(remaining.size)
        self._reserve_pages(seq_id, computed)
        # Rows before ``first_kept`` owe the caller no logits.
        first_kept = 0 if logits_to_keep is None else max(0, computed - logits_to_keep)
        step = computed if chunk_size is None else chunk_size
        parts = [
            self._forward(seq_id, remaining[start : start + step], max(0, first_kept - start))
            for start in range(0, computed, step)
        ]
        logits = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
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
        # Bring demoted (cold-tier) chain nodes back before attaching; a node
        # that cannot be restored truncates the usable prefix.
        usable = 0
        for node in chain[: ((len(chain) * page) // align) * align // page]:
            if node.is_cold:
                if not self.cache.allocator.can_allocate(1):
                    break
                self.prefix_cache.adopt_restored(node, self.cache.install_page_image(node.cold_image))
                self.stats.restored_prefix_pages += 1
            usable += 1
        matched = ((usable * page) // align) * align
        if matched:
            self.cache.attach_prefix(seq_id, matched, [node.pages for node in chain[: matched // page]])
        return matched

    def _prefix_page_image(self):
        """Cold-demotion callback for prefix eviction (``None`` when disabled)."""
        return self.cache.page_image if self.prefix_demote_enabled else None

    def _make_room(self, n_pages: int) -> bool:
        """Whether ``n_pages`` can be allocated, evicting prefix-index pages first when they cannot."""
        allocator = self.cache.allocator
        if self.prefix_cache is not None and not allocator.can_allocate(n_pages):
            self.prefix_cache.evict_until(n_pages, page_image=self._prefix_page_image())
        return allocator.can_allocate(n_pages)

    def _reserve_pages(self, seq_id: object, n_new_tokens: int) -> None:
        """Reserve KV pages for an append, evicting prefix-index pages if needed."""
        if n_new_tokens <= 0:
            return
        if self.prefix_cache is not None:
            self._make_room(self.cache.pages_required(seq_id, n_new_tokens))
        self.cache.prepare_append(seq_id, n_new_tokens)

    def _out_of_pages(self, failed: list[object]) -> DecodeOutOfPagesError:
        """The error a failed up-front reservation raises for ``failed``."""
        return DecodeOutOfPagesError(failed, self.cache.allocator.num_free)

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
        Returns logits ``(batch, vocab_size)``.
        """
        if len(seq_ids) == 0:
            raise ValueError("decode_batch requires at least one sequence")
        token_ids = np.asarray(token_ids, dtype=np.int64).ravel()
        if token_ids.shape != (len(seq_ids),):
            raise ValueError(
                f"token_ids must have one entry per sequence, got {token_ids.shape}"
            )
        self._check_token_ids(token_ids)
        if len(set(seq_ids)) != len(seq_ids):
            raise ValueError("duplicate seq_id in decode batch")
        # One seq_len pass serves validation, RoPE positions, and the
        # post-append attention contexts for the whole step.
        lengths = np.array([self.cache.seq_len(s) for s in seq_ids], dtype=np.int64)
        for i, seq_id in enumerate(seq_ids):
            if lengths[i] == 0:
                raise ValueError(f"decode requires a prefilled sequence, got {seq_id!r}")

        # Reserve this iteration's pages per sequence *before* touching any
        # KV state: an exhausted pool must surface as a clean per-sequence
        # failure, never as a mid-batch, mid-layer partial append.
        failed: list[object] = []
        for seq_id in seq_ids:
            try:
                self._reserve_pages(seq_id, 1)
            except OutOfPagesError:
                failed.append(seq_id)
        if failed:
            raise self._out_of_pages(failed)

        contexts = lengths + 1

        def attend(layer_idx: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            self.cache.append_batch(seq_ids, layer_idx, k, v)
            return self._decode_attention_batch(seq_ids, layer_idx, q, contexts)

        logits = self._run_layers(token_ids, lengths, attend)
        self.stats.decode_steps += len(seq_ids)
        return logits

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
        across sequences, here within and across chunks).  Per layer, every
        chunk row is written, quantised, into the slots past its sequence's
        count in its **own** pages by one
        :meth:`~repro.kvcache.dual_cache.DualPagedKVCache.write_past_count`;
        then attention advances the chunks in lockstep in cache order: at
        chunk position ``j``, every sequence whose chunk has a row ``j``
        moves its count over it (one ``advance_token_batch``, which folds the
        key statistics) and attends, with exactly its positions ``0..j``
        visible, through one :meth:`_decode_attention_batch` call
        (shape-signature grouping, never padding).  No read reaches a slot
        past the count, so row ``j`` sees the cache a decode of rows
        ``0..j`` leaves.

        Row ``j`` of entry ``i``'s logits ``(m_i, vocab)`` is therefore
        **bitwise identical** to what sequential :meth:`decode` calls return
        after consuming ``token_ids[:j+1]``, whatever the batch composition:
        per-row ops are row-local, :func:`_rowwise_matmul` rows are
        batch-size independent, the KV write (quantisation groups are per
        token and head) and the batched attention path are
        composition-stable, and each row is a decode step of the sequence
        itself — its selection entries after each row, recorded in the chunk,
        are the ones :meth:`commit_speculative` installs.

        Before returning, every sequence is **rewound** to its length before
        the call: token counts, the key-statistic rows the chunk folded into
        and the selection entries go back, and an operand block goes back
        with its members (see :meth:`DualPagedKVCache.rewind`).  The chunk's
        rows stay in the slots past the count, where no read reaches them,
        and the pages reserved for them stay with the sequence;
        :meth:`commit_speculative` takes the accepted prefix back in, and the
        next append overwrites the rest.  Committing one sequence never
        affects another.

        Atomicity matches :meth:`decode_batch`: every page reservation
        happens *before* any compute, and a pool too small for some chunks
        raises :class:`DecodeOutOfPagesError` naming exactly the failed
        sequences with **nothing mutated** — no page is reserved for any
        member, so every sequence (and batchmate) reads as before and the
        caller can fall back or evict only the failed members and retry the
        survivors.
        """
        if not requests:
            raise ValueError("decode_speculative_batch requires at least one sequence")
        seq_ids = [seq_id for seq_id, _ in requests]
        if len(set(seq_ids)) != len(seq_ids):
            raise ValueError("duplicate seq_id in speculative batch")
        token_arrays: list[np.ndarray] = []
        bases: list[int] = []
        for seq_id, token_ids in requests:
            arr = np.asarray(token_ids, dtype=np.int64).ravel()
            if arr.size == 0:
                raise ValueError("decode_speculative requires at least one token")
            self._check_token_ids(arr)
            base = self.cache.seq_len(seq_id)
            if base == 0:
                raise ValueError(
                    f"decode requires a prefilled sequence, got {seq_id!r}"
                )
            token_arrays.append(arr)
            bases.append(base)

        ms = [int(arr.size) for arr in token_arrays]
        offsets = np.concatenate([[0], np.cumsum(ms)])
        total = int(offsets[-1])

        # Count every member's pages before reserving any, so a failure
        # names the full failed set and leaves nothing to undo.
        failed: list[object] = []
        claimed = 0
        for seq_id, m in zip(seq_ids, ms):
            claim = claimed + self.cache.pages_required(seq_id, m)
            if self._make_room(claim):
                claimed = claim
            else:
                failed.append(seq_id)
        if failed:
            raise self._out_of_pages(failed)
        for seq_id, m in zip(seq_ids, ms):
            self.cache.prepare_append(seq_id, m)

        positions = np.concatenate([np.arange(b, b + m) for b, m in zip(bases, ms)])
        # Lockstep schedule: at chunk position j, the members whose chunk
        # still has a row j advance over it + attend — (rows, seq ids, contexts).
        schedule = []
        for j in range(max(ms)):
            active = [i for i in range(len(ms)) if ms[i] > j]
            schedule.append((
                np.array([offsets[i] + j for i in active], dtype=np.intp),
                [seq_ids[i] for i in active],
                np.array([bases[i] + j + 1 for i in active], dtype=np.int64),
            ))
        keys: list[np.ndarray] = []
        # seq_id -> layer -> its selection entry after each of its chunk
        # rows: what commit installs.
        snapshots: dict[object, list[list]] = {
            seq_id: [[] for _ in self.model.weights.layers] for seq_id in seq_ids
        }

        def attend(layer_idx: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            keys.append(k)
            self.cache.write_past_count(seq_ids, layer_idx, k, v, ms)
            attn_out = np.empty(q.shape)
            for rows, ids, contexts in schedule:
                self.cache.advance_token_batch(ids, layer_idx, k[rows])
                attn_out[rows] = self._decode_attention_batch(ids, layer_idx, q[rows], contexts)
                for seq_id in ids:
                    snapshots[seq_id][layer_idx].append(self._selections.get((seq_id, layer_idx)))
            return attn_out

        points = self.cache.mark(seq_ids)
        for seq_id in seq_ids:
            # The rows an older chunk refers to are about to be overwritten.
            self._verified.pop(seq_id, None)
        try:
            logits = self._run_layers(np.concatenate(token_arrays), positions, attend)
        finally:
            self.cache.rewind(seq_ids, points)
        self.stats.decode_steps += total

        results: list[tuple[np.ndarray, SpeculativeChunk]] = []
        for i, (seq_id, arr) in enumerate(zip(seq_ids, token_arrays)):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            chunk = SpeculativeChunk(
                seq_id=seq_id,
                base_len=bases[i],
                tokens=arr,
                k_per_layer=[k[lo:hi].copy() for k in keys],
                selector_per_layer=snapshots[seq_id],
            )
            self._verified[seq_id] = chunk
            results.append((logits[lo:hi].copy(), chunk))
        return results

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
        ``base_len``, else ``ValueError``.  A page is needed only when the
        tail page became shared since verification (a fork): it is copied on
        write, reserved atomically up front, and an exhausted pool raises
        :class:`DecodeOutOfPagesError` before anything changes.
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
        try:
            self._reserve_pages(seq_id, n_commit)
        except OutOfPagesError:
            raise self._out_of_pages([seq_id]) from None

        del self._verified[seq_id]
        for layer_idx, (k, states) in enumerate(zip(chunk.k_per_layer, chunk.selector_per_layer)):
            self.cache.advance(seq_id, layer_idx, k[:n_commit])
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
        self, token_ids: np.ndarray, positions: np.ndarray, attend, keep_from: int = 0
    ) -> np.ndarray:
        """The model forward over ``token_ids`` rows; returns logits ``(rows - keep_from, vocab)``.

        The one transformer layer loop: prefill chunks, decode steps and
        speculative chunks differ only in ``attend(layer_idx, q, k, v)``,
        which writes the layer's post-RoPE KV to the cache and returns the
        attention output ``(rows, n_heads, head_dim)``.  Every projection
        goes through :func:`_rowwise_matmul`, so a row's bytes never depend
        on how many rows ride the same call — a one-token prefill chunk, a
        decode step and a verify chunk all take the GEMM route.

        ``keep_from`` cuts the rows nobody reads.  Every row's K/V is needed
        in every layer, but past the last layer's ``wk``/``wv`` a row feeds
        only its own logits: there the queries, ``attend`` (its ``q`` holds
        rows ``keep_from:``, possibly none, placed at the end of ``k``),
        ``wo``, the FFN, the final norm and the LM head run on rows
        ``keep_from:`` alone.  Those ops are row-local or batch-size
        independent, so the kept rows' bytes are those of ``keep_from = 0``
        whenever ``attend``'s are — the prefill kernel's, for a cut on a
        query-block boundary.
        """
        cfg = self.model.config
        weights = self.model.weights
        rows = token_ids.shape[0]
        hidden = weights.embedding[token_ids]
        cos_sin = self.model.rope.cos_sin(positions)  # one table per forward, not per use
        last = len(weights.layers) - 1
        for layer_idx, layer in enumerate(weights.layers):
            attn_in = rms_norm(hidden, layer.attn_norm)
            k = _rowwise_matmul(attn_in, layer.wk).reshape(rows, cfg.n_kv_heads, cfg.head_dim)
            v = _rowwise_matmul(attn_in, layer.wv).reshape(rows, cfg.n_kv_heads, cfg.head_dim)
            k = apply_rope(k, positions, self.model.rope, cos_sin)
            if keep_from and layer_idx == last:
                rows -= keep_from
                hidden, attn_in, positions = hidden[keep_from:], attn_in[keep_from:], positions[keep_from:]
                cos_sin = (cos_sin[0][keep_from:], cos_sin[1][keep_from:])
            q = _rowwise_matmul(attn_in, layer.wq).reshape(rows, cfg.n_heads, cfg.head_dim)
            q = apply_rope(q, positions, self.model.rope, cos_sin)
            attn_out = attend(layer_idx, q, k, v)
            hidden = hidden + _rowwise_matmul(
                attn_out.reshape(rows, cfg.hidden_size), layer.wo
            )
            ffn_in = rms_norm(hidden, layer.ffn_norm)
            gate = silu(_rowwise_matmul(ffn_in, layer.w_gate)) * _rowwise_matmul(
                ffn_in, layer.w_up
            )
            hidden = hidden + _rowwise_matmul(gate, layer.w_down)

        hidden = rms_norm(hidden, weights.final_norm)
        return _rowwise_matmul(hidden, weights.lm_head)

    def _check_token_ids(self, token_ids: np.ndarray) -> None:
        """Reject ids the embedding lookup would fault on (or silently wrap)."""
        vocab = self.model.config.vocab_size
        if token_ids.min() < 0 or token_ids.max() >= vocab:
            raise ValueError(f"token ids must be in [0, {vocab})")

    def _forward(self, seq_id: object, token_ids: np.ndarray, skip: int = 0) -> np.ndarray:
        """Prefill one chunk of a sequence (the whole prompt when single-shot).

        Returns the logits of the chunk's rows ``skip:`` (none when ``skip``
        reaches past the chunk).  The last layer is cut at the query-block
        boundary at or below ``skip``, counted from the chunk's first row: a
        query block is the prefill kernel's tile and its output bytes do not
        depend on which other blocks share the call, while a cut inside a
        block would change the tile's GEMM shape and with it the row's bytes.
        """
        start = self.cache.seq_len(seq_id)
        rows = token_ids.shape[0]
        skip = min(skip, rows)
        q_block = self.config.q_block_size
        keep_from = rows if skip == rows else (skip // q_block) * q_block

        def attend(layer_idx: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            if q.shape[0] == 0:
                # No row of this chunk is read: the layer only writes its K/V.
                self.cache.append(seq_id, layer_idx, k, v)
                return q
            if start == 0:
                self.cache.append(seq_id, layer_idx, k, v)
                return self._prefill_attention(q, k, v)
            # Chunked-prefill continuation: the KV history is read *before*
            # this chunk is appended (the streaming window moves past pages
            # the chunk's first queries still see).
            attn_out = self._prefill_continuation_attention(seq_id, layer_idx, q, k, v, start)
            self.cache.append(seq_id, layer_idx, k, v)
            return attn_out

        logits = self._run_layers(token_ids, np.arange(start, start + rows), attend, keep_from)
        return logits[skip - keep_from :]

    def _prefill_attention(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        output, stats = prefill_sparse_attention(
            q,
            k,
            v,
            head_is_streaming=self.streaming_query_heads,
            streaming=self.streaming,
            q_block=self.config.q_block_size,
            kv_block=self.config.physical_page_size,
        )
        self.stats.prefill_blocks_visited += stats.visited_blocks
        self.stats.prefill_blocks_total += stats.total_blocks
        return output

    def _prefill_continuation_attention(
        self,
        seq_id: object,
        layer_idx: int,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        start: int,
    ) -> np.ndarray:
        """Fused sparse attention of one continuation chunk over the full context.

        The chunk's queries attend over ``start`` historical tokens plus the
        chunk itself.  Dense-head history is read back from the paged cache
        (quantized, as a real chunked prefill would); streaming-head history is
        scattered from the sink+local store into its original positions —
        evicted positions stay zero, but the Λ block mask never visits them.
        The chunk's own keys/values are used raw, exactly as in single-shot
        prefill.
        """
        cfg = self.model.config
        n_ctx = start + k_new.shape[0]
        k_full = np.zeros((n_ctx, cfg.n_kv_heads, cfg.head_dim))
        v_full = np.zeros((n_ctx, cfg.n_kv_heads, cfg.head_dim))
        if self._dense_kv_heads.size:
            k_hist, v_hist = self.cache.get_dense(seq_id, layer_idx)
            k_full[:start, self._dense_kv_heads] = k_hist
            v_full[:start, self._dense_kv_heads] = v_hist
        if self._streaming_kv_heads_idx.size:
            k_s, v_s, pos = self.cache.get_streaming(seq_id, layer_idx)
            k_full[np.ix_(pos, self._streaming_kv_heads_idx)] = k_s
            v_full[np.ix_(pos, self._streaming_kv_heads_idx)] = v_s
        k_full[start:] = k_new
        v_full[start:] = v_new
        return self._prefill_attention(q, k_full, v_full)

    def _decode_attention_batch(
        self,
        seq_ids: list[object],
        layer_idx: int,
        q: np.ndarray,
        contexts: np.ndarray,
    ) -> np.ndarray:
        """Decode attention for a whole batch, vectorised across sequences × heads.

        Sequences are grouped by gathered-KV shape and each group runs as one
        indexed KV read plus one stacked-matmul attention call
        (:func:`decode_batched_attention`).  Grouping — never padding — keeps
        every sequence's slice bitwise independent of the batch composition,
        so decoding a sequence alone or inside any batch yields byte-identical
        output.  ``contexts[i]`` is ``seq_ids[i]``'s context length *after*
        this step's append.
        """
        cfg = self.model.config
        group = cfg.gqa_group_size
        output = np.zeros((len(seq_ids), cfg.n_heads, cfg.head_dim))

        def attend(rows: np.ndarray, heads: np.ndarray, k_g: np.ndarray, v_g: np.ndarray) -> None:
            """One group's attention over head-major ``(G, H, N, d)`` KV."""
            at = (rows[:, None], heads)
            output[at] = decode_batched_attention(q[at], k_g, v_g, gqa_group_size=group)

        # Streaming heads: the sink and local pages, grouped by token count.
        if self._streaming_kv_heads_idx.size:
            for rows, k_g, v_g in self.cache.get_streaming_groups(seq_ids, layer_idx):
                attend(rows, self._streaming_query_idx, k_g, v_g)
                self.stats.streaming_tokens_attended += k_g.size // cfg.head_dim
        if not self._dense_kv_heads.size:
            return output

        # Dense heads: dynamic page selection over the full history once the
        # context crosses the sparsity threshold, full reads below it.
        dense_cache = self.cache.dense_cache
        assert dense_cache is not None
        dq_idx = self._dense_query_heads
        n_dense = int(self._dense_kv_heads.size)
        page_size = self.config.physical_page_size
        context_list = contexts.tolist()

        # Every lookup first; the misses that share a logical-page count are
        # then scored together (the count follows from the context length).
        selections: list = [None] * len(seq_ids)
        misses: dict[int, list[int]] = {}
        for i, context in enumerate(context_list):
            if self.config.dynamic_sparsity_active(context):
                n_logical = -(-context // self.config.logical_page_size)
                selections[i] = self.selector.lookup(self._selections, (seq_ids[i], layer_idx), n_logical)
                if selections[i] is None:
                    misses.setdefault(n_logical, []).append(i)
        for idxs in misses.values():
            ids = [seq_ids[i] for i in idxs]
            kmin, kmax = dense_cache.key_stats_batch(ids, layer_idx)
            fresh = self.selector.select_batch(
                self._selections,
                [(seq_id, layer_idx) for seq_id in ids],
                q[np.asarray(idxs)[:, None], dq_idx],
                kmin,
                kmax,
                gqa_group_size=group,
            )
            for i, selection in zip(idxs, fresh):
                selections[i] = selection

        # Group by KV shape: the context on the full path, the gathered
        # ``(n_tokens, n_pages)`` signature on the sparse path.
        attended = 0
        sel_groups: dict[tuple[int, int], list[int]] = {}
        full_groups: dict[int, list[int]] = {}
        for i, (context, selection) in enumerate(zip(context_list, selections)):
            if selection is None:
                # The access-clock tick of a full read, in batch order.
                dense_cache.allocator.touch_many(dense_cache.page_table(seq_ids[i]).pages)
                full_groups.setdefault(context, []).append(i)
                attended += context * n_dense
                continue
            n_selected = selection.pages.shape[1]
            if selection.tail_in_every_row:
                # Every selected page but the tail is full.
                skipped = selection.n_physical_pages - n_selected
                signature = (context - skipped * page_size, n_selected)
            else:
                signature = dense_cache.selected_token_count(seq_ids[i], layer_idx, selection.pages)
            if signature is None:
                # Heads gather different token totals: per-head gather fallback.
                for dense_idx, kv_head in enumerate(self._dense_kv_heads):
                    heads = np.arange(kv_head * group, (kv_head + 1) * group)
                    k_sel, v_sel, _ = dense_cache.gather_pages(
                        seq_ids[i], layer_idx, selection.pages[dense_idx]
                    )
                    output[i, heads] = decode_group_attention(
                        q[i, heads], k_sel[:, dense_idx], v_sel[:, dense_idx]
                    )
                    attended += int(k_sel.shape[0])
                continue
            sel_groups.setdefault(signature, []).append(i)
            attended += signature[0] * n_dense
        self.stats.dense_tokens_attended += attended
        self.stats.dense_tokens_total += sum(context_list) * n_dense

        for idxs in sel_groups.values():
            k_g, v_g = dense_cache.gather_selected_batch(
                [seq_ids[i] for i in idxs], layer_idx, [selections[i].pages for i in idxs]
            )
            attend(np.asarray(idxs, dtype=np.intp), dq_idx, k_g, v_g)
        for idxs in full_groups.values():
            k_g, v_g = dense_cache.read_batch([seq_ids[i] for i in idxs], layer_idx)
            attend(np.asarray(idxs, dtype=np.intp), dq_idx, k_g, v_g)
        return output
