"""Two-way paged KV cache: one page pool for dense heads, one for streaming heads.

LServe keeps two paging systems over the same page format (paper Fig. 5,
§3.6): dense (retrieval) heads keep the full KV history plus key statistics
for page selection, while a streaming head's page table holds only the
attention-sink pages and the local pages, so its cache is constant-size
regardless of context length.  Head classification happens at KV-head
granularity (a whole GQA group is either dense or streaming), which is how
DuoAttention assigns heads for GQA models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache, PagedSequenceExport, RewindPoint

__all__ = ["DualPagedKVCache", "DualSequenceExport"]


@dataclass
class DualSequenceExport:
    """Snapshot of one sequence across both pools, for cross-pool migration.

    Carries each pool's page images (see
    :class:`~repro.kvcache.paged_cache.PagedSequenceExport`); a part is
    ``None`` when the source cache has no heads of its kind.
    """

    n_tokens: int
    dense: PagedSequenceExport | None
    #: The streaming table's pages: the sink pages, then the local pages.
    streaming: PagedSequenceExport | None
    #: ``(sink tokens, local tokens, page size)`` the streaming pages were
    #: kept under; which positions they hold follows from it and ``n_tokens``.
    window: tuple[int, int, int]

    @property
    def n_pages(self) -> int:
        """Dense physical pages the migration must move."""
        return self.dense.n_pages if self.dense is not None else 0


class DualPagedKVCache:
    """Two-way KV cache routing KV heads to a dense or a streaming page pool.

    Parameters
    ----------
    config:
        Paged-cache configuration.  ``n_kv_heads`` is the *total* number of KV
        heads in the model; each pool is created for its subset of the heads,
        with ``num_pages`` pages.
    streaming_head_mask:
        Boolean array over KV heads; ``True`` marks a streaming head.
    sink_tokens, local_tokens:
        Λ-mask geometry of the streaming heads: the sink is whole pages, the
        local window is rounded up to whole pages.

    The streaming pool stores K/V raw (``kv_bits=16``) whatever
    ``config.kv_bits``, and keeps no key statistics.  A sequence's streaming
    table is its sink pages followed by its local pages, kept compact: the
    tokens dropped from between them are counted per sequence, and the
    positions past the sink are shifted by that count.  :meth:`slide` releases the pages that left the
    window (the engine slides a sequence before it counts the pages of its
    next write); until then reads skip them, and a write keeps every page it
    wrote, so a prefill can hand its pages to the prefix index before it
    slides.

    At the same logical position, every streaming page an owner holds — a
    sequence, a fork, a prefix node — has a dense page held by the same
    owner, so the streaming pool cannot run dry before the dense pool does.
    The pool the scheduler accounts (:attr:`allocator`) is the dense one, or
    the streaming one when there are no dense heads.
    """

    def __init__(
        self,
        config: PagedCacheConfig,
        streaming_head_mask: np.ndarray,
        sink_tokens: int,
        local_tokens: int,
    ) -> None:
        mask = np.asarray(streaming_head_mask, dtype=bool)
        if mask.shape != (config.n_kv_heads,):
            raise ValueError(
                f"streaming_head_mask must have shape ({config.n_kv_heads},), got {mask.shape}"
            )
        if sink_tokens < 0 or local_tokens < 1:
            raise ValueError("sink_tokens must be >= 0 and local_tokens >= 1")
        if sink_tokens % config.page_size:
            raise ValueError(
                f"sink_tokens ({sink_tokens}) must be whole pages of {config.page_size} tokens"
            )
        self.config = config
        self.streaming_head_mask = mask
        self.dense_head_indices = np.flatnonzero(~mask)
        self.streaming_head_indices = np.flatnonzero(mask)
        self.sink_pages = sink_tokens // config.page_size
        self.local_pages = -(-local_tokens // config.page_size)

        def pool(heads: np.ndarray, key_stats: bool = True, **storage) -> PagedKVCache | None:
            if not heads.size:
                return None
            return PagedKVCache(
                PagedCacheConfig(
                    n_layers=config.n_layers,
                    n_kv_heads=int(heads.size),
                    head_dim=config.head_dim,
                    page_size=config.page_size,
                    num_pages=config.num_pages,
                    **storage,
                ),
                key_stats=key_stats,
            )

        self.dense_cache = pool(
            self.dense_head_indices, kv_bits=config.kv_bits, logical_page_size=config.logical_page_size
        )
        # Nothing selects pages of the streaming heads: their pool folds no key statistics.
        self.streaming_cache = pool(self.streaming_head_indices, key_stats=False)
        #: ``(pool, KV heads it stores)``, dense first.
        self._routes = tuple(
            (cache, heads)
            for cache, heads in (
                (self.dense_cache, self.dense_head_indices),
                (self.streaming_cache, self.streaming_head_indices),
            )
            if cache is not None
        )
        #: The pools that exist, dense first: a prefix node holds a page in each.
        self.pools = tuple(cache for cache, _ in self._routes)
        #: Live sequence -> tokens its streaming table dropped between the sink and the window.
        self._evicted: dict[object, int] = {}
        # One selection object per ``(table pages, first local position)``:
        # ``gather_selected_batch`` keeps a group's operand block while its
        # members come back with the same objects.
        self._selections: dict[tuple[int, int], np.ndarray] = {}

    @property
    def allocator(self):
        """Allocator of the pool the scheduler accounts (dense, else streaming)."""
        return self.pools[0].allocator

    @property
    def window(self) -> tuple[int, int, int]:
        """``(sink tokens, local tokens, page size)`` of the streaming tables."""
        page = self.config.page_size
        return self.sink_pages * page, self.local_pages * page, page

    # -- sequence management ---------------------------------------------------
    def add_sequence(self, seq_id: object) -> None:
        for cache in self.pools:
            cache.add_sequence(seq_id)
        self._evicted[seq_id] = 0

    def remove_sequence(self, seq_id: object) -> None:
        for cache in self.pools:
            cache.remove_sequence(seq_id)
        del self._evicted[seq_id]

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Fork in both pools: full pages by reference, a partly filled tail page copied.

        See :meth:`PagedKVCache.fork_sequence`.  The tail is partly filled
        in both pools or in neither; every pool must have a free page for its
        copy, else :class:`OutOfPagesError` is raised before anything changes.
        """
        if self.seq_len(parent_id) % self.config.page_size and not all(
            cache.allocator.can_allocate(1) for cache in self.pools
        ):
            raise OutOfPagesError(f"no free page to copy the tail page of {parent_id!r} into")
        for cache in self.pools:
            cache.fork_sequence(parent_id, child_id)
        self._evicted[child_id] = self._evicted[parent_id]

    def attach_prefix(self, seq_id: object, n_tokens: int, pages: list[tuple[int, ...]]) -> None:
        """Create ``seq_id`` whose first ``n_tokens`` are shared prefix pages.

        ``pages[i]`` is logical page ``i`` in each pool (a prefix node's
        pages).  The dense table attaches them all, the streaming table the
        sink pages and the pages of the window ``n_tokens`` leaves — by
        reference either way, key statistics included.
        """
        per_pool = list(zip(*pages)) or [()] * len(self.pools)
        evicted = 0
        for cache, shared in zip(self.pools, per_pool):
            if cache is self.streaming_cache:
                kept = shared[: self.sink_pages] + shared[self._oldest_local(n_tokens) :]
                evicted = n_tokens - len(kept) * self.config.page_size
                cache.attach_prefix(seq_id, list(kept), n_tokens - evicted)
            else:
                cache.attach_prefix(seq_id, list(shared), n_tokens)
        self._evicted[seq_id] = evicted

    def prefix_pages(self, seq_id: object, n_pages: int) -> list[tuple[int, ...] | None]:
        """Logical pages ``0 .. n_pages - 1`` of a sequence in each pool: what the prefix index files.

        ``None`` marks a page the streaming table no longer holds; a prefill
        files its pages before it slides.
        """
        per_pool = []
        for cache in self.pools:
            table: list = list(cache.page_table(seq_id))
            if cache is self.streaming_cache:
                gap = self._evicted[seq_id] // self.config.page_size
                table[self.sink_pages : self.sink_pages] = [None] * gap
            per_pool.append(table[:n_pages])
        return [None if None in pages else pages for pages in zip(*per_pool)]

    def export_sequence(self, seq_id: object) -> DualSequenceExport:
        """Snapshot a sequence's pages in both pools (source left untouched)."""
        dense, streaming = (
            None if cache is None else cache.export_sequence(seq_id)
            for cache in (self.dense_cache, self.streaming_cache)
        )
        return DualSequenceExport(self.seq_len(seq_id), dense, streaming, self.window)

    def import_sequence(self, seq_id: object, export: DualSequenceExport) -> int:
        """Install an exported sequence on freshly allocated pages of both pools.

        Returns the number of dense pages allocated (the pages a transfer
        cost model charges for).  Raises ``ValueError`` on an existing
        ``seq_id``, a mismatched head partitioning or a geometry a pool cannot
        hold (streaming window, page size, heads, head dim, layers), and
        ``OutOfPagesError`` when a pool cannot hold the pages — all before
        any mutation.
        """
        if seq_id in self._evicted:
            raise ValueError(f"sequence {seq_id!r} already exists")
        parts = (export.dense, export.streaming)
        if tuple(part is None for part in parts) != (self.dense_cache is None, self.streaming_cache is None):
            raise ValueError(
                "exported sequence's dense/streaming head split does not match "
                "the target cache"
            )
        if export.streaming is not None and export.window != self.window:
            raise ValueError(
                f"exported streaming pages (window {export.window}) do not fit this "
                f"cache (window {self.window}); a window is (sink, local, page size)"
            )
        parts = [part for part in parts if part is not None]
        for cache, part in zip(self.pools, parts):
            cache.check_import(seq_id, part)
        for cache, part in zip(self.pools, parts):
            cache.import_sequence(seq_id, part)
        streaming = export.streaming
        self._evicted[seq_id] = 0 if streaming is None else export.n_tokens - streaming.tokens_per_layer[0]
        return export.n_pages

    def pages_required(self, seq_id: object, n_new_tokens: int) -> int:
        """Pages of the accounted pool a write of ``n_new_tokens`` rows will allocate (see the class docstring)."""
        return self.pools[0].pages_required(seq_id, n_new_tokens)

    def has_sequence(self, seq_id: object) -> bool:
        return seq_id in self._evicted

    def sequences(self) -> list[object]:
        return list(self._evicted)

    def seq_len(self, seq_id: object) -> int:
        cache = self.pools[0]
        evicted = self._evicted[seq_id] if cache is self.streaming_cache else 0
        return cache.seq_len(seq_id) + evicted

    def _oldest_local(self, total: int) -> int:
        """Logical index of the oldest page the local window keeps after ``total`` tokens.

        The first page past the sink while the window has not left it; the
        newest page holds token ``total - 1``.
        """
        return max(self.sink_pages, (total - 1) // self.config.page_size - self.local_pages + 1)

    def slide(self, seq_id: object) -> None:
        """Release the streaming pages that left every layer's window.

        The window only moves forward, so what the layer with the fewest
        tokens no longer keeps, no layer does — and every layer has filled it.
        """
        stream = self.streaming_cache
        # No page has left the window while the table holds no more pages
        # than the sink and a full window.
        if stream is None or len(stream.page_table(seq_id)) <= self.sink_pages + self.local_pages:
            return
        evicted = self._evicted[seq_id]
        fewest = min(stream.seq_len(seq_id, layer) for layer in range(self.config.n_layers))
        first = self._oldest_local(fewest + evicted) - evicted // self.config.page_size
        if first > self.sink_pages:
            n_pages = len(stream.page_table(seq_id))
            stream.truncate_pages(seq_id, [*range(self.sink_pages), *range(first, n_pages)])
            self._evicted[seq_id] += (first - self.sink_pages) * self.config.page_size

    # -- writes ------------------------------------------------------------------
    def append(self, seq_id: object, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Prefill's bulk write of one sequence's rows: :meth:`write_past_count` + :meth:`advance`.

        A route only: it keeps a name of its own because the wall-clock
        benchmark's tracer (``benchmarks/e2e/trace.py``, ``PLAN``) wraps it.
        """
        self.write_past_count([seq_id], layer, k, v, [len(k)])
        self.advance([seq_id], layer, k, [len(k)])

    def append_batch(self, seq_ids: list[object], layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """One row per sequence: :meth:`write_past_count` + :meth:`advance`.

        A route only, with no caller in the library: it keeps a name of its
        own because the wall-clock benchmark's tracer
        (``benchmarks/e2e/trace.py``, ``PLAN``) wraps it.
        """
        self.write_past_count(seq_ids, layer, k, v)
        self.advance(seq_ids, layer, k)

    def _check_heads(self, *arrays: np.ndarray) -> None:
        """Raise unless every array carries all ``n_kv_heads`` on axis 1 (the routes split them)."""
        heads = (self.config.n_kv_heads,)
        for array in arrays:
            if array.shape[1:2] != heads:
                raise ValueError(f"expected {heads[0]} KV heads on axis 1, got shape {array.shape}")

    def write_past_count(
        self,
        seq_ids: list[object],
        layer: int,
        k: np.ndarray,
        v: np.ndarray,
        n_rows: list[int] | None = None,
    ) -> None:
        """Write all-KV-head rows past each sequence's count, one call per pool.

        ``k``/``v`` are ``(sum(n_rows), n_kv_heads, head_dim)``, member-major;
        see :meth:`PagedKVCache.write_past_count`.  Each pool's table grows
        for the rows, dense first, so each page the streaming pool allocates
        has a dense page at the same position.
        """
        self._check_heads(k, v)
        for cache, heads in self._routes:
            cache.write_past_count(seq_ids, layer, k[:, heads], v[:, heads], n_rows)

    def advance(
        self, seq_ids: list[object], layer: int, k: np.ndarray, n_rows: list[int] | None = None
    ) -> None:
        """Take written rows into ``layer`` of both pools; ``k`` is their all-KV-head raw keys.

        Member-major like :meth:`write_past_count`; see :meth:`PagedKVCache.advance`.
        """
        self._check_heads(k)
        for cache, heads in self._routes:
            cache.advance(seq_ids, layer, k[:, heads], n_rows)

    def mark(self, seq_ids: list[object]) -> list[list[RewindPoint]]:
        """Per pool, each sequence's :meth:`PagedKVCache.mark`: what :meth:`rewind` takes it back to."""
        return [[cache.mark(seq_id) for seq_id in seq_ids] for cache in self.pools]

    def rewind(self, seq_ids: list[object], points: list[list[RewindPoint]]) -> None:
        """Take the sequences back to a :meth:`mark` in both pools (see :meth:`PagedKVCache.rewind`).

        Nothing slides between the two, so the window is where it was.
        """
        for cache, marks in zip(self.pools, points):
            cache.rewind(seq_ids, marks)

    # -- reads ---------------------------------------------------------------------
    def _window_selection(self, stored: int, evicted: int) -> np.ndarray:
        """The ``(n_streaming_heads, n_pages)`` table positions a read of ``stored`` tokens takes.

        The sink and the window: every position but pages that already left
        it.  Only the last, the tail page, can be partial.
        """
        page = self.config.page_size
        n_pages = -(-stored // page)
        first = self._oldest_local(stored + evicted) - evicted // page
        selection = self._selections.get((n_pages, first))
        if selection is None:
            positions = [*range(min(self.sink_pages, n_pages)), *range(first, n_pages)]
            selection = self._selections[(n_pages, first)] = np.tile(
                np.asarray(positions, dtype=np.int64), (self.streaming_head_indices.size, 1)
            )
        return selection

    def get_streaming_groups(
        self, seq_ids: list[object], layer: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The sink and window pages of a decode batch, grouped by page count.

        Returns ``(rows, k, v)`` per group: ``rows`` index into ``seq_ids``
        and ``k``/``v`` are head-major ``(len(rows), n_streaming_heads,
        n_pages * page_size, head_dim)`` operands in position order: each
        sequence's first tokens equal its own :meth:`get_streaming`, and the
        slots past them are its tail page's slack.  Once a table holds the
        sink and a full window, every sequence reads the same page count, so
        a batch past the window is one group.  A group is one
        :meth:`PagedKVCache.gather_selected_batch` of the window selections,
        served from its operand block until a member's window moves.
        """
        stored = self.streaming_cache.token_counts(seq_ids, layer)
        reads: dict[tuple[int, int], np.ndarray] = {}
        selections = []
        groups: dict[int, list[int]] = {}
        for i, seq_id in enumerate(seq_ids):
            key = (stored[i], self._evicted[seq_id])
            selection = reads.get(key)
            if selection is None:
                selection = reads[key] = self._window_selection(*key)
            selections.append(selection)
            groups.setdefault(selection.shape[1], []).append(i)
        out = []
        for idxs in groups.values():
            k, v = self.streaming_cache.gather_selected_batch(
                [seq_ids[i] for i in idxs], layer, [selections[i] for i in idxs]
            )
            out.append((np.asarray(idxs, dtype=np.intp), k, v))
        return out

    def get_dense(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Full KV history of the dense KV heads."""
        if self.dense_cache is None:
            empty = np.zeros((0, 0, self.config.head_dim))
            return empty, empty.copy()
        return self.dense_cache.get(seq_id, layer)

    def get_streaming(
        self, seq_id: object, layer: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sink + local KV of the streaming KV heads, with original positions."""
        if self.streaming_cache is None:
            empty = np.zeros((0, 0, self.config.head_dim))
            return empty, empty.copy(), np.zeros(0, dtype=np.int64)
        evicted = self._evicted[seq_id]
        selection = self._window_selection(self.streaming_cache.seq_len(seq_id, layer), evicted)
        k, v, stored_at = self.streaming_cache.gather_pages(seq_id, layer, selection[0])
        sink = self.sink_pages * self.config.page_size
        return k, v, np.where(stored_at < sink, stored_at, stored_at + evicted)

    def dense_key_stats(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        if self.dense_cache is None:
            empty = np.zeros((0, 0, self.config.head_dim))
            return empty, empty.copy()
        return self.dense_cache.key_stats(seq_id, layer)

    # -- accounting -------------------------------------------------------------------
    @property
    def operand_block_bytes(self) -> int:
        """Bytes of gathered decode operands both pools keep alive (0 once everything is released)."""
        return sum(cache.operand_block_bytes for cache in self.pools)

    def memory_bytes_model(self, seq_id: object | None = None) -> float:
        """Modelled KV memory across both pools."""
        return sum(cache.memory_bytes_model(seq_id) for cache in self.pools)
