"""Paged KV cache with KV quantization and per-logical-page key statistics.

Functional model of the QServe/vLLM KV cache that LServe extends:

* KV history is stored in fixed-size physical pages handed out by a
  :class:`~repro.kvcache.allocator.PageAllocator`.  A sequence's page table
  is the list of its page ids in logical order (page ``i`` holds tokens
  ``[i * page_size, (i + 1) * page_size)``); its token counts are kept per
  (sequence, layer) beside it.
* Keys/values pass through asymmetric KV4/KV8 quantization on write
  (``kv_bits < 16``): a low-bit pool holds the records of
  :mod:`~repro.kvcache.quantization`, each (token, head) one ``uint8`` code
  per channel followed by its ``float64`` scale and zero (the QServe page
  layout, paper Fig. 5).  :func:`~repro.kvcache.quantization.encode` writes
  them and every read rebuilds the values with
  :func:`~repro.kvcache.quantization.decode`, so attention sees the
  quantized values.  A 16-bit pool holds raw ``float64`` K/V.  The
  modelled footprint (fp16 scales/zeros, packed KV4 codes) is
  :meth:`PagedKVCache.memory_bytes_model`, which is what the cost model and
  memory experiments consume.
* Channel-wise min/max key statistics (``K_stats``, Fig. 5/7) are maintained
  per *logical* page (``logical_page_size`` tokens), the granularity used by
  the hierarchical page selector (paper §3.5.2).  They live **in the page
  pool**, one row per logical page of every physical page, so they are
  shared, copied, exported and freed with the page that holds the keys.  A
  pool built with ``key_stats=False`` (the streaming heads', which nothing
  selects pages from) keeps no rows at all.
* Every write is two steps: :meth:`PagedKVCache.write_past_count` puts rows
  into the slots past each sequence's count, and :meth:`PagedKVCache.advance`
  moves the counts over them, folding the key statistics.  A prefill writes
  and advances its prompt in one call each, a decode step one row per
  sequence, and a speculative verify writes a whole chunk once and advances
  it run by run (the rows that share one page selection).
* A page is stored **head-major** — ``(n_kv_heads, page_size, head_dim)`` —
  so one (page, head) block is contiguous and a decode gather copies whole
  blocks; the public reads (:meth:`PagedKVCache.get`,
  :meth:`PagedKVCache.gather_pages`) stay token-major.  A page holds its K
  blocks and then its V blocks, in one array per layer, so a decode step's
  write, gather and dequantisation each take K and V in one numpy call.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from repro.kvcache.allocator import OutOfPagesError, PageAllocator
from repro.kvcache.operand_blocks import OperandBlocks
from repro.kvcache.quantization import SUPPORTED_BITS, decode, encode, record_dtype

__all__ = ["PagedCacheConfig", "PagedKVCache", "PagedSequenceExport", "RewindPoint"]


def _pool_zeros(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed pool array, committed 4 KB at a time as its pages are first written.

    ``np.zeros`` advises transparent huge pages on arrays of 4 MB and more,
    so a pool that touches a few of its pages would commit 2 MB around
    each, by where its mapping happens to land.  A private anonymous
    mapping advised ``MADV_NOHUGEPAGE`` keeps resident memory to the pages
    written.
    """
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * int(np.prod(shape))
    advice = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if advice is None or nbytes == 0:
        return np.zeros(shape, dtype)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    buffer.madvise(advice)
    return np.frombuffer(buffer, dtype).reshape(shape)


@dataclass
class PagedSequenceExport:
    """Bit-exact snapshot of one sequence's paged KV state, for migration.

    Produced by :meth:`PagedKVCache.export_sequence` and consumed by
    :meth:`PagedKVCache.import_sequence` on a *different* cache (typically a
    different replica's pool in a disaggregated cluster).  Page **images**
    are carried, not token histories: stored values are post-quantization
    while per-page key statistics fold the raw pre-quantization keys, so
    replaying tokens on the target would diverge — copying the images (K/V
    blocks plus the pages' key-statistic rows) is the only byte-identical
    unit of migration.
    """

    page_size: int
    n_kv_heads: int
    head_dim: int
    kv_bits: int
    #: Per-layer token counts (identical across layers outside a forward).
    tokens_per_layer: list[int]
    #: Per-layer page images as the pool holds them: ``(n_pages, n_kv_heads,
    #: page_size, head_dim)`` floats at ``kv_bits == 16``, ``(n_pages,
    #: n_kv_heads, page_size)`` code records (codes, scale, zero) below.
    k_pages: list[np.ndarray]
    v_pages: list[np.ndarray]
    #: Per-layer key-statistic rows of those pages, shape
    #: ``(n_pages, logical_pages_per_physical, n_kv_heads, head_dim)``; empty
    #: lists from a pool that keeps no key statistics.
    kmin_pages: list[np.ndarray]
    kmax_pages: list[np.ndarray]
    #: Per-layer :attr:`PagedKVCache.page_selections` entry (``None`` when the layer has none).
    selections: list[tuple | None]

    @property
    def n_pages(self) -> int:
        """Physical pages the snapshot carries (what a transfer must move)."""
        return int(self.k_pages[0].shape[0]) if self.k_pages else 0


@dataclass(frozen=True)
class RewindPoint:
    """What :meth:`PagedKVCache.rewind` takes one sequence back to (see :meth:`PagedKVCache.mark`)."""

    #: Per layer: the token count, the ``(kmin, kmax)`` row of the partly
    #: filled logical page at that count (``None`` on a logical-page
    #: boundary, and in a pool without key statistics) and the
    #: :attr:`PagedKVCache.page_selections` entry.
    tokens: tuple[int, ...]
    stat_rows: tuple[tuple[np.ndarray, np.ndarray] | None, ...]
    selections: tuple[tuple | None, ...]


@dataclass(frozen=True)
class PagedCacheConfig:
    """Static configuration of a paged KV cache pool."""

    n_layers: int
    n_kv_heads: int
    head_dim: int
    page_size: int = 64
    num_pages: int = 4096
    kv_bits: int = 16
    logical_page_size: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_kv_heads", "head_dim", "page_size", "num_pages"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kv_bits not in SUPPORTED_BITS:
            raise ValueError(f"kv_bits must be one of {SUPPORTED_BITS}")
        lps = self.logical_page_size
        if lps is not None:
            if lps <= 0:
                raise ValueError("logical_page_size must be positive")
            if self.page_size % lps != 0:
                raise ValueError(
                    f"page_size ({self.page_size}) must be a multiple of "
                    f"logical_page_size ({lps})"
                )

    @property
    def effective_logical_page_size(self) -> int:
        return self.logical_page_size or self.page_size

    @property
    def logical_pages_per_physical(self) -> int:
        return self.page_size // self.effective_logical_page_size


@dataclass(eq=False)
class _SelectedBlock:
    """One decode group's gathered selected pages (see :meth:`PagedKVCache.gather_selected_batch`)."""

    members: list[object]
    #: The selection matrices its rows were gathered from, held by identity:
    #: the selector hands out the same objects for as long as it reuses them.
    #: ``None`` marks a row a :meth:`PagedKVCache.rewind` left stale below its last page.
    selections: list[np.ndarray | None]
    #: ``(G, H, P)`` physical pages behind the buffers.
    page_ids: np.ndarray
    #: Their set — what a served gather ticks the access clock with.
    touched: set[int]
    #: ``(G,)`` token count up to which each row matches the pool (a
    #: :meth:`PagedKVCache.rewind` lowers it to the count it goes back to).
    counts: np.ndarray
    #: ``(2, G, H, P * page_size, d)``: the K then the V buffer, one row per member.
    kv: np.ndarray
    #: Its halves, the views a gather hands out.
    k: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.k, self.v = self.kv


class PagedKVCache:
    """Multi-sequence paged KV cache (one pool shared by all sequences).

    ``key_stats=False`` builds a pool that keeps no key statistics: advances
    fold nothing, and the stat parts of its page images and exports are
    empty lists.
    """

    def __init__(self, config: PagedCacheConfig, key_stats: bool = True) -> None:
        self.config = config
        self.allocator = PageAllocator(config.num_pages)
        self.has_key_stats = key_stats
        layers = range(config.n_layers)
        # Per-layer physical storage, a page's K then its V, head-major:
        # (num_pages, 2, n_kv_heads, page_size) code records below 16 bits
        # (see ``quantization.encode``), with a trailing head_dim axis of floats at 16.
        # One array holds both, so a write, a read and a copy-in reach K and
        # V in one indexed operation; ``_k_store``/``_v_store`` are its
        # halves.  Pools are committed lazily, as their pages are first
        # written (``_pool_zeros``).
        kv_shape = (config.num_pages, 2, config.n_kv_heads, config.page_size)
        if config.kv_bits == 16:
            kv_shape, kv_dtype = (*kv_shape, config.head_dim), np.float64
        else:
            kv_dtype = record_dtype(config.head_dim)
        self._kv_store = [_pool_zeros(kv_shape, kv_dtype) for _ in layers]
        self._k_store = [kv[:, 0] for kv in self._kv_store]
        self._v_store = [kv[:, 1] for kv in self._kv_store]
        # K_stats rows of every page: (num_pages, logical_pages_per_physical,
        # n_kv_heads, head_dim).  A logical page's first token *assigns* its
        # row and reads stop at the last written row, so the stale rows of a
        # recycled page are never seen.
        stat_shape = (
            config.num_pages,
            config.logical_pages_per_physical,
            config.n_kv_heads,
            config.head_dim,
        )
        stat_layers = layers if key_stats else ()
        self._kmin = [_pool_zeros(stat_shape) for _ in stat_layers]
        self._kmax = [_pool_zeros(stat_shape) for _ in stat_layers]
        # Everything a page owns a row of: what a page copy or image carries.
        self._pools = (self._k_store, self._v_store, self._kmin, self._kmax)
        # The K/V pools viewed as contiguous (page, K | V, head) blocks: page
        # ``p``'s K block of head ``h`` is ``p * 2 * n_kv_heads + h``, its V
        # block ``n_kv_heads`` further on.
        self._kv_blocks = [kv.reshape(-1, *kv_shape[3:]) for kv in self._kv_store]
        self._head_offsets = np.arange(config.n_kv_heads, dtype=np.intp)[:, None]
        self._half_offsets = np.array([0, config.n_kv_heads], dtype=np.intp)
        self._halves = np.arange(2, dtype=np.intp)[:, None, None]
        #: Each sequence's page table: its physical page ids in logical order.
        self._tables: dict[object, list[int]] = {}
        self._tokens: dict[tuple[object, int], int] = {}
        #: ``(seq_id, layer)`` -> the decode selector's ``(selection,
        #: queries_served)`` over the sequence's table positions.  Opaque
        #: here: an entry is replaced, never mutated, so fork, export/import
        #: and removal carry it like the token counts beside it.
        self.page_selections: dict[tuple[object, int], tuple] = {}
        # Gathered decode operands kept across the selector's reuse interval.
        self._operands = OperandBlocks(config.n_layers)

    # -- sequence management -------------------------------------------------
    def add_sequence(self, seq_id: object) -> None:
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id!r} already exists")
        self._tables[seq_id] = []
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] = 0

    def remove_sequence(self, seq_id: object) -> None:
        table = self._table(seq_id)
        self._operands.drop((seq_id,))
        self.allocator.free_many(table)
        del self._tables[seq_id]
        for layer in range(self.config.n_layers):
            del self._tokens[(seq_id, layer)]
            self.page_selections.pop((seq_id, layer), None)

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Create ``child_id`` as a fork of ``parent_id``.

        The parent's full pages are *referenced* (incref'd), not copied, and
        the key statistics are rows of those pages, so the child shares them
        through the same reference.  A partly filled page holding the
        parent's last token is copied to a fresh page at once — its K/V
        blocks and stat rows, every layer — so no page a write or an advance
        reaches is held by two owners.  Pages past the parent's last token
        hold rows written past its count and stay the parent's alone.  The
        copy's page is allocated first: a full pool raises
        :class:`OutOfPagesError` before anything changes.  The child starts
        with the parent's :attr:`page_selections` entries.
        """
        ptable = self._table(parent_id)
        if child_id in self._tables:
            raise ValueError(f"sequence {child_id!r} already exists")
        n_full, partial = divmod(self._tokens[(parent_id, 0)], self.config.page_size)
        tail = [self.install_page_image(self.page_image(ptable[n_full]))] if partial else []
        child = ptable[:n_full]
        for page in child:
            self.allocator.incref(page)
        self._tables[child_id] = child + tail
        for layer in range(self.config.n_layers):
            self._tokens[(child_id, layer)] = self._tokens[(parent_id, layer)]
            if (parent_id, layer) in self.page_selections:
                self.page_selections[(child_id, layer)] = self.page_selections[(parent_id, layer)]

    def attach_prefix(self, seq_id: object, pages: list[int], n_tokens: int) -> None:
        """Create ``seq_id`` with a shared, already-materialised page prefix.

        ``pages`` must cover exactly ``n_tokens`` (full pages only — the
        prefix index shares at physical-page granularity); each page is
        incref'd, and its key statistics come with it, exactly as in
        :meth:`fork_sequence`.
        """
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id!r} already exists")
        if n_tokens != len(pages) * self.config.page_size:
            raise ValueError(
                f"attach_prefix shares whole pages: {len(pages)} pages cover "
                f"{len(pages) * self.config.page_size} tokens, not {n_tokens}"
            )
        for page in pages:
            self.allocator.incref(page)
        self._tables[seq_id] = list(pages)
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] = n_tokens

    def truncate_pages(self, seq_id: object, keep: list[int]) -> None:
        """Keep only the table positions ``keep`` of a sequence; the other pages are decref'd.

        The kept pages close ranks in their old order, so every layer's count
        drops by the tokens the dropped pages held — pages every layer has
        filled, when a layer's tokens are to stay addressed by table
        position.  An out-of-range position raises ``IndexError`` before
        anything changes; the operand blocks naming the sequence go.
        """
        table = self._table(seq_id)
        kept = sorted(set(keep))
        if any(not 0 <= pos < len(table) for pos in kept):
            raise IndexError("keep index out of range")
        dropped = sorted(set(range(len(table))) - set(kept))
        page_size, count = self.config.page_size, self._tokens[(seq_id, 0)]
        lost = sum(min(page_size, max(0, count - pos * page_size)) for pos in dropped)
        self.allocator.free_many([table[pos] for pos in dropped])
        table[:] = [table[pos] for pos in kept]
        self._operands.drop((seq_id,))
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] -= lost

    def export_sequence(self, seq_id: object) -> PagedSequenceExport:
        """Snapshot a sequence's pages, counts, key stats and selections for migration.

        The source sequence is left untouched (pair with
        :meth:`remove_sequence` to complete a hand-off).  Page images and
        their key-statistic rows are copied, so the snapshot stays valid after
        the source releases its pages.
        """
        table = self._table(seq_id)
        cfg = self.config
        page_ids = np.asarray(table, dtype=np.intp)
        k_pages, v_pages, kmin_pages, kmax_pages = (
            [store[page_ids] for store in pool] for pool in self._pools
        )
        layers = range(cfg.n_layers)
        return PagedSequenceExport(
            page_size=cfg.page_size,
            n_kv_heads=cfg.n_kv_heads,
            head_dim=cfg.head_dim,
            kv_bits=cfg.kv_bits,
            tokens_per_layer=[self._tokens[(seq_id, layer)] for layer in layers],
            k_pages=k_pages,
            v_pages=v_pages,
            kmin_pages=kmin_pages,
            kmax_pages=kmax_pages,
            selections=[self.page_selections.get((seq_id, layer)) for layer in layers],
        )

    def import_sequence(self, seq_id: object, export: PagedSequenceExport) -> list[int]:
        """Install an exported sequence into this pool on freshly attached pages.

        Allocates ``export.n_pages`` pages (each enters at refcount 1 — the
        target-side *attach* of the migration), bit-copies the page images
        and their key-statistic rows, and rebuilds the page table, token
        counts and :attr:`page_selections` entries.  Raises what
        :meth:`check_import` raises, before any mutation.  Returns the
        allocated page ids.
        """
        cfg = self.config
        self.check_import(seq_id, export)
        pages = self.allocator.allocate_many(export.n_pages)
        page_ids = np.asarray(pages, dtype=np.intp)
        images = (export.k_pages, export.v_pages, export.kmin_pages, export.kmax_pages)
        if pages:
            for pool, image in zip(self._pools, images):
                for store, rows in zip(pool, image):
                    store[page_ids] = rows
        self._tables[seq_id] = pages
        for layer in range(cfg.n_layers):
            self._tokens[(seq_id, layer)] = export.tokens_per_layer[layer]
            if export.selections[layer] is not None:
                self.page_selections[(seq_id, layer)] = export.selections[layer]
        return list(pages)

    def check_import(self, seq_id: object, export: PagedSequenceExport) -> None:
        """Whether :meth:`import_sequence` would take ``export``; raises if not.

        ``ValueError`` when ``seq_id`` already exists or the snapshot's
        geometry does not match this pool, and
        :class:`~repro.kvcache.allocator.OutOfPagesError` when the pool cannot
        hold the pages.
        """
        cfg = self.config
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id!r} already exists")
        if (
            export.page_size != cfg.page_size
            or export.n_kv_heads != cfg.n_kv_heads
            or export.head_dim != cfg.head_dim
            or export.kv_bits != cfg.kv_bits
            or len(export.k_pages) != cfg.n_layers
            or len(export.kmin_pages) != len(self._kmin)
        ):
            raise ValueError(
                "exported sequence geometry (page_size/heads/head_dim/kv_bits/"
                "layers/key statistics) does not match the target cache"
            )
        if not self.allocator.can_allocate(export.n_pages):
            raise OutOfPagesError(
                f"cannot import sequence {seq_id!r}: needs {export.n_pages} pages but "
                f"only {self.allocator.num_free} free of {self.allocator.capacity}"
            )

    def has_sequence(self, seq_id: object) -> bool:
        return seq_id in self._tables

    def sequences(self) -> list[object]:
        return list(self._tables)

    def _table(self, seq_id: object) -> list[int]:
        if seq_id not in self._tables:
            raise KeyError(f"unknown sequence {seq_id!r}")
        return self._tables[seq_id]

    def page_table(self, seq_id: object) -> list[int]:
        """The sequence's physical page ids in logical order: the live list.

        Read-only for callers (mutate through the cache's methods); one that
        keeps a snapshot copies it.  ``KeyError`` for an unknown sequence.
        """
        return self._table(seq_id)

    def seq_len(self, seq_id: object, layer: int = 0) -> int:
        self._table(seq_id)
        return self._tokens[(seq_id, layer)]

    def token_counts(self, seq_ids: list[object], layer: int) -> list[int]:
        """Each sequence's token count in ``layer`` (``KeyError`` for an unknown one)."""
        return [self._tokens[(seq_id, layer)] for seq_id in seq_ids]

    # -- writes ----------------------------------------------------------------
    def pages_required(self, seq_id: object, n_new_tokens: int) -> int:
        """Physical pages a write of ``n_new_tokens`` rows past the sequence's count will allocate.

        The fresh pages the table needs to cover them: a page at the count is
        never shared (see :meth:`fork_sequence`), so nothing is copied.
        Counted for every sequence before any write, it keeps a batched step
        atomic.  The count is layer 0's (all layers are equal between
        forwards).
        """
        n_pages = len(self._table(seq_id))
        return max(0, -(-(self._tokens[(seq_id, 0)] + n_new_tokens) // self.config.page_size) - n_pages)

    def _fold_key_stats(self, layer: int, runs: list[tuple[list[int], int, int]], k: np.ndarray) -> None:
        """Fold several sequences' runs of raw keys into their stat rows, in one pass.

        ``k`` is member-major; ``runs`` holds per sequence ``(its table's
        pages, its first token index, its row count)``.  One min/max per
        touched logical page of each sequence (``reduceat`` cuts the keys at
        logical-page and sequence boundaries); only a sequence's first can
        already hold earlier tokens, which fold in.  Min and max are exact,
        so the rows do not depend on how the keys were split across calls.
        """
        cfg = self.config
        lps, lpp = cfg.effective_logical_page_size, cfg.logical_pages_per_physical
        cuts, pages, slots, partial = [], [], [], []
        row = 0
        for table_pages, start, m in runs:
            if start % lps:
                partial.append(len(cuts))
            for logical in range(start // lps, (start + m - 1) // lps + 1):
                cuts.append(row + max(logical * lps - start, 0))
                pages.append(table_pages[logical // lpp])
                slots.append(logical % lpp)
            row += m
        cuts = np.array(cuts, dtype=np.intp)
        where = (np.array(pages, dtype=np.intp), np.array(slots, dtype=np.intp))
        for stats, fold in ((self._kmin[layer], np.minimum), (self._kmax[layer], np.maximum)):
            rows = fold.reduceat(k, cuts, axis=0)
            for j in partial:
                rows[j] = fold(rows[j], stats[pages[j], slots[j]])
            stats[where] = rows

    def _check_rows(
        self, seq_ids: list[object], layer: int, n_rows: list[int] | None, *arrays: np.ndarray
    ) -> list[int]:
        """Each sequence's row count (one by default); raises unless every array is
        ``(sum(n_rows), n_kv_heads, head_dim)`` and ``layer`` exists."""
        cfg = self.config
        if n_rows is None:
            n_rows = [1] * len(seq_ids)
        elif len(n_rows) != len(seq_ids):
            raise ValueError(f"{len(n_rows)} row counts for {len(seq_ids)} sequences")
        expected = (sum(n_rows), cfg.n_kv_heads, cfg.head_dim)
        if any(array.shape != expected for array in arrays):
            raise ValueError(f"rows must have shape {expected}; got {[array.shape for array in arrays]}")
        if not 0 <= layer < cfg.n_layers:
            raise IndexError(f"layer {layer} out of range")
        return n_rows

    # -- writes past the count ---------------------------------------------------
    def write_past_count(
        self,
        seq_ids: list[object],
        layer: int,
        k: np.ndarray,
        v: np.ndarray,
        n_rows: list[int] | None = None,
    ) -> None:
        """Write rows into the slots past each sequence's count, in one call.

        ``k``/``v`` are ``(M, n_kv_heads, head_dim)``, member-major: the
        first ``n_rows[0]`` rows (one per sequence by default) are
        ``seq_ids[0]``'s, and so on; sequence ``i``'s land in slots ``count
        .. count + n_rows[i] - 1`` of its own pages.  One quantisation covers
        K and V of all ``M`` rows — groups are per (token, head), so the codes
        are those of writing each row alone — and one scatter per store
        writes them.  Counts, key statistics and selection entries are
        not touched: :meth:`advance` takes the rows in.  The pair is the one
        way a row reaches the pool: a prefill writes its prompt as one
        sequence's rows, a decode step one row per sequence, a speculative
        verify every member's chunk.

        The table grows to cover the rows: the pages :meth:`pages_required`
        counts.  No page at or past a count is shared, so the rows land in
        the sequence's own pages.
        """
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        one_each = n_rows is None
        n_rows = self._check_rows(seq_ids, layer, n_rows, k, v)
        if not len(k):
            return

        # ``run`` lists every sequence's pages under its rows; per sequence,
        # ``spans`` holds (its count, the offset of its page ``p`` in ``run`` - p).
        run, spans, n_run = [], [], 0
        page_size, counts = self.config.page_size, self._tokens
        for seq_id, m in zip(seq_ids, n_rows):
            table = self._table(seq_id)
            start = counts[(seq_id, layer)]
            lo, hi, n_pages = start // page_size, (start + m - 1) // page_size + 1, len(table)
            if hi > n_pages:
                table += self.allocator.allocate_many(hi - n_pages)
            run += table[lo:hi]
            spans += (start, n_run - lo)
            n_run += hi - lo

        pages = np.array(run, dtype=np.intp)
        if one_each:  # a row per sequence: its token is the count, its page ``run[i]``
            tokens = np.array(spans[::2], dtype=np.intp)
        else:  # row r of sequence i is its token count + r, on run page offset + token // page_size
            ms = np.array(n_rows, dtype=np.intp)
            starts, firsts = np.array(spans, dtype=np.intp).reshape(-1, 2).T
            tokens = (starts - ms.cumsum() + ms).repeat(ms) + np.arange(len(k))
            pages = pages[firsts.repeat(ms) + tokens // page_size]
        # Index arrays split by slices put their axis first: the target is (M, 2, H).
        at = (pages, slice(None), slice(None), tokens % page_size)
        self._kv_store[layer][at] = encode(np.stack((k, v)), self.config.kv_bits).swapaxes(0, 1)

    def advance(
        self, seq_ids: list[object], layer: int, k: np.ndarray, n_rows: list[int] | None = None
    ) -> None:
        """Take rows written past the count into one layer of each sequence.

        ``k`` is ``(M, n_kv_heads, head_dim)``, member-major as in
        :meth:`write_past_count` (one row per sequence by default): the raw
        keys of rows already in their slots.  Each count moves up by its
        ``n_rows[i]``.  The keys
        fold into the statistics — a logical page's first token assigns its
        row, later tokens fold into it — in one gather-fold-scatter when
        every sequence takes one row, else in one ``reduceat`` pass over
        every sequence's run (:meth:`_fold_key_stats`); min and max are
        exact, so the rows do not depend on how the keys are split across
        calls; a pool without them folds nothing.  Advancing past the pages
        a sequence holds raises ``ValueError``.
        """
        k = np.asarray(k, dtype=np.float64)
        one_each = n_rows is None or all(m == 1 for m in n_rows)
        n_rows = self._check_rows(seq_ids, layer, n_rows, k)

        pages, starts, runs = [], [], []
        page_size, counts, keeps_stats = self.config.page_size, self._tokens, self.has_key_stats
        for seq_id, m in zip(seq_ids, n_rows):
            table = self._table(seq_id)
            key = (seq_id, layer)
            start, end = counts[key], counts[key] + m
            if end > len(table) * page_size:
                raise ValueError(f"cannot advance {seq_id!r} past the {len(table) * page_size} tokens it holds")
            if m:
                counts[key] = end
                if one_each:
                    pages.append(table[start // page_size])
                    starts.append(start)
                else:
                    runs.append((table, start, m))
        if not keeps_stats:
            return
        if runs:
            self._fold_key_stats(layer, runs, k)
        if not pages:
            return

        starts = np.array(starts, dtype=np.intp)
        lps = self.config.effective_logical_page_size
        where = (np.array(pages, dtype=np.intp), starts % page_size // lps)
        opens = starts % lps == 0
        any_opens = opens.any()
        for stats, fold in ((self._kmin[layer], np.minimum), (self._kmax[layer], np.maximum)):
            rows = fold(stats[where], k)
            if any_opens:
                rows[opens] = k[opens]
            stats[where] = rows

    def _stat_slot(self, table: list[int], token: int) -> tuple[int, int]:
        """``(page id, stat row)`` of the logical page holding token index ``token``."""
        cfg = self.config
        return table[token // cfg.page_size], (token % cfg.page_size) // cfg.effective_logical_page_size

    def mark(self, seq_id: object) -> RewindPoint:
        """What :meth:`rewind` needs to take the sequence back to where it is now.

        Appends after the mark write K/V only into slots past the marked
        count, so three things are saved: the token counts, the stat rows of
        the partly filled logical page the next advance folds into, and the
        :attr:`page_selections` entries a decode step may replace.
        """
        table = self._table(seq_id)
        lps = self.config.effective_logical_page_size
        tokens, rows, selections = [], [], []
        for layer in range(self.config.n_layers):
            count = self._tokens[(seq_id, layer)]
            tokens.append(count)
            row = None
            if count % lps and self.has_key_stats:
                page, slot = self._stat_slot(table, count)
                row = (self._kmin[layer][page, slot].copy(), self._kmax[layer][page, slot].copy())
            rows.append(row)
            selections.append(self.page_selections.get((seq_id, layer)))
        return RewindPoint(tuple(tokens), tuple(rows), tuple(selections))

    def rewind(self, seq_ids: list[object], points: list[RewindPoint]) -> None:
        """Take each sequence back to its :meth:`mark`; the rows appended since stay in their slots.

        Counts, the saved stat rows and the selection entries are restored.
        The pages stay in the table, so no read reaches the rows and
        :meth:`advance` can take a prefix of them back in.  Operand blocks
        stay (the rows they hold past a count are slots a read masks), their
        rows marked up to date only as far as the counts went back: the next
        rows written there are copied in when a block next serves.  That
        copy reaches a row's last page only, so a count taken below its
        first slot clears the row's recorded selection instead, and the next
        serve refreshes the row from the page that count lies in on.
        """
        for seq_id, point in zip(seq_ids, points):
            table = self._table(seq_id)
            for layer, (count, row, entry) in enumerate(zip(point.tokens, point.stat_rows, point.selections)):
                self._tokens[(seq_id, layer)] = count
                if row is not None:
                    page, slot = self._stat_slot(table, count)
                    self._kmin[layer][page, slot], self._kmax[layer][page, slot] = row
                if entry is None:
                    self.page_selections.pop((seq_id, layer), None)
                else:
                    self.page_selections[(seq_id, layer)] = entry
                block = self._operands.get(layer, seq_id)
                if block is not None:
                    i = block.members.index(seq_id)
                    block.counts[i] = min(block.counts[i], count)
                    selection = block.selections[i]
                    if selection is not None and count < selection[:, -1].max() * self.config.page_size:
                        block.selections[i] = None

    # -- reads -----------------------------------------------------------------
    def _leading_page_ids(self, seq_ids: list[object], n_pages: int) -> np.ndarray:
        """``(batch, n_pages)`` physical ids of each sequence's first ``n_pages`` pages."""
        return np.array([self._table(seq_id)[:n_pages] for seq_id in seq_ids], dtype=np.intp)

    def _selected_page_ids(self, seq_ids: list[object], selections: list[np.ndarray]) -> np.ndarray:
        """``(batch, n_kv_heads, n_pages)`` physical ids of each sequence's selected table positions."""
        return np.stack(
            [np.asarray(self._tables[seq_id], dtype=np.intp)[pos] for seq_id, pos in zip(seq_ids, selections)]
        )

    def _read_cells(self, layer: int, blocks: np.ndarray) -> np.ndarray:
        """Float64 K and V of (page, head) cells, each named by its K block ``page * 2 * n_kv_heads + head``.

        Each block is one contiguous copy (then dequantised in a low-bit
        pool); returns a fresh ``(2, *blocks.shape, page_size, head_dim)``
        array, K then V, the slots past a sequence's count included.
        """
        blocks = np.add.outer(self._half_offsets, blocks)
        return decode(self._kv_blocks[layer].take(blocks, axis=0), self.config.kv_bits)

    def _read_blocks(self, layer: int, page_ids: np.ndarray) -> np.ndarray:
        """Head-major K and V of whole pages — the one full gather of the pool.

        ``page_ids`` is ``(batch, 1 | n_kv_heads, n_pages)`` physical page
        ids per head.  Returns a fresh ``(2, batch, n_kv_heads, n_pages *
        page_size, head_dim)`` array, K then V (see :meth:`_read_cells`).
        """
        cfg = self.config
        blocks = page_ids * (2 * cfg.n_kv_heads) + self._head_offsets
        shape = (2, *blocks.shape[:2], blocks.shape[2] * cfg.page_size, cfg.head_dim)
        return self._read_cells(layer, blocks).reshape(shape)

    def read_batch(
        self, seq_ids: list[object], layer: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The whole pages holding the tokens of sequences that share one page count, head-major.

        Returns ``(batch, n_kv_heads, n_pages * page_size, head_dim)`` arrays
        in one indexed read: a decode operand at the sequences' own capacity,
        whose slots past each count hold whatever the tail page holds there.
        Does not tick the access clock (:meth:`get` does).
        """
        n_pages = -(-self._tokens[(seq_ids[0], layer)] // self.config.page_size)
        k, v = self._read_blocks(layer, self._leading_page_ids(seq_ids, n_pages)[:, None, :])
        return k, v

    def get(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Return all cached keys/values of shape ``(n_tokens, n_kv_heads, head_dim)``."""
        table = self._table(seq_id)
        if table:
            self.allocator.touch_many(table)
        n_tokens = self._tokens[(seq_id, layer)]
        k, v = self.read_batch([seq_id], layer)
        return k[0, :, :n_tokens].transpose(1, 0, 2), v[0, :, :n_tokens].transpose(1, 0, 2)

    def gather_pages(
        self, seq_id: object, layer: int, page_positions: list[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the tokens of the selected *logical physical-page positions*.

        ``page_positions`` index into the sequence's page table (position 0 is
        the oldest page).  Returns ``(k, v, token_positions)`` where
        ``token_positions`` are the original token indices of the gathered
        tokens — this is the "shorter page table" handed to the decode
        attention kernel (paper §3.2).
        """
        cfg = self.config
        table = self._table(seq_id)
        n_tokens = self._tokens[(seq_id, layer)]
        positions = np.asarray(sorted(set(int(p) for p in np.asarray(page_positions).ravel())))
        if positions.size and (positions.min() < 0 or positions.max() >= len(table)):
            raise IndexError("page position out of range")
        if positions.size:
            self.allocator.touch_many([table[pos] for pos in positions])
        ks, vs, toks = [], [], []
        for pos in positions:
            page = table[pos]
            start_tok = pos * cfg.page_size
            fill = min(cfg.page_size, n_tokens - start_tok)
            if fill <= 0:
                continue
            k = decode(self._k_store[layer][page, :, :fill], cfg.kv_bits)
            v = decode(self._v_store[layer][page, :, :fill], cfg.kv_bits)
            ks.append(k.transpose(1, 0, 2))
            vs.append(v.transpose(1, 0, 2))
            toks.append(np.arange(start_tok, start_tok + fill))
        if not ks:
            empty = np.zeros((0, cfg.n_kv_heads, cfg.head_dim))
            return empty, empty.copy(), np.zeros(0, dtype=np.int64)
        return np.concatenate(ks), np.concatenate(vs), np.concatenate(toks)

    def selected_token_count(
        self,
        seq_id: object,
        layer: int,
        pages_per_head: list[np.ndarray] | np.ndarray,
    ) -> tuple[int, int] | None:
        """Tokens every head gathers from a page selection: ``(n_tokens, n_pages)``.

        ``pages_per_head`` is a ``(n_kv_heads, n_selected)`` matrix of page
        positions (or its per-head rows).  Returns ``None`` when the
        selection is ragged (heads select different page counts or gather
        different token totals) or references an empty page.  The decode
        path does not need it — its operands are whole pages, masked past
        each row's length — so it is a validator of selections for tests
        and tools.
        """
        cfg = self.config
        table = self._table(seq_id)
        n_tokens = self._tokens[(seq_id, layer)]
        if isinstance(pages_per_head, np.ndarray) and pages_per_head.ndim == 2:
            pos = pages_per_head
        else:
            if len(pages_per_head) != cfg.n_kv_heads or not pages_per_head:
                return None
            n_sel = len(pages_per_head[0])
            if n_sel == 0 or any(len(p) != n_sel for p in pages_per_head):
                return None
            pos = np.asarray(np.stack(pages_per_head), dtype=np.int64)  # (H, P)
        if pos.shape[0] != cfg.n_kv_heads or pos.shape[1] == 0:
            return None
        if pos.min() < 0 or pos.max() >= len(table):
            raise IndexError("page position out of range")
        fills = np.minimum(cfg.page_size, n_tokens - pos * cfg.page_size)  # (H, P)
        # Only a row's last page may be partial: the batched gather cuts the
        # gathered blocks at the token total.
        if fills.min() <= 0 or (fills[:, :-1] != cfg.page_size).any():
            return None
        per_head = fills.sum(axis=1)
        n_gathered = int(per_head[0])
        if not np.all(per_head == n_gathered):
            return None
        return n_gathered, int(pos.shape[1])

    def gather_selected_batch(
        self,
        seq_ids: list[object],
        layer: int,
        selections: list[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every sequence's per-head selected pages as one capacity-shaped attention operand.

        ``selections[i]`` is sequence ``i``'s ``(n_kv_heads, n_pages)``
        matrix of page positions, one page count for all.  Returns head-major
        ``(k, v)`` of shape ``(batch, n_kv_heads, n_pages * page_size,
        head_dim)``: each row the whole selected pages in selection order,
        so a slot past the sequence's count holds whatever its page holds
        there (finite; the caller masks it).  A row's bytes do not depend on
        its batchmates.

        The buffers are kept as the group's **operand block**, one row per
        member, and the next call that names the same sequences in the same
        order at the same page count is served from it in place.  Members
        that bring another selection object than their rows were gathered
        from are brought to it cell by cell (:meth:`_refresh`): only the
        (member, head, slot) cells whose page changed, or that a rewind may
        have left stale, are read again.  Then the rows the sequences
        took since their rows were last brought up to date are copied in,
        however many each took: they lie in a row's last page, the one a
        decode step or a speculative commit writes into while the selector
        reuses a selection (a row that gained a page is a new selection), so
        the slots of the last page that any member's new rows span are read
        again for every row (a rewind below a row's last page clears its
        selection, so that row is refreshed).  Another group or page count
        is the full indexed read, whose result replaces the blocks that
        named any of the sequences.  Either way the access clock ticks once
        over the same pages.  The arrays returned are the block's buffers,
        valid until the next gather of the same group.
        """
        cfg = self.config
        seq_ids = list(seq_ids)
        counts = np.array(self.token_counts(seq_ids, layer))
        block = self._operands.get(layer, seq_ids[0])
        if block is None or block.members != seq_ids or block.page_ids.shape[2] != selections[0].shape[1]:
            # Let go of the old buffers before the gather allocates new ones.
            self._operands.drop(seq_ids, (layer,))
            page_ids = self._selected_page_ids(seq_ids, selections)
            block = _SelectedBlock(
                seq_ids, list(selections), page_ids, set(page_ids.ravel().tolist()), counts,
                self._read_blocks(layer, page_ids),
            )
            self._operands.record(layer, block)
        else:
            moved = [i for i, (now, was) in enumerate(zip(selections, block.selections)) if now is not was]
            if moved:
                self._refresh(layer, block, np.array(moved), [selections[i] for i in moved])
                block.selections = list(selections)
            grown = counts - block.counts
            if np.count_nonzero(grown):
                # A row's new rows lie in its last page from slot ``block.counts % page_size`` on:
                # copy the slots any row's span covers, in every row (a span past the page's end
                # takes it all).
                page_size = cfg.page_size
                starts = block.counts % page_size
                lo, hi = int(starts.min()), int((starts + grown).max())
                if hi > page_size:
                    lo, hi = 0, page_size
                last = (block.page_ids[:, :, -1], self._halves, self._head_offsets[:, 0], slice(lo, hi))
                end = block.kv.shape[3] - page_size
                block.kv[:, :, :, end + lo : end + hi] = decode(self._kv_store[layer][last], cfg.kv_bits)
                block.counts = counts
        self.allocator.touch_many(block.touched)
        return block.k, block.v

    def _refresh(self, layer: int, block: _SelectedBlock, moved: np.ndarray, selections: list[np.ndarray]) -> None:
        """Bring rows ``moved`` of ``block`` to new ``selections`` (theirs, in order) in place.

        A (row, head, slot) cell is read again when its page changed, or
        when it is not the row's last and its page lies at or past the page
        the row's count was last brought up to date in (a rewind gave slots
        there back, and rows may have been written since).  A kept last page
        gets the rows it took since from the copy-in that follows, and every
        other kept cell holds a page that lies wholly below that count, where
        the row matches the pool and no write lands.
        """
        cfg = self.config
        page_ids = self._selected_page_ids([block.members[i] for i in moved], selections)
        first_open = block.counts[moved] // cfg.page_size
        stale = page_ids != block.page_ids[moved]
        stale[:, :, :-1] |= np.stack(selections)[:, :, :-1] >= first_open[:, None, None]
        rows, heads, slots = np.nonzero(stale)
        cells = (slice(None), moved[rows], heads, slots)
        shape = (2, *block.page_ids.shape, cfg.page_size, cfg.head_dim)
        block.kv.reshape(shape)[cells] = self._read_cells(layer, page_ids[stale] * (2 * cfg.n_kv_heads) + heads)
        block.page_ids[moved] = page_ids
        block.touched = set(block.page_ids.ravel().tolist())

    def key_stats_batch(
        self, seq_ids: list[object], layer: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Key statistics of sequences that share one logical-page count.

        Returns ``(kmin, kmax)`` with shape ``(batch, n_logical_pages,
        n_kv_heads, head_dim)`` — one page-indexed read of the pool's stat
        rows, cut at the last logical page that holds a token.
        """
        if not self.has_key_stats:
            raise ValueError("this pool keeps no key statistics")
        cfg = self.config
        n_logical = self.num_logical_pages(seq_ids[0], layer)
        page_ids = self._leading_page_ids(seq_ids, -(-n_logical // cfg.logical_pages_per_physical))
        shape = (len(seq_ids), -1, cfg.n_kv_heads, cfg.head_dim)
        kmin = self._kmin[layer][page_ids].reshape(shape)[:, :n_logical]
        kmax = self._kmax[layer][page_ids].reshape(shape)[:, :n_logical]
        return kmin, kmax

    def key_stats(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-logical-page key statistics of one sequence (a batch of one).

        Returns ``(kmin, kmax)`` with shape
        ``(n_logical_pages, n_kv_heads, head_dim)``.
        """
        kmin, kmax = self.key_stats_batch([seq_id], layer)
        return kmin[0], kmax[0]

    def num_logical_pages(self, seq_id: object, layer: int = 0) -> int:
        """Logical pages that hold at least one token (arithmetic on the count)."""
        return -(-self._tokens[(seq_id, layer)] // self.config.effective_logical_page_size)

    # -- tiering support ---------------------------------------------------------
    def page_image(self, page: int) -> tuple[list[np.ndarray], ...]:
        """Copied per-layer image of one physical page.

        ``(k, v, kmin, kmax)``, each a per-layer list: the page's K/V blocks
        and its key-statistic rows (no rows from a pool without key
        statistics); :meth:`install_page_image` copies it onto a fresh page.
        """
        if self.allocator.refcount(page) == 0:
            raise ValueError(f"page {page} is not currently allocated")
        return tuple([store[page].copy() for store in pool] for pool in self._pools)

    def install_page_image(self, image: tuple[list[np.ndarray], ...]) -> int:
        """Allocate a fresh page (refcount 1) and bit-copy a :meth:`page_image` into it.

        Only :meth:`fork_sequence`'s tail-page copy uses it; raises
        :class:`OutOfPagesError` when the pool is full.
        """
        if len(image) != len(self._pools) or any(
            len(part) != len(pool) for pool, part in zip(self._pools, image)
        ):
            raise ValueError("a page image is (k, v, kmin, kmax), one entry per layer each the pool keeps")
        page = self.allocator.allocate()
        for pool, part in zip(self._pools, image):
            for store, rows in zip(pool, part):
                store[page] = rows
        return page

    # -- accounting --------------------------------------------------------------
    @property
    def operand_block_bytes(self) -> int:
        """Bytes held by live operand blocks (0 once every sequence is removed)."""
        return self._operands.nbytes

    def memory_bytes_model(self, seq_id: object | None = None) -> float:
        """Modelled KV memory footprint in bytes.

        Counts, per allocated page and layer: quantized K and V codes, their
        fp16 scales/zero-points (for ``kv_bits < 16``), and the fp16 key-stat
        vectors attached to each logical page (in a pool that keeps them).
        """
        cfg = self.config
        if seq_id is None:
            # Every allocated page counts once: shared (forked / attached)
            # pages are physical storage once regardless of how many
            # sequences reference them, and pages pinned only by the prefix
            # index still occupy the pool even though no table lists them.
            pages = self.allocator.num_allocated
        else:
            pages = len(self._table(seq_id))
        elems_per_page = cfg.page_size * cfg.n_kv_heads * cfg.head_dim
        if cfg.kv_bits == 16:
            kv_bytes = 2 * elems_per_page * 2.0
        else:
            kv_bytes = 2 * (
                elems_per_page * cfg.kv_bits / 8.0
                + cfg.page_size * cfg.n_kv_heads * 2 * 2.0  # scale + zero, fp16
            )
        stats_bytes = (
            cfg.logical_pages_per_physical * cfg.n_kv_heads * cfg.head_dim * 2 * 2.0
            if self.has_key_stats
            else 0.0
        )
        return pages * cfg.n_layers * (kv_bytes + stats_bytes)
