"""Paged KV cache with KV quantization and per-logical-page key statistics.

Functional model of the QServe/vLLM KV cache that LServe extends:

* KV history is stored in fixed-size physical pages handed out by a
  :class:`~repro.kvcache.allocator.PageAllocator` and addressed through a
  per-sequence :class:`~repro.kvcache.page_table.PageTable`.
* Keys/values pass through asymmetric KV4/KV8 quantization on write
  (``kv_bits``), so downstream attention sees the quantized values — the
  numerical effect of low-bit KV is preserved.  The *storage* arrays keep the
  dequantized floats for vectorised gathers; the byte footprint of the real
  layout (codes + scales/zeros + key stats) is reported by
  :meth:`PagedKVCache.memory_bytes_model`, which is what the cost model and
  memory experiments consume.
* Channel-wise min/max key statistics (``K_stats``, Fig. 5/7) are maintained
  per *logical* page (``logical_page_size`` tokens), the granularity used by
  the hierarchical page selector (paper §3.5.2).  They live **in the page
  pool**, one row per logical page of every physical page, so they are
  shared, copied, exported and freed with the page that holds the keys.  A
  pool built with ``key_stats=False`` (the streaming heads', which nothing
  selects pages from) keeps no rows at all.
* A decode-time write is two steps: :meth:`PagedKVCache.write_past_count`
  puts rows into the slots past each sequence's count, and
  :meth:`PagedKVCache.advance_token_batch` moves the counts over them one
  row at a time, folding the key statistics.  A speculative verify writes a
  whole chunk once and advances per chunk position; a decode step does both
  for one row.
* A page is stored **head-major** — ``(n_kv_heads, page_size, head_dim)`` —
  so one (page, head) block is contiguous and a decode gather copies whole
  blocks; the public reads (:meth:`PagedKVCache.get`,
  :meth:`PagedKVCache.gather_pages`) stay token-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kvcache.allocator import OutOfPagesError, PageAllocator
from repro.kvcache.operand_blocks import OperandBlocks
from repro.kvcache.page_table import PageTable
from repro.kvcache.quantization import SUPPORTED_BITS, fake_quantize

__all__ = ["PagedCacheConfig", "PagedKVCache", "PagedSequenceExport", "RewindPoint"]


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
    num_tokens: int
    #: Per-layer appended-token counts (usually identical across layers).
    tokens_per_layer: list[int]
    #: Per-layer page images, shape ``(n_pages, n_kv_heads, page_size, head_dim)``.
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
    #: The selection matrices it was gathered from, held by identity: the
    #: selector hands out the same objects for as long as it reuses them.
    selections: list[np.ndarray]
    #: ``(G, H, P)`` physical pages behind the buffers.
    page_ids: np.ndarray
    #: Their set — what a served gather ticks the access clock with.
    touched: set[int]
    #: Each member's token count the buffers hold (its count at the last
    #: served gather, less what a :meth:`PagedKVCache.rewind` took back).
    tokens: list[int]
    #: Tokens of the buffers filled so far.
    n_tokens: int
    #: ``(G, H, P * page_size, d)`` buffers; the tail page's unfilled slots are the slack.
    k: np.ndarray
    v: np.ndarray

    @property
    def tails(self) -> np.ndarray:
        """``(G,)`` id of each member's tail page (while there is slack, every row ends in it)."""
        return self.page_ids[:, 0, -1]


class PagedKVCache:
    """Multi-sequence paged KV cache (one pool shared by all sequences).

    ``key_stats=False`` builds a pool that keeps no key statistics: appends
    fold nothing, and the stat parts of its page images and exports are
    empty lists.
    """

    def __init__(self, config: PagedCacheConfig, key_stats: bool = True) -> None:
        self.config = config
        self.allocator = PageAllocator(config.num_pages)
        self.has_key_stats = key_stats
        layers = range(config.n_layers)
        # Per-layer physical storage, head-major: (num_pages, n_kv_heads,
        # page_size, head_dim).  ``np.zeros`` pools are committed lazily, as
        # their pages are first written.
        kv_shape = (config.num_pages, config.n_kv_heads, config.page_size, config.head_dim)
        self._k_store = [np.zeros(kv_shape) for _ in layers]
        self._v_store = [np.zeros(kv_shape) for _ in layers]
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
        self._kmin = [np.zeros(stat_shape) for _ in stat_layers]
        self._kmax = [np.zeros(stat_shape) for _ in stat_layers]
        # Everything a page owns a row of: what a page copy or image carries.
        self._pools = (self._k_store, self._v_store, self._kmin, self._kmax)
        # The K/V pools viewed as contiguous (page, head) blocks.
        block = (-1, config.page_size, config.head_dim)
        self._k_blocks = [store.reshape(block) for store in self._k_store]
        self._v_blocks = [store.reshape(block) for store in self._v_store]
        self._head_offsets = np.arange(config.n_kv_heads, dtype=np.intp)[:, None]
        self._tables: dict[object, PageTable] = {}
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
        self._tables[seq_id] = PageTable(page_size=self.config.page_size)
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] = 0

    def remove_sequence(self, seq_id: object) -> None:
        table = self._table(seq_id)
        self._operands.drop((seq_id,))
        self.allocator.free_many(list(table.pages))
        del self._tables[seq_id]
        for layer in range(self.config.n_layers):
            del self._tokens[(seq_id, layer)]
            self.page_selections.pop((seq_id, layer), None)

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Create ``child_id`` as a copy-on-write fork of ``parent_id``.

        Every physical page of the parent that holds tokens is *referenced*
        (incref'd), not copied, and the key statistics are rows of those
        pages, so the child shares them through the same reference.  The
        shared tail page — its K/V blocks and its stat rows — is copied
        lazily, on the first divergent append (see
        :meth:`_copy_tail_page_on_write`); pages past the parent's last token
        are not shared (see :meth:`PageTable.fork`).  The child starts with
        the parent's :attr:`page_selections` entries.
        """
        ptable = self._table(parent_id)
        if child_id in self._tables:
            raise ValueError(f"sequence {child_id!r} already exists")
        child = ptable.fork()
        for page in child.pages:
            self.allocator.incref(page)
        self._tables[child_id] = child
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
        self._tables[seq_id] = PageTable(
            page_size=self.config.page_size, pages=list(pages), num_tokens=n_tokens
        )
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] = n_tokens

    def truncate_pages(self, seq_id: object, keep: list[int]) -> None:
        """Keep only the table positions ``keep`` of a sequence; the other pages are decref'd.

        The kept pages close ranks, so every layer's count drops by the
        tokens the dropped pages held — pages every layer has filled, when a
        layer's tokens are to stay addressed by table position.
        """
        table = self._table(seq_id)
        before = table.num_tokens
        self.allocator.free_many(table.truncate_pages(keep))
        self._operands.drop((seq_id,))
        for layer in range(self.config.n_layers):
            self._tokens[(seq_id, layer)] -= before - table.num_tokens

    def export_sequence(self, seq_id: object) -> PagedSequenceExport:
        """Snapshot a sequence's pages, counts, key stats and selections for migration.

        The source sequence is left untouched (pair with
        :meth:`remove_sequence` to complete a hand-off).  Page images and
        their key-statistic rows are copied, so the snapshot stays valid after
        the source releases its pages.
        """
        table = self._table(seq_id)
        cfg = self.config
        page_ids = np.asarray(table.pages, dtype=np.intp)
        k_pages, v_pages, kmin_pages, kmax_pages = (
            [store[page_ids] for store in pool] for pool in self._pools
        )
        layers = range(cfg.n_layers)
        return PagedSequenceExport(
            page_size=cfg.page_size,
            n_kv_heads=cfg.n_kv_heads,
            head_dim=cfg.head_dim,
            kv_bits=cfg.kv_bits,
            num_tokens=table.num_tokens,
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
        n_pages = export.n_pages
        pages = self.allocator.allocate_many(n_pages) if n_pages else []
        page_ids = np.asarray(pages, dtype=np.intp)
        images = (export.k_pages, export.v_pages, export.kmin_pages, export.kmax_pages)
        if n_pages:
            for pool, image in zip(self._pools, images):
                for store, rows in zip(pool, image):
                    store[page_ids] = rows
        self._tables[seq_id] = PageTable(
            page_size=cfg.page_size, pages=list(pages), num_tokens=export.num_tokens
        )
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

    def _table(self, seq_id: object) -> PageTable:
        if seq_id not in self._tables:
            raise KeyError(f"unknown sequence {seq_id!r}")
        return self._tables[seq_id]

    def page_table(self, seq_id: object) -> PageTable:
        """The sequence's page table (read-mostly; mutate via cache methods)."""
        return self._table(seq_id)

    def seq_len(self, seq_id: object, layer: int = 0) -> int:
        self._table(seq_id)
        return self._tokens[(seq_id, layer)]

    def token_counts(self, seq_ids: list[object], layer: int) -> list[int]:
        """Each sequence's token count in ``layer`` (``KeyError`` for an unknown one)."""
        return [self._tokens[(seq_id, layer)] for seq_id in seq_ids]

    # -- writes ----------------------------------------------------------------
    def _copy_tail_page_on_write(self, seq_id: object, page_pos: int) -> None:
        """Give the sequence a private copy of a shared page before writing into it.

        Copies the page's K/V blocks and key-statistic rows across *all*
        layers (layers share the page table, so one copy serves every layer's
        upcoming write) and drops one reference on the shared original — the
        sibling that still references it is unaffected.  The operand blocks
        naming the sequence go: they were gathered from the old page.
        """
        table = self._tables[seq_id]
        self._operands.drop((seq_id,))
        old_page = table.pages[page_pos]
        new_page = self.allocator.allocate()
        for pool in self._pools:
            for store in pool:
                store[new_page] = store[old_page]
        self.allocator.decref(old_page)
        table.pages[page_pos] = new_page

    def _tail_needs_cow(self, table: PageTable, start: int) -> bool:
        """Whether a write starting at token ``start`` lands in a shared page."""
        page_pos = start // self.config.page_size
        return page_pos < table.num_pages and self.allocator.is_shared(
            table.pages[page_pos]
        )

    def _reservation(self, table: PageTable, n_new_tokens: int) -> tuple[bool, int]:
        """What an append must allocate: ``(copy the shared tail page?, fresh pages)``."""
        if n_new_tokens <= 0:
            return False, 0
        return self._tail_needs_cow(table, table.num_tokens), table.pages_needed_for(n_new_tokens)

    def pages_required(self, seq_id: object, n_new_tokens: int) -> int:
        """Physical pages an ``n_new_tokens`` append must be able to allocate.

        Counts fresh pages for capacity growth plus one extra page when the
        first write would land in a *shared* (copy-on-write) tail page.
        """
        cow, needed = self._reservation(self._table(seq_id), n_new_tokens)
        return cow + needed

    def prepare_append(self, seq_id: object, n_new_tokens: int) -> None:
        """Reserve everything an ``n_new_tokens`` append needs, atomically.

        Performs the copy-on-write of a shared tail page and allocates all
        fresh pages up front — or raises :class:`OutOfPagesError` *before
        mutating anything*, so a failed reservation leaves the cache exactly
        as it was.  After a successful reservation the subsequent
        :meth:`append` calls (one per layer) can no longer run out of pages
        mid-write, which is what keeps a batched decode iteration atomic.
        An append that lands inside a private tail page — most decode steps —
        has nothing to reserve.
        """
        table = self._table(seq_id)
        cow, needed = self._reservation(table, n_new_tokens)
        if not cow and not needed:
            return
        if not self.allocator.can_allocate(cow + needed):
            raise OutOfPagesError(
                f"cannot reserve {cow + needed} pages for sequence {seq_id!r}: "
                f"only {self.allocator.num_free} free of {self.allocator.capacity}"
            )
        if cow:
            self._copy_tail_page_on_write(seq_id, table.num_tokens // self.config.page_size)
        if needed:
            table.append_pages(self.allocator.allocate_many(needed))

    def _stored(self, x: np.ndarray) -> np.ndarray:
        """What the pool keeps of ``x``: the low-bit round trip (per token × head)."""
        if self.config.kv_bits < 16:
            return fake_quantize(x, self.config.kv_bits)
        return x

    def append(self, seq_id: object, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append new tokens' keys/values for one layer.

        ``k`` and ``v`` have shape ``(n_new, n_kv_heads, head_dim)``.  Physical
        pages are allocated on demand and shared by all layers of the sequence.
        """
        cfg = self.config
        table = self._table(seq_id)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n_new = k.shape[0]
        self._check_rows(layer, n_new, k, v)
        if n_new == 0:
            return

        start = self._tokens[(seq_id, layer)]
        end = start + n_new
        # Copy-on-write: the first layer to write into a shared (forked) tail
        # page copies it for all layers; later layers then see a private page.
        if self._tail_needs_cow(table, start):
            self._copy_tail_page_on_write(seq_id, start // cfg.page_size)
        # Grow the shared page table if this layer outruns its capacity.
        capacity = table.num_pages * cfg.page_size
        if end > capacity:
            pages_needed = (end - capacity + cfg.page_size - 1) // cfg.page_size
            table.append_pages(self.allocator.allocate_many(pages_needed))
        if end > table.num_tokens:
            table.num_tokens = end

        # One slice per touched page and store (pages are head-major).
        for store, rows in zip((self._k_store[layer], self._v_store[layer]), self._stored(np.stack((k, v)))):
            for pos in range(start // cfg.page_size, (end - 1) // cfg.page_size + 1):
                first = pos * cfg.page_size
                lo, hi = max(start, first), min(end, first + cfg.page_size)
                store[table.pages[pos], :, lo - first : hi - first] = rows[
                    lo - start : hi - start
                ].transpose(1, 0, 2)
        self._tokens[(seq_id, layer)] = end
        self._fold_key_stats(table, layer, start, k)

    def _fold_key_stats(self, table: PageTable, layer: int, start: int, k: np.ndarray) -> None:
        """Fold the raw keys of tokens ``start .. start + len(k) - 1`` into their stat rows.

        One min/max per touched logical page (``reduceat`` cuts the keys at
        logical-page boundaries); only the first can already hold earlier
        tokens, which fold in.  Min and max are exact, so the rows do not
        depend on how the keys were split across calls.  A pool without key
        statistics folds nothing.
        """
        if not self.has_key_stats:
            return
        cfg = self.config
        end = start + k.shape[0]
        lps = cfg.effective_logical_page_size
        logical = np.arange(start // lps, (end - 1) // lps + 1)
        cuts = np.maximum(logical * lps - start, 0)
        pages = np.asarray(table.pages, dtype=np.intp)[logical // cfg.logical_pages_per_physical]
        slots = logical % cfg.logical_pages_per_physical
        for stats, fold in ((self._kmin[layer], np.minimum), (self._kmax[layer], np.maximum)):
            rows = fold.reduceat(k, cuts, axis=0)
            if start % lps:
                rows[0] = fold(rows[0], stats[pages[0], slots[0]])
            stats[pages, slots] = rows

    def _check_rows(self, layer: int, n_rows: int, *arrays: np.ndarray) -> None:
        """Raise unless every array is ``(n_rows, n_kv_heads, head_dim)`` and ``layer`` exists."""
        cfg = self.config
        expected = (n_rows, cfg.n_kv_heads, cfg.head_dim)
        if any(array.shape != expected for array in arrays):
            raise ValueError(f"rows must have shape {expected}; got {[array.shape for array in arrays]}")
        if not 0 <= layer < cfg.n_layers:
            raise IndexError(f"layer {layer} out of range")

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
        .. count + n_rows[i] - 1`` of its own pages.  One low-bit round trip
        covers all ``M`` rows — quantisation groups are per (token, head), so
        the bytes are those of writing each row alone — and one scatter per
        store writes them.  Counts, key statistics and selection entries are
        not touched: :meth:`advance_token_batch` takes the rows in.

        A shared page at the count is copied on write and the table grows to
        cover the rows; both are no-ops after :meth:`prepare_append` reserved
        them.
        """
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n_rows = [1] * len(seq_ids) if n_rows is None else n_rows
        if len(n_rows) != len(seq_ids):
            raise ValueError(f"{len(n_rows)} row counts for {len(seq_ids)} sequences")
        self._check_rows(layer, sum(n_rows), k, v)
        if not seq_ids:
            return

        pages, slots = [], []
        page_size, counts, is_shared = self.config.page_size, self._tokens, self.allocator.is_shared
        for seq_id, m in zip(seq_ids, n_rows):
            table = self._table(seq_id)
            start = counts[(seq_id, layer)]
            pos = start // page_size
            if pos < len(table.pages) and is_shared(table.pages[pos]):
                self._copy_tail_page_on_write(seq_id, pos)
            short = (start + m - 1) // page_size + 1 - len(table.pages)
            if short > 0:
                table.append_pages(self.allocator.allocate_many(short))
            for token in range(start, start + m):
                pages.append(table.pages[token // page_size])
                slots.append(token % page_size)

        at = (np.array(pages, dtype=np.intp), slice(None), np.array(slots, dtype=np.intp))
        self._k_store[layer][at], self._v_store[layer][at] = self._stored(np.stack((k, v)))

    def advance_token_batch(self, seq_ids: list[object], layer: int, k: np.ndarray) -> None:
        """Take one row written past the count into one layer of each sequence, batched.

        ``k`` is ``(batch, n_kv_heads, head_dim)``: row ``i`` is the raw key
        of ``seq_ids[i]``'s row, already in its slot (see
        :meth:`write_past_count`).  Each count moves up by one and the page
        table's token count follows.  The key folds into the statistics in
        one gather-fold-scatter: a logical page's first token assigns its
        row, later tokens fold into it.  A page at the count that became
        shared since the write (a fork) is copied on write first, so the
        sibling keeps its statistics; a pool without them folds nothing and
        copies nothing.
        """
        k = np.asarray(k, dtype=np.float64)
        self._check_rows(layer, len(seq_ids), k)
        if not seq_ids:
            return

        pages, starts = [], []
        page_size, counts, keeps_stats = self.config.page_size, self._tokens, self.has_key_stats
        is_shared = self.allocator.is_shared
        for seq_id in seq_ids:
            table = self._table(seq_id)
            key = (seq_id, layer)
            start = counts[key]
            pos = start // page_size
            if pos >= len(table.pages):
                raise ValueError(f"cannot advance {seq_id!r} past the {pos * page_size} tokens its pages hold")
            if keeps_stats and is_shared(table.pages[pos]):
                self._copy_tail_page_on_write(seq_id, pos)
            if start >= table.num_tokens:
                table.num_tokens = start + 1
            pages.append(table.pages[pos])
            starts.append(start)
            counts[key] = start + 1
        if not keeps_stats:
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

    def _stat_slot(self, table: PageTable, token: int) -> tuple[int, int]:
        """``(page id, stat row)`` of the logical page holding token index ``token``."""
        cfg = self.config
        return table.pages[token // cfg.page_size], (token % cfg.page_size) // cfg.effective_logical_page_size

    def mark(self, seq_id: object) -> RewindPoint:
        """What :meth:`rewind` needs to take the sequence back to where it is now.

        Appends after the mark write K/V only into slots past the marked
        count, so three things are saved: the token counts, the stat rows of
        the partly filled logical page the next append folds into, and the
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
        :meth:`advance` can take a prefix of them back in.  An operand block
        naming the sequences rewinds with them when every member went back
        by the same count and the rows it sheds lie in its tail page;
        otherwise it is dropped.
        """
        for seq_id, point in zip(seq_ids, points):
            table = self._table(seq_id)
            table.num_tokens = max(point.tokens)  # what the layers' appends left it at
            for layer, (count, row, entry) in enumerate(zip(point.tokens, point.stat_rows, point.selections)):
                self._tokens[(seq_id, layer)] = count
                if row is not None:
                    page, slot = self._stat_slot(table, count)
                    self._kmin[layer][page, slot], self._kmax[layer][page, slot] = row
                if entry is None:
                    self.page_selections.pop((seq_id, layer), None)
                else:
                    self.page_selections[(seq_id, layer)] = entry
        page_size = self.config.page_size
        for layer in range(self.config.n_layers):
            named = (self._operands.get(layer, seq_id) for seq_id in seq_ids)
            for block in {id(block): block for block in named if block is not None}.values():
                back = {was - self._tokens[(seq_id, layer)] for seq_id, was in zip(block.members, block.tokens)}
                shed = max(back)
                if shed <= 0:
                    continue
                tail_fill = block.n_tokens - (block.page_ids.shape[2] - 1) * page_size
                if len(back) == 1 and shed <= tail_fill:
                    block.n_tokens -= shed
                    block.tokens = [was - shed for was in block.tokens]
                else:
                    self._operands.drop(block.members, (layer,))

    def advance(self, seq_id: object, layer: int, k: np.ndarray) -> None:
        """Take ``len(k)`` rows appended past the count and rewound back into one layer.

        Their K/V are already in their slots; ``k`` holds their raw keys,
        which fold into the stat rows as :meth:`append` folds them.  A shared
        page at the count (a fork since the rows were written) is copied on
        write first, so the fork keeps its key statistics; a pool without
        them writes nothing here, so it copies nothing.
        """
        cfg = self.config
        table = self._table(seq_id)
        start = self._tokens[(seq_id, layer)]
        end = start + k.shape[0]
        capacity = table.num_pages * cfg.page_size
        if end > capacity:
            raise ValueError(f"cannot advance {seq_id!r} past the {capacity} tokens its pages hold")
        if end == start:
            return
        if self.has_key_stats and self._tail_needs_cow(table, start):
            self._copy_tail_page_on_write(seq_id, start // cfg.page_size)
        table.num_tokens = max(table.num_tokens, end)
        self._tokens[(seq_id, layer)] = end
        self._fold_key_stats(table, layer, start, k)

    # -- reads -----------------------------------------------------------------
    def _leading_page_ids(self, seq_ids: list[object], n_pages: int) -> np.ndarray:
        """``(batch, n_pages)`` physical ids of each sequence's first ``n_pages`` pages."""
        return np.array([self._table(seq_id).pages[:n_pages] for seq_id in seq_ids], dtype=np.intp)

    def _read_blocks(self, layer: int, page_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Head-major K/V of whole pages — the one full gather of the pool.

        ``page_ids`` is ``(batch, 1 | n_kv_heads, n_pages)`` physical page
        ids per head; each (page, head) block is one contiguous copy.
        Returns fresh ``(batch, n_kv_heads, n_pages * page_size, head_dim)``
        arrays; callers cut them at the tokens actually stored.
        """
        cfg = self.config
        blocks = page_ids * cfg.n_kv_heads + self._head_offsets
        shape = (*blocks.shape[:2], blocks.shape[2] * cfg.page_size, cfg.head_dim)
        k = self._k_blocks[layer].take(blocks, axis=0).reshape(shape)
        v = self._v_blocks[layer].take(blocks, axis=0).reshape(shape)
        return k, v

    def read_batch(
        self, seq_ids: list[object], layer: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full cached K/V of sequences that share one token count, head-major.

        Returns ``(batch, n_kv_heads, n_tokens, head_dim)`` arrays in one
        indexed read.  Does not tick the access clock (:meth:`get` does).
        """
        n_tokens = self._tokens[(seq_ids[0], layer)]
        page_ids = self._leading_page_ids(seq_ids, -(-n_tokens // self.config.page_size))
        k, v = self._read_blocks(layer, page_ids[:, None, :])
        return k[:, :, :n_tokens], v[:, :, :n_tokens]

    def get(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Return all cached keys/values of shape ``(n_tokens, n_kv_heads, head_dim)``."""
        table = self._table(seq_id)
        if table.pages:
            self.allocator.touch_many(table.pages)
        k, v = self.read_batch([seq_id], layer)
        return k[0].transpose(1, 0, 2), v[0].transpose(1, 0, 2)

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
        if positions.size and (positions.min() < 0 or positions.max() >= table.num_pages):
            raise IndexError("page position out of range")
        if positions.size:
            self.allocator.touch_many([table.pages[pos] for pos in positions])
        ks, vs, toks = [], [], []
        for pos in positions:
            page = table.pages[pos]
            start_tok = pos * cfg.page_size
            fill = min(cfg.page_size, n_tokens - start_tok)
            if fill <= 0:
                continue
            ks.append(self._k_store[layer][page, :, :fill].transpose(1, 0, 2))
            vs.append(self._v_store[layer][page, :, :fill].transpose(1, 0, 2))
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
        """Shape signature ``(n_tokens, n_pages)`` of a uniform page selection.

        ``pages_per_head`` is a ``(n_kv_heads, n_selected)`` matrix of page
        positions (or its per-head rows).  Returns ``None`` when the
        selection is ragged (heads select different page counts or gather
        different token totals) or references an empty page — callers then
        fall back to per-head :meth:`gather_pages`.  The signature is what
        batched decode groups sequences by before
        :meth:`gather_selected_batch`.  The decode path derives it without
        this call — a selection whose every row holds the tail page gathers
        ``context - (n_physical - n_selected) * page_size`` tokens — and
        keeps this as the validator of selections it did not make itself.
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
        if pos.min() < 0 or pos.max() >= table.num_pages:
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
        """Every sequence's per-head selected pages as one attention operand.

        ``selections[i]`` is sequence ``i``'s ``(n_kv_heads, n_selected)``
        matrix of page positions; all sequences must share the same
        ``(n_tokens, n_pages)`` selection signature (see
        :meth:`selected_token_count`), which makes every selected page full
        except possibly each row's last.  Returns head-major ``(k, v)`` of
        shape ``(batch, n_kv_heads, n_tokens, head_dim)``, each sequence's
        slice byte-identical to gathering it alone.

        The gathered buffers are kept as the group's **operand block**.  The
        next call is served from it — the new stored rows of each member are
        copied into the tail page's slack and views that many tokens longer
        are returned — when it names the same sequences in the same order
        with the very selection objects the block was gathered from (the
        selector is still reusing them), every member grew by the same number
        of tokens (one per decode step; a speculative commit takes several)
        and the new rows fit in the slack; a copy-on-write of a member's tail
        page drops the block.  Anything else is the full indexed read, whose
        result replaces the blocks that named any of the sequences.  Either
        way the access clock ticks once over the same pages, and arrays
        returned earlier are never written again.
        """
        page_size = self.config.page_size
        seq_ids = list(seq_ids)
        tokens = self.token_counts(seq_ids, layer)
        block = self._operands.get(layer, seq_ids[0])
        grown = 0
        if (
            block is not None
            and block.members == seq_ids
            and all(now is was for now, was in zip(selections, block.selections))
        ):
            growth = {now - was for now, was in zip(tokens, block.tokens)}
            grown = growth.pop() if len(growth) == 1 else 0
        # The new tokens start at each member's index ``was``, in its tail page.
        if grown > 0 and block.n_tokens + grown <= block.k.shape[2]:
            n = block.n_tokens
            slots = slice(n % page_size, n % page_size + grown)
            block.k[:, :, n : n + grown] = self._k_store[layer][block.tails, :, slots]
            block.v[:, :, n : n + grown] = self._v_store[layer][block.tails, :, slots]
            block.tokens, block.n_tokens = tokens, n + grown
        else:
            # Let go of the old buffers before the gather allocates new ones.
            self._operands.drop(seq_ids, (layer,))
            pos = np.asarray(selections, dtype=np.int64)  # (G, H, P)
            page_ids = np.stack(
                [
                    np.asarray(self._tables[seq_id].pages, dtype=np.intp)[pos[i]]
                    for i, seq_id in enumerate(seq_ids)
                ]
            )
            tail_fill = tokens[0] - int(pos[0, 0, -1]) * page_size
            block = _SelectedBlock(
                seq_ids,
                list(selections),
                page_ids,
                set(page_ids.ravel().tolist()),
                tokens,
                (pos.shape[2] - 1) * page_size + min(page_size, tail_fill),
                *self._read_blocks(layer, page_ids),
            )
            self._operands.record(layer, block)
        self.allocator.touch_many(block.touched)
        return block.k[:, :, : block.n_tokens], block.v[:, :, : block.n_tokens]

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
    def sequence_pages(self, seq_id: object) -> list[int]:
        """The sequence's physical page ids, in table order (a private copy).

        Feeds the owners mapping of :func:`~repro.kvcache.tiering.lru_order`;
        raises ``KeyError`` for an unknown sequence.
        """
        return list(self._table(seq_id).pages)

    def last_attended(self, seq_id: object) -> int:
        """Newest allocator access-clock stamp over the sequence's pages.

        The LRU eviction policy uses this as the sequence's recency: one
        recently attended page keeps the whole sequence hot.  0 for a
        sequence whose pages were never read.
        """
        table = self._table(seq_id)
        return max((self.allocator.last_used(p) for p in table.pages), default=0)

    def page_image(self, page: int) -> tuple[list[np.ndarray], ...]:
        """Copied per-layer image of one physical page.

        ``(k, v, kmin, kmax)``, each a per-layer list: the page's K/V blocks
        and its key-statistic rows (no rows from a pool without key
        statistics).  The raw material of a prefix-index cold
        demotion: the caller parks the image host-side (opaque to it), drops
        its page reference, and later reinstalls it with
        :meth:`install_page_image`.
        """
        if self.allocator.refcount(page) == 0:
            raise ValueError(f"page {page} is not currently allocated")
        return tuple([store[page].copy() for store in pool] for pool in self._pools)

    def install_page_image(self, image: tuple[list[np.ndarray], ...]) -> int:
        """Allocate a fresh page (refcount 1) and bit-copy a :meth:`page_image` into it.

        The restore half of a prefix-index demotion; raises
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
            pages = self._table(seq_id).num_pages
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
