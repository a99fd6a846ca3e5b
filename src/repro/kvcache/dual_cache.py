"""Two-way paged KV cache: separate storage for dense and streaming heads.

LServe keeps two paging systems (paper Fig. 5): dense (retrieval) heads keep
the full KV history plus key statistics for page selection, while streaming
heads only ever need the attention-sink tokens and a sliding window of recent
tokens, so their cache is a constant-size buffer regardless of context length.
Head classification happens at KV-head granularity (a whole GQA group is
either dense or streaming), which is how DuoAttention assigns heads for GQA
models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kvcache.operand_blocks import OperandBlocks
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache, PagedSequenceExport

__all__ = ["DualPagedKVCache", "DualSequenceExport"]


@dataclass
class DualSequenceExport:
    """Snapshot of one sequence across both stores, for cross-pool migration.

    Carries the dense pool's page images (see
    :class:`~repro.kvcache.paged_cache.PagedSequenceExport`) and copies of
    the sequence's streaming arena rows.  Each part is ``None`` when the
    source cache has no heads of its kind.
    """

    n_tokens: int
    dense: PagedSequenceExport | None
    #: Streaming-head K and V, ``(n_layers, sink + ring, n_streaming_heads,
    #: head_dim)``: the sink columns, then the ring indexed by ``position % ring``.
    stream_k: np.ndarray | None
    stream_v: np.ndarray | None
    #: ``(n_layers,)`` tokens each layer's row has seen.
    stream_totals: np.ndarray | None
    #: ``(sink, ring, eviction granularity)`` the rows are laid out under;
    #: which positions they hold follows from it and the totals.
    stream_layout: tuple[int, int, int] | None

    @property
    def n_pages(self) -> int:
        """Dense physical pages the migration must move."""
        return self.dense.n_pages if self.dense is not None else 0


#: Slots a streaming arena starts with; it doubles whenever it runs out.
_ARENA_INITIAL_SLOTS = 16


@dataclass(eq=False)
class _WindowBlock:
    """One decode group's gathered sink + local window (see :meth:`_StreamArena.operand_groups`)."""

    members: tuple[int, ...]
    #: ``(G,)`` totals of the member slots, and their shared stored count, when last served.
    totals: np.ndarray
    count: int
    #: ``(G, sink + ring, heads, dim)`` position-ordered buffers, filled up to ``count``.
    k: np.ndarray
    v: np.ndarray


class _StreamArena:
    """Slot-indexed sink + ring rows of the streaming heads (Fig. 5, §3.6).

    One row per ``(layer, slot)`` holds everything a streaming head ever
    reads: the first ``sink`` tokens, then a ring of ``ring`` local-window
    positions indexed by ``position % ring`` (the retained local range spans
    at most ``ring`` consecutive positions, so the ring is collision-free and
    eviction is implicit — dropped positions simply stop being read).
    ``total[layer, slot]`` counts the tokens ever appended; which positions
    are retained is arithmetic on it, so appends and reads of a whole decode
    batch are single indexed operations over the slots.

    With ``granularity == 1`` the local window is exactly the last
    ``local_tokens`` tokens (StreamingLLM semantics); with the KV page size it
    is evicted whole pages at a time and spans from the start of the oldest
    retained local page to the newest token.

    A decode group's gathered window is kept as an operand block
    (:meth:`operand_groups`).  Only :meth:`append_tokens` leaves a row's
    earlier reads valid, so everything else that changes a row —
    :meth:`acquire`, :meth:`write`, :meth:`copy_row` onto it,
    :meth:`release` — drops the blocks that name its slot.
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        sink_tokens: int,
        local_tokens: int,
        granularity: int,
        slots: int,
    ) -> None:
        if sink_tokens < 0 or local_tokens < 1:
            raise ValueError("sink_tokens must be >= 0 and local_tokens >= 1")
        if granularity < 1:
            raise ValueError("eviction_granularity must be >= 1")
        self.sink = sink_tokens
        self.granularity = granularity
        self.local_blocks = -(-local_tokens // granularity)
        self.ring = self.local_blocks * granularity
        shape = (n_layers, slots, self.sink + self.ring, n_kv_heads, head_dim)
        self.k = np.zeros(shape)
        self.v = np.zeros(shape)
        self.total = np.zeros((n_layers, slots), dtype=np.int64)
        self._positions = np.arange(self.sink + self.ring)
        # LIFO free list: a released slot's rows are the next to be reused.
        self.free = list(range(slots - 1, -1, -1))
        self.blocks = OperandBlocks(n_layers)

    @property
    def live_slots(self) -> int:
        return self.total.shape[1] - len(self.free)

    def acquire(self) -> int:
        """Hand out an empty slot, doubling the arena when none is free."""
        if not self.free:
            slots = self.total.shape[1]
            self.k, self.v, self.total = (
                np.concatenate([a, np.zeros_like(a)], axis=1) for a in (self.k, self.v, self.total)
            )
            self.free = list(range(2 * slots - 1, slots - 1, -1))
        slot = self.free.pop()
        self.blocks.drop((slot,))
        self.total[:, slot] = 0
        return slot

    def release(self, slot: int) -> None:
        """Take ``slot`` back; its rows stay as they are until the next holder overwrites them."""
        self.blocks.drop((slot,))
        self.free.append(slot)

    @property
    def layout(self) -> tuple[int, int, int]:
        """``(sink, ring, granularity)``: where a row keeps each position, and which it retains."""
        return self.sink, self.ring, self.granularity

    def copy_row(self, dst: int, src: int) -> None:
        """Make every layer's row of slot ``dst`` a copy of slot ``src``'s."""
        self.blocks.drop((dst,))
        self.k[:, dst], self.v[:, dst], self.total[:, dst] = self.k[:, src], self.v[:, src], self.total[:, src]

    def window(self, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What is retained after ``total`` appends: ``(local_from, stored)``.

        ``local_from`` is the first retained local position (== ``total``
        while still inside the sink); ``stored`` counts the tokens held, sink
        included (bounded by sink + ring).
        """
        start = ((total - 1) // self.granularity - self.local_blocks + 1) * self.granularity
        local_from = np.where(total <= self.sink, total, np.maximum(self.sink, start))
        return local_from, np.minimum(self.sink, total) + total - local_from

    def _columns(self, pos: np.ndarray) -> np.ndarray:
        return np.where(pos < self.sink, pos, self.sink + pos % self.ring)

    def write(self, layer: int, slot: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(n_new, heads, dim)`` tokens to one row."""
        self.blocks.drop((slot,))
        start = int(self.total[layer, slot])
        total = start + k.shape[0]
        self.total[layer, slot] = total
        # Only sink positions and those inside the final window need writing.
        lo = max(start, int(self.window(total)[0]))
        pos = np.concatenate([np.arange(start, min(self.sink, total)), np.arange(lo, total)])
        cols = self._columns(pos)
        self.k[layer, slot, cols] = k[pos - start]
        self.v[layer, slot, cols] = v[pos - start]

    def append_tokens(self, layer: int, slots: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token per slot — ``(batch, heads, dim)`` — as one scatter."""
        pos = self.total[layer, slots]
        cols = self._columns(pos)
        self.k[layer, slots, cols] = k
        self.v[layer, slots, cols] = v
        self.total[layer, slots] = pos + 1

    def gather(self, layer: int, slots: np.ndarray, local_from: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``slots`` in position order — the one full gather of the arena.

        Returns fresh ``(len(slots), sink + ring, heads, dim)`` arrays: the
        sink columns, then one ring run per row from its ``local_from`` (see
        :meth:`window`).  A row's first ``stored`` positions are its retained
        tokens; callers cut there, what follows is slack.
        """
        cols = np.empty((len(slots), self.sink + self.ring), dtype=np.intp)
        cols[:, : self.sink] = self._positions[: self.sink]
        cols[:, self.sink :] = self.sink + (local_from[:, None] + self._positions[: self.ring]) % self.ring
        where = (layer, slots[:, None], cols)
        return self.k[where], self.v[where]

    def read(self, layer: int, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row's stored ``(k, v, positions)`` in position order; no operand block is used or kept."""
        total = int(self.total[layer, slot])
        local_from = int(self.window(total)[0])
        k, v = self.gather(layer, np.array([slot]), np.array([local_from]))
        positions = np.concatenate([np.arange(min(self.sink, total)), np.arange(local_from, total)])
        return k[0, : positions.size], v[0, : positions.size], positions

    def operand_groups(
        self, layer: int, slots: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Stored tokens of ``slots`` in position order, grouped by stored count.

        Returns ``(rows, k, v)`` per group: ``rows`` index into ``slots`` and
        ``k``/``v`` are ``(len(rows), stored, heads, dim)``.  A group's
        :meth:`gather` is kept as its operand block; while the same slots
        come back with every total and the stored count one larger — one
        :meth:`append_tokens` since, no page-granular eviction — the new ring
        row is copied in behind the others and views one token longer are
        returned.  Anything else gathers again and replaces the blocks that
        named any of the slots.  Arrays returned earlier are never written
        again.
        """
        totals = self.total[layer, slots]
        local_from, stored = self.window(totals)
        by_count: dict[int, list[int]] = {}
        for i, count in enumerate(stored.tolist()):
            by_count.setdefault(count, []).append(i)
        groups = []
        for count, idxs in by_count.items():
            rows = np.asarray(idxs, dtype=np.intp)
            group, grown = slots[rows], totals[rows]
            members = tuple(group.tolist())
            block = self.blocks.get(layer, members[0])
            if (
                block is not None
                and block.members == members
                and block.count + 1 == count
                and np.array_equal(block.totals + 1, grown)
            ):
                new = (layer, group, self._columns(grown - 1))
                block.k[:, count - 1] = self.k[new]
                block.v[:, count - 1] = self.v[new]
                block.totals, block.count = grown, count
            else:
                block = _WindowBlock(members, grown, count, *self.gather(layer, group, local_from[rows]))
                self.blocks.record(layer, block)
            groups.append((rows, block.k[:, :count], block.v[:, :count]))
        return groups


class DualPagedKVCache:
    """Two-way KV cache routing KV heads to a dense or a streaming store.

    Parameters
    ----------
    config:
        Paged-cache configuration.  ``n_kv_heads`` is the *total* number of KV
        heads in the model; the dense pool is created for the dense subset.
    streaming_head_mask:
        Boolean array over KV heads; ``True`` marks a streaming head.
    sink_tokens, local_tokens:
        Λ-mask geometry of the streaming arena.
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
        self.config = config
        self.streaming_head_mask = mask
        self.dense_head_indices = np.flatnonzero(~mask)
        self.streaming_head_indices = np.flatnonzero(mask)

        self.dense_cache: PagedKVCache | None = None
        if self.dense_head_indices.size:
            dense_cfg = PagedCacheConfig(
                n_layers=config.n_layers,
                n_kv_heads=int(self.dense_head_indices.size),
                head_dim=config.head_dim,
                page_size=config.page_size,
                num_pages=config.num_pages,
                kv_bits=config.kv_bits,
                logical_page_size=config.logical_page_size,
            )
            self.dense_cache = PagedKVCache(dense_cfg)
        # Streaming heads: one arena row per (layer, sequence slot); a
        # sequence holds its slot from creation to removal.
        self._arena: _StreamArena | None = None
        if self.streaming_head_indices.size:
            self._arena = _StreamArena(
                config.n_layers,
                int(self.streaming_head_indices.size),
                config.head_dim,
                sink_tokens,
                local_tokens,
                granularity=config.page_size,
                slots=_ARENA_INITIAL_SLOTS,
            )
        self._slots: dict[object, int] = {}
        self._seq_ids: set[object] = set()

    # -- sequence management ---------------------------------------------------
    def add_sequence(self, seq_id: object) -> None:
        if seq_id in self._seq_ids:
            raise ValueError(f"sequence {seq_id!r} already exists")
        self._seq_ids.add(seq_id)
        if self.dense_cache is not None:
            self.dense_cache.add_sequence(seq_id)
        if self._arena is not None:
            self._slots[seq_id] = self._arena.acquire()

    def remove_sequence(self, seq_id: object) -> None:
        if seq_id not in self._seq_ids:
            raise KeyError(f"unknown sequence {seq_id!r}")
        self._seq_ids.remove(seq_id)
        if self.dense_cache is not None:
            self.dense_cache.remove_sequence(seq_id)
        if self._arena is not None:
            self._arena.release(self._slots.pop(seq_id))

    def fork_sequence(self, parent_id: object, child_id: object) -> None:
        """Copy-on-write fork: dense pages are referenced, streaming state copied.

        The dense pool forks through :meth:`PagedKVCache.fork_sequence`
        (shared pages, tail copied on first divergent append); the streaming
        state is constant-size, so the child's slot simply gets a copy of the
        parent's rows.
        """
        if parent_id not in self._seq_ids:
            raise KeyError(f"unknown sequence {parent_id!r}")
        if child_id in self._seq_ids:
            raise ValueError(f"sequence {child_id!r} already exists")
        if self.dense_cache is not None:
            self.dense_cache.fork_sequence(parent_id, child_id)
        self._seq_ids.add(child_id)
        if self._arena is not None:
            child = self._slots[child_id] = self._arena.acquire()
            self._arena.copy_row(child, self._slots[parent_id])

    def attach_prefix(
        self,
        seq_id: object,
        n_tokens: int,
        dense_pages: list[int],
        stream_k_per_layer: list[np.ndarray] | None,
        stream_v_per_layer: list[np.ndarray] | None,
    ) -> None:
        """Create ``seq_id`` whose first ``n_tokens`` come from shared prefix pages.

        Dense-head pages are attached by reference (incref'd; their key
        statistics come with them); the streaming rows are rebuilt from the
        prefix's streaming-head K/V, which the prefix index keeps
        (``stream_*_per_layer``, one ``(n_tokens, n_streaming_heads,
        head_dim)`` array per layer), by one arena ``write`` per layer.  The
        window start only moves forward as tokens arrive, so what a
        token-by-token run keeps is the sink plus the final window — exactly
        what that bulk write stores.
        """
        if seq_id in self._seq_ids:
            raise ValueError(f"sequence {seq_id!r} already exists")
        if self._arena is not None and (stream_k_per_layer is None or stream_v_per_layer is None):
            raise ValueError(
                "attaching a prefix with streaming heads requires the "
                "streaming-head K/V of the prefix"
            )
        if self.dense_cache is not None:
            self.dense_cache.attach_prefix(seq_id, dense_pages, n_tokens)
        self._seq_ids.add(seq_id)
        if self._arena is not None:
            slot = self._slots[seq_id] = self._arena.acquire()
            for layer in range(self.config.n_layers):
                self._arena.write(
                    layer,
                    slot,
                    np.asarray(stream_k_per_layer[layer][:n_tokens], dtype=np.float64),
                    np.asarray(stream_v_per_layer[layer][:n_tokens], dtype=np.float64),
                )

    def export_sequence(self, seq_id: object) -> DualSequenceExport:
        """Snapshot a sequence across both stores (source left untouched)."""
        if seq_id not in self._seq_ids:
            raise KeyError(f"unknown sequence {seq_id!r}")
        dense = (
            self.dense_cache.export_sequence(seq_id)
            if self.dense_cache is not None
            else None
        )
        stream_k = stream_v = stream_totals = stream_layout = None
        if self._arena is not None:
            slot = self._slots[seq_id]
            stream_k, stream_v, stream_totals = (
                rows[:, slot].copy() for rows in (self._arena.k, self._arena.v, self._arena.total)
            )
            stream_layout = self._arena.layout
        return DualSequenceExport(
            n_tokens=self.seq_len(seq_id),
            dense=dense,
            stream_k=stream_k,
            stream_v=stream_v,
            stream_totals=stream_totals,
            stream_layout=stream_layout,
        )

    def import_sequence(self, seq_id: object, export: DualSequenceExport) -> int:
        """Install an exported sequence: attach dense pages, write streaming rows into a fresh slot.

        Returns the number of dense pages allocated on this pool (the pages a
        transfer cost model charges for).  Raises ``ValueError`` on an
        existing ``seq_id``, a mismatched head partitioning or a geometry
        either store cannot hold (arena layout, heads, head dim, layers), and
        ``OutOfPagesError`` when the dense pool cannot hold the pages — all
        before any mutation.
        """
        if seq_id in self._seq_ids:
            raise ValueError(f"sequence {seq_id!r} already exists")
        if (export.dense is None, export.stream_k is None) != (self.dense_cache is None, self._arena is None):
            raise ValueError(
                "exported sequence's dense/streaming head split does not match "
                "the target cache"
            )
        if self._arena is not None:
            rows = self._arena.k[:, 0].shape
            if export.stream_layout != self._arena.layout or export.stream_k.shape != rows:
                raise ValueError(
                    f"exported streaming rows (layout {export.stream_layout}, shape "
                    f"{export.stream_k.shape}) do not fit this arena (layout "
                    f"{self._arena.layout}, shape {rows}); layout is (sink, ring, granularity)"
                )
        pages: list[int] = []
        if self.dense_cache is not None:
            pages = self.dense_cache.import_sequence(seq_id, export.dense)
        self._seq_ids.add(seq_id)
        if self._arena is not None:
            slot = self._slots[seq_id] = self._arena.acquire()
            self._arena.k[:, slot] = export.stream_k
            self._arena.v[:, slot] = export.stream_v
            self._arena.total[:, slot] = export.stream_totals
        return len(pages)

    def prepare_append(self, seq_id: object, n_new_tokens: int) -> None:
        """Reserve the dense pool's pages for an upcoming append, atomically.

        Raises :class:`~repro.kvcache.allocator.OutOfPagesError` before any
        state changes when the pool cannot cover it; the streaming arena rows
        are constant-size and never allocate.
        """
        if seq_id not in self._seq_ids:
            raise KeyError(f"unknown sequence {seq_id!r}")
        if self.dense_cache is not None:
            self.dense_cache.prepare_append(seq_id, n_new_tokens)

    def pages_required(self, seq_id: object, n_new_tokens: int) -> int:
        """Dense-pool pages an ``n_new_tokens`` append must be able to allocate."""
        if self.dense_cache is None:
            return 0
        return self.dense_cache.pages_required(seq_id, n_new_tokens)

    def has_sequence(self, seq_id: object) -> bool:
        return seq_id in self._seq_ids

    def seq_len(self, seq_id: object) -> int:
        if seq_id not in self._seq_ids:
            raise KeyError(f"unknown sequence {seq_id!r}")
        if self.dense_cache is not None:
            return self.dense_cache.seq_len(seq_id)
        return int(self._arena.total[0, self._slots[seq_id]])

    # -- writes ------------------------------------------------------------------
    def append(self, seq_id: object, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append all-KV-head keys/values; heads are routed to the two stores."""
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if k.shape[1] != self.config.n_kv_heads:
            raise ValueError(
                f"expected {self.config.n_kv_heads} KV heads, got {k.shape[1]}"
            )
        if self.dense_cache is not None:
            self.dense_cache.append(
                seq_id, layer, k[:, self.dense_head_indices], v[:, self.dense_head_indices]
            )
        if self._arena is not None and k.shape[0]:
            k_s = k[:, self.streaming_head_indices]
            v_s = v[:, self.streaming_head_indices]
            self._arena.write(layer, self._slots[seq_id], k_s, v_s)

    def append_batch(
        self, seq_ids: list[object], layer: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Append one decode token per sequence, routed to both stores at once.

        ``k``/``v`` are ``(batch, n_kv_heads, head_dim)`` — row ``i`` is the
        new token of ``seq_ids[i]``.  The dense heads go through the paged
        pool's batched append, the streaming heads through the arena's: one
        scatter write each.
        """
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if k.ndim != 3 or k.shape[0] != len(seq_ids) or k.shape[1] != self.config.n_kv_heads:
            raise ValueError(
                f"expected ({len(seq_ids)}, {self.config.n_kv_heads}, head_dim), got {k.shape}"
            )
        if self.dense_cache is not None:
            self.dense_cache.append_token_batch(
                seq_ids, layer, k[:, self.dense_head_indices], v[:, self.dense_head_indices]
            )
        if self._arena is not None:
            k_s = k[:, self.streaming_head_indices]
            v_s = v[:, self.streaming_head_indices]
            self._arena.append_tokens(layer, self._slot_array(seq_ids), k_s, v_s)

    # -- reads ---------------------------------------------------------------------
    def _slot_array(self, seq_ids: list[object]) -> np.ndarray:
        return np.array([self._slots[seq_id] for seq_id in seq_ids], dtype=np.intp)

    @property
    def live_streaming_slots(self) -> int:
        """Arena slots currently held by sequences (0 once everything is released)."""
        return self._arena.live_slots if self._arena is not None else 0

    def get_streaming_groups(
        self, seq_ids: list[object], layer: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Sink + local KV of a decode batch, grouped by stored-token count.

        Returns ``(rows, k, v)`` per group: ``rows`` index into ``seq_ids``
        and ``k``/``v`` are ``(len(rows), stored, n_streaming_heads,
        head_dim)`` in position order, each sequence's slice equal to its own
        :meth:`get_streaming`.  A group whose members each grew by one token
        since its last read is served from the arena's operand block.
        """
        return self._arena.operand_groups(layer, self._slot_array(seq_ids))

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
        if not self.streaming_head_indices.size:
            empty = np.zeros((0, 0, self.config.head_dim))
            return empty, empty.copy(), np.zeros(0, dtype=np.int64)
        return self._arena.read(layer, self._slots[seq_id])

    def dense_key_stats(self, seq_id: object, layer: int) -> tuple[np.ndarray, np.ndarray]:
        if self.dense_cache is None:
            empty = np.zeros((0, 0, self.config.head_dim))
            return empty, empty.copy()
        return self.dense_cache.key_stats(seq_id, layer)

    # -- accounting -------------------------------------------------------------------
    @property
    def operand_block_bytes(self) -> int:
        """Bytes of gathered decode operands both stores keep alive (0 once everything is released)."""
        dense = self.dense_cache.operand_block_bytes if self.dense_cache is not None else 0
        return dense + (self._arena.blocks.nbytes if self._arena is not None else 0)

    def memory_bytes_model(self, seq_id: object | None = None) -> float:
        """Modelled KV memory across both stores."""
        total = 0.0
        if self.dense_cache is not None:
            total += self.dense_cache.memory_bytes_model(seq_id)
        if self._arena is not None:
            n_sequences = len(self._slots) if seq_id is None else int(seq_id in self._slots)
            # fp16 K and V of one (sequence, layer) row.
            row_bytes = 2.0 * self._arena.k[0, 0].size * 2.0
            total += n_sequences * self.config.n_layers * row_bytes
        return total
