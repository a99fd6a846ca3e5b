"""Cold KV tier: eviction policies, a host-memory store, and page compression.

Under pool pressure the serving path *demotes* KV state instead of throwing
it away: the least-recently-attended victim's page images move to a simulated
host-memory tier (:class:`ColdTierStore`) — optionally re-quantized at a
lower precision (QServe-style, via :mod:`repro.kvcache.quantization`) — and
the hot pages return to the pool.  Re-attach later pays an explicit
:class:`~repro.gpu.cost_model.TransferCostModel` restore latency rather than
the full recompute cost of a preemption.

Three pieces live here:

* :class:`KVTieringConfig` — the knob set shared by both serving backends
  (``mode`` offload/quantized, cold precision, cold-tier capacity, restore
  cost model).
* :func:`lru_order` — ranks demotion candidates by the
  :class:`~repro.kvcache.allocator.PageAllocator` access clock, pin-aware:
  owners holding pinned pages (the prefix index's) are never victimized.
* :class:`ColdTierStore` — the host tier itself, keyed by owner, with
  capacity refusal (:class:`ColdTierError`) and demote/restore accounting.
  The serving engine owns one and parks each victim's
  :class:`~repro.serving.backend.KVHandoff` in it.

Page payloads are whatever the owner hands over (a serving hand-off, or a
raw :class:`~repro.kvcache.dual_cache.DualSequenceExport`);
:func:`compress_page_images` applies the lossy quantize→dequantize round trip
to real page images for the ``"quantized"`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.gpu.cost_model import TransferCostModel
from repro.kvcache.allocator import PageAllocator
from repro.kvcache.quantization import SUPPORTED_BITS, fake_quantize

__all__ = [
    "TIERING_MODES",
    "ColdTierError",
    "ColdEntry",
    "ColdTierStore",
    "KVTieringConfig",
    "lru_order",
    "compress_page_images",
]

#: Supported demotion modes: bit-exact offload vs. lossy re-quantization.
TIERING_MODES = ("offload", "quantized")


class ColdTierError(RuntimeError):
    """Raised when the cold tier cannot accept a demotion (full or duplicate)."""


# -- victim ranking ---------------------------------------------------------------
def lru_order(allocator: PageAllocator, owners: Mapping[object, Sequence[int]]) -> list[object]:
    """Demotion candidates least-recently-attended first, by the access clock.

    ``owners`` maps an opaque owner (a sequence id) to the physical pages it
    holds.  An owner's recency is the *newest* stamp over its pages (one
    recently attended page keeps the whole sequence hot — demotion is
    all-or-nothing per owner); ties keep the mapping's order.  An owner
    holding any pinned page (prefix-index state) is never returned.
    """
    ranked: list[tuple[int, object]] = []
    for owner, pages in owners.items():
        if any(allocator.is_pinned(p) for p in pages):
            continue
        stamp = max((allocator.last_used(p) for p in pages), default=0)
        ranked.append((stamp, owner))
    ranked.sort(key=lambda item: item[0])
    return [owner for _, owner in ranked]


# -- configuration ---------------------------------------------------------------
@dataclass(frozen=True)
class KVTieringConfig:
    """Knobs of the cold KV tier, shared by both serving backends."""

    #: ``"offload"`` keeps demoted page images bit-exact; ``"quantized"``
    #: re-quantizes them at ``cold_kv_bits`` on the way out (lossy, smaller,
    #: faster to restore).
    mode: str = "offload"
    #: Storage/wire precision of demoted pages in ``"quantized"`` mode.
    cold_kv_bits: int = 8
    #: Host-tier capacity in pages (``None`` = unbounded).  When the cold
    #: tier is full, the engine falls back to classic recompute preemption.
    max_cold_pages: int | None = None
    #: Restore latency model charged on the virtual clock at re-attach.
    restore_cost: TransferCostModel = field(default_factory=TransferCostModel)
    #: Demote idle prefix-index leaves (park their page images host-side)
    #: before hard-dropping them.
    prefix_demotion: bool = True

    def __post_init__(self) -> None:
        if self.mode not in TIERING_MODES:
            raise ValueError(f"mode must be one of {TIERING_MODES}, got {self.mode!r}")
        if self.cold_kv_bits not in SUPPORTED_BITS:
            raise ValueError(f"cold_kv_bits must be one of {SUPPORTED_BITS}")
        if self.max_cold_pages is not None and self.max_cold_pages <= 0:
            raise ValueError("max_cold_pages must be positive (or None for unbounded)")

    def cold_bits(self, hot_kv_bits: int) -> int:
        """Wire/storage precision of a demoted page, given the hot-tier bits."""
        return self.cold_kv_bits if self.mode == "quantized" else hot_kv_bits


# -- the host-memory tier --------------------------------------------------------
@dataclass
class ColdEntry:
    """One demoted snapshot parked in the cold tier."""

    payload: object
    n_pages: int
    n_tokens: int


class ColdTierStore:
    """Simulated host-memory tier holding demoted KV snapshots by owner key."""

    def __init__(self, max_pages: int | None = None) -> None:
        if max_pages is not None and max_pages <= 0:
            raise ValueError("max_pages must be positive (or None for unbounded)")
        self.max_pages = max_pages
        self._entries: dict[object, ColdEntry] = {}
        self.total_demotions = 0
        self.total_restores = 0
        self.peak_pages = 0

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_entries(self) -> int:
        """Number of demoted snapshots currently parked."""
        return len(self._entries)

    @property
    def num_pages(self) -> int:
        """Pages currently occupying the cold tier."""
        return sum(e.n_pages for e in self._entries.values())

    @property
    def num_tokens(self) -> int:
        """KV tokens currently parked in the cold tier."""
        return sum(e.n_tokens for e in self._entries.values())

    def can_accept(self, n_pages: int) -> bool:
        """Whether ``n_pages`` more pages fit under ``max_pages``."""
        return self.max_pages is None or self.num_pages + n_pages <= self.max_pages

    def put(self, key: object, payload: object, n_pages: int, n_tokens: int) -> None:
        """Park a snapshot; raises :class:`ColdTierError` when full or duplicate."""
        if key in self._entries:
            raise ColdTierError(f"owner {key!r} already has a cold entry")
        if not self.can_accept(n_pages):
            raise ColdTierError(
                f"cold tier full: {self.num_pages} + {n_pages} pages exceeds "
                f"max_cold_pages={self.max_pages}"
            )
        self._entries[key] = ColdEntry(payload=payload, n_pages=n_pages, n_tokens=n_tokens)
        self.total_demotions += 1
        self.peak_pages = max(self.peak_pages, self.num_pages)

    def get(self, key: object) -> ColdEntry:
        """Peek at a parked snapshot (KeyError when absent)."""
        return self._entries[key]

    def pop(self, key: object) -> ColdEntry:
        """Remove and return a snapshot once it is restored (counts a restore).

        A restorer reads the entry with :meth:`get`, re-attaches it, and pops
        only on success, so a failed restore leaves the store untouched.
        """
        entry = self._entries.pop(key)
        self.total_restores += 1
        return entry

    def discard(self, key: object) -> bool:
        """Drop a snapshot without counting a restore (abort/release path)."""
        return self._entries.pop(key, None) is not None


# -- page-image compression ------------------------------------------------------
def compress_page_images(images: list[np.ndarray], bits: int) -> list[np.ndarray]:
    """Round-trip per-layer page images through ``bits``-wide quantization.

    Each entry has shape ``(n_pages, page_size, n_kv_heads, head_dim)``;
    groups run along the trailing (channel) axis, matching the storage
    quantization of :class:`~repro.kvcache.paged_cache.PagedKVCache`.  At
    16 bits this is a bit-exact copy.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}")
    return [image.copy() if image.size == 0 else fake_quantize(image, bits) for image in images]
