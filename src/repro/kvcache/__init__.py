"""Paged KV-cache substrate.

Implements the memory-management layer LServe builds on: a **ref-counted**
page allocator and per-sequence page tables (PagedAttention-style), the
pool's low-bit record codec (QServe-style KV4/KV8,
:mod:`repro.kvcache.quantization`), per-logical-page key statistics folded
in the pool for the hierarchical page selector, the two-way paged cache that keeps
separate page tables for dense and streaming heads (paper Fig. 5), and a
RadixAttention-style :class:`PrefixIndex` for whole-page prefix sharing
(fork and attach share full pages, a fork copies a partly filled tail page,
release decrefs; see ``docs/architecture.md``).
"""

from repro.kvcache.allocator import OutOfPagesError, PageAllocator
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.prefix_index import PrefixIndex, PrefixNode
from repro.kvcache.tiering import (
    ColdEntry,
    ColdTierError,
    ColdTierStore,
    KVTieringConfig,
)

__all__ = [
    "OutOfPagesError",
    "PageAllocator",
    "PagedCacheConfig",
    "PagedKVCache",
    "DualPagedKVCache",
    "PrefixIndex",
    "PrefixNode",
    "KVTieringConfig",
    "ColdTierStore",
    "ColdTierError",
    "ColdEntry",
]
