"""Paged KV-cache substrate.

Implements the memory-management layer LServe builds on: a **ref-counted**
page allocator and per-sequence page tables (PagedAttention-style), low-bit
KV quantization (QServe-style KV4/KV8), per-logical-page key statistics used
by the hierarchical page selector, the two-way paged cache that keeps
separate page tables for dense and streaming heads (paper Fig. 5), and a
RadixAttention-style :class:`PrefixIndex` for copy-on-write prefix sharing
(fork -> CoW tail -> decref; see ``docs/architecture.md``).
"""

from repro.kvcache.allocator import OutOfPagesError, PageAllocator
from repro.kvcache.page_table import PageTable
from repro.kvcache.quantization import (
    QuantizedTensor,
    dequantize,
    quantization_error_bound,
    quantize,
)
from repro.kvcache.kv_stats import PageKeyStats, compute_page_key_stats, merge_key_stats
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.prefix_index import PrefixIndex, PrefixNode
from repro.kvcache.tiering import (
    ColdEntry,
    ColdTierError,
    ColdTierStore,
    KVTieringConfig,
    compress_page_images,
)

__all__ = [
    "OutOfPagesError",
    "PageAllocator",
    "PageTable",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "quantization_error_bound",
    "PageKeyStats",
    "compute_page_key_stats",
    "merge_key_stats",
    "PagedCacheConfig",
    "PagedKVCache",
    "DualPagedKVCache",
    "PrefixIndex",
    "PrefixNode",
    "KVTieringConfig",
    "ColdTierStore",
    "ColdTierError",
    "ColdEntry",
    "compress_page_images",
]
