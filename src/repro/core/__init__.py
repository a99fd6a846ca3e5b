"""LServe core: unified sparse attention for long-sequence LLM serving.

This subpackage implements the paper's primary contribution:

* :mod:`repro.core.config` — the serving configuration (sparsity geometry,
  token budget, page sizes, reuse interval, KV precision).
* :mod:`repro.core.streaming` — streaming-head (Λ-mask) static sparsity.
* :mod:`repro.core.head_classifier` — DuoAttention-style retrieval/streaming
  head identification via gate optimisation and quantile thresholding (§3.3).
* :mod:`repro.core.hierarchical_paging` — logical/physical pages, query-centric
  importance scores (Eq. 2), top-K physical page selection (§3.5.2).
* :mod:`repro.core.page_selector` — the (reusable) dynamic page selector (§3.5.3).
* :mod:`repro.core.unified_sparse_attention` — prefill and decode attention
  with hybrid static + dynamic block sparsity (§3.1, §3.6).
* :mod:`repro.core.engine` — the LServe engine tying the pieces together over
  the two-way paged KV cache (§3.2).
"""

from repro.core.config import LServeConfig
from repro.core.streaming import StreamingConfig, build_prefill_block_masks
from repro.core.head_classifier import (
    HeadClassification,
    classify_heads,
    collect_head_gates,
    optimize_gate_values,
)
from repro.core.hierarchical_paging import (
    HierarchicalPagingConfig,
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from repro.core.page_selector import PageSelection, PageSelector, ReusablePageSelector
from repro.core.unified_sparse_attention import (
    prefill_sparse_attention,
    decode_group_attention,
)
from repro.core.engine import DecodeOutOfPagesError, LServeEngine, EngineStats

__all__ = [
    "LServeConfig",
    "StreamingConfig",
    "build_prefill_block_masks",
    "HeadClassification",
    "classify_heads",
    "collect_head_gates",
    "optimize_gate_values",
    "HierarchicalPagingConfig",
    "logical_page_scores",
    "physical_page_scores",
    "select_top_pages",
    "PageSelection",
    "PageSelector",
    "ReusablePageSelector",
    "prefill_sparse_attention",
    "decode_group_attention",
    "LServeEngine",
    "EngineStats",
    "DecodeOutOfPagesError",
]
