"""Token-selection policies used by the accuracy harnesses.

Each policy answers one question: *given the KV cache geometry of a system and
a decode query, which tokens does its attention actually read?*  Accuracy on
the synthetic retrieval tasks is then the recall of the needle span under that
selection.  Dense attention reads everything; streaming heads read sink +
local; Quest-style selection reads the top pages ranked by flat page
statistics; LServe reads the top physical pages ranked by hierarchical
(logical-page) statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.hierarchical_paging import (
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from repro.eval.synthetic_context import SyntheticContext
from repro.kvcache.kv_stats import compute_page_key_stats

__all__ = [
    "SelectionPolicy",
    "DenseSelection",
    "StreamingSelection",
    "FlatPageSelection",
    "HierarchicalPageSelection",
    "policy_for_system",
]


class SelectionPolicy(Protocol):
    """Maps a synthetic context to the set of token indices attention reads."""

    name: str

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        """Return the selected token indices (1-D int array)."""


def _key_stats(context: SyntheticContext, logical_page_size: int) -> tuple[np.ndarray, np.ndarray]:
    stats = compute_page_key_stats(context.keys, logical_page_size)
    kmin = np.stack([s.kmin for s in stats])
    kmax = np.stack([s.kmax for s in stats])
    return kmin, kmax


def _pages_to_tokens(pages: np.ndarray, page_size: int, n_tokens: int) -> np.ndarray:
    tokens = []
    for p in pages:
        start = int(p) * page_size
        tokens.append(np.arange(start, min(start + page_size, n_tokens)))
    if not tokens:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(tokens)


@dataclass
class DenseSelection:
    """Dense attention: every token is read."""

    name: str = "Dense"

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        return np.arange(context.context_length)


@dataclass
class StreamingSelection:
    """Streaming (Λ-mask) attention: sink tokens plus the local window only."""

    sink_tokens: int = 128
    local_tokens: int = 256
    name: str = "StreamingLLM"

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        n = context.context_length
        sink = np.arange(min(self.sink_tokens, n))
        local = np.arange(max(0, n - self.local_tokens), n)
        return np.unique(np.concatenate([sink, local]))


@dataclass
class FlatPageSelection:
    """Quest-style selection: page statistics at *physical* page granularity.

    This is the baseline whose accuracy collapses when the physical page size
    grows (the page-size dilemma, Fig. 6): statistics over large pages become
    loose upper bounds and the needle page no longer stands out.
    """

    page_size: int = 16
    token_budget: int = 4096
    sink_pages: int = 1
    local_pages: int = 1
    name: str = "Quest"

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        q = context.query if query is None else query
        kmin, kmax = _key_stats(context, self.page_size)
        scores = logical_page_scores(q, kmin, kmax, gqa_group_size=1)
        budget_pages = max(1, self.token_budget // self.page_size)
        pages = select_top_pages(
            scores, budget_pages, sink_pages=self.sink_pages, local_pages=self.local_pages
        )[0]
        return _pages_to_tokens(pages, self.page_size, context.context_length)


@dataclass
class HierarchicalPageSelection:
    """LServe's hierarchical paging: logical-page statistics, physical-page selection."""

    physical_page_size: int = 64
    logical_page_size: int = 16
    token_budget: int = 4096
    sink_pages: int = 1
    local_pages: int = 1
    name: str = "LServe"

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        q = context.query if query is None else query
        kmin, kmax = _key_stats(context, self.logical_page_size)
        logical = logical_page_scores(q, kmin, kmax, gqa_group_size=1)
        physical = physical_page_scores(logical, self.physical_page_size // self.logical_page_size)
        budget_pages = max(1, self.token_budget // self.physical_page_size)
        pages = select_top_pages(
            physical, budget_pages, sink_pages=self.sink_pages, local_pages=self.local_pages
        )[0]
        return _pages_to_tokens(pages, self.physical_page_size, context.context_length)


def policy_for_system(name: str, token_budget: int = 4096) -> SelectionPolicy:
    """Selection policy matching a named serving system's retrieval behaviour."""
    lowered = name.lower()
    if lowered in ("dense", "vllm", "qserve", "minference", "duoattention"):
        # DuoAttention / MInference keep full-attention retrieval heads, so a
        # needle reachable by dense attention remains reachable.
        return DenseSelection(name=name)
    if lowered in ("streamingllm", "streaming"):
        return StreamingSelection(name=name)
    if lowered == "quest":
        return FlatPageSelection(name=name, token_budget=token_budget)
    if lowered.startswith("lserve"):
        return HierarchicalPageSelection(name=name, token_budget=token_budget)
    raise KeyError(f"no selection policy registered for system {name!r}")
