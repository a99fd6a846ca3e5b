"""Token-selection policies used by the accuracy harnesses.

Each policy answers one question: *given the KV cache geometry of a system and
a decode query, which tokens does its attention actually read?*  Accuracy on
the synthetic retrieval tasks is then the recall of the needle span under that
selection.  Dense attention reads everything; streaming heads read sink +
local; LServe reads the top physical pages ranked by hierarchical
(logical-page) statistics, scored by the engine's page selector, and
Quest-style flat selection is the same selector with logical pages as large
as the physical ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.config import LServeConfig
from repro.core.page_selector import PageSelection, PageSelector
from repro.eval.synthetic_context import SyntheticContext
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache

__all__ = [
    "SelectionPolicy",
    "DenseSelection",
    "StreamingSelection",
    "HierarchicalPageSelection",
    "policy_for_system",
]


class SelectionPolicy(Protocol):
    """Maps a synthetic context to the set of token indices attention reads."""

    name: str

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        """Return the selected token indices (1-D int array)."""


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
class HierarchicalPageSelection:
    """Page selection through the engine's :class:`~repro.core.page_selector.PageSelector`.

    Logical pages of ``logical_page_size`` tokens carry the key statistics;
    the top physical pages of ``physical_page_size`` tokens under the token
    budget are read, the first and last page always.  Quest's flat selection
    is the case ``logical_page_size == physical_page_size``: its statistics
    span whole large pages and turn into loose upper bounds as the page
    grows, so the needle page no longer stands out (the page-size dilemma,
    Fig. 6).
    """

    physical_page_size: int = 64
    logical_page_size: int = 16
    token_budget: int = 4096
    name: str = "LServe"

    @property
    def config(self) -> LServeConfig:
        """The engine geometry this policy selects under: a one-page sink and local window."""
        return LServeConfig(
            physical_page_size=self.physical_page_size,
            logical_page_size=self.logical_page_size,
            token_budget=self.token_budget,
            sink_tokens=self.physical_page_size,
            local_tokens=self.physical_page_size,
        )

    def tokens(self, selection: PageSelection, context: SyntheticContext) -> np.ndarray:
        """The token indices of the pages ``selection`` keeps for the first KV head."""
        page, n = self.physical_page_size, context.context_length
        tokens = [np.arange(int(p) * page, min(int(p) * page + page, n)) for p in selection.pages[0]]
        return np.concatenate(tokens) if tokens else np.zeros(0, dtype=np.int64)

    def key_stats(self, context: SyntheticContext) -> tuple[np.ndarray, np.ndarray]:
        """``(kmin, kmax)`` of ``context``'s logical pages, as a one-layer pool on this geometry folds them.

        Nothing attends here, so the keys stand in for the values.
        """
        keys, page = context.keys, self.physical_page_size
        n, n_kv_heads, head_dim = keys.shape
        config = PagedCacheConfig(1, n_kv_heads, head_dim, page, -(-n // page), logical_page_size=self.logical_page_size)
        pool = PagedKVCache(config)
        pool.add_sequence(0)
        pool.write_past_count([0], 0, keys, keys, [n])
        pool.advance([0], 0, keys, [n])
        return pool.key_stats(0, 0)

    def select_tokens(self, context: SyntheticContext, query: np.ndarray | None = None) -> np.ndarray:
        q = context.query if query is None else query
        kmin, kmax = self.key_stats(context)
        selection = PageSelector(self.config).select_batch(q[None], kmin[None], kmax[None])[0]
        return self.tokens(selection, context)


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
        return HierarchicalPageSelection(16, 16, token_budget, name=name)
    if lowered.startswith("lserve"):
        return HierarchicalPageSelection(name=name, token_budget=token_budget)
    raise KeyError(f"no selection policy registered for system {name!r}")
