"""Dynamic page selection with hierarchical paging and selection reuse.

:class:`PageSelector` implements the query-centric selection of §3.5.2: score
logical pages with Eq. 2, max-reduce onto physical pages, keep the top-K
physical pages under the token budget (sink and local pages always retained).

:class:`ReusablePageSelector` implements §3.5.3: because adjacent decode
queries attend to similar history, the selection is recomputed only at the
start of every ``reuse_interval``-token chunk and reused for the queries in
between, cutting selector overhead by the reuse interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LServeConfig
from repro.core.hierarchical_paging import (
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)

__all__ = ["PageSelection", "PageSelector", "ReusablePageSelector"]


@dataclass
class PageSelection:
    """Outcome of one page-selection invocation.

    ``pages[h]`` is the sorted row of selected physical page positions
    (indices into the sequence's page table) of KV head ``h`` — every head
    keeps the same number of pages, so the selection is one matrix.
    ``n_logical_pages`` records how many logical pages the scored key stats
    covered — the reuse cache keys freshness on it, because new tokens can
    open a fresh *logical* page (changing the kmin/kmax set) without growing
    the physical page count.
    """

    pages: np.ndarray
    n_physical_pages: int
    n_logical_pages: int


class PageSelector:
    """Stateless hierarchical page selector (one invocation per decode query).

    The geometry is ``config``'s, read once here: logical pages per physical
    page, the token budget in physical pages, and the sink and local pages
    every selection keeps.
    """

    def __init__(self, config: LServeConfig) -> None:
        self.logical_pages_per_physical = config.logical_pages_per_physical
        self.budget_pages = config.budget_pages
        self.sink_pages = config.sink_pages
        self.local_pages = config.local_pages
        self.num_invocations = 0

    def select_batch(
        self,
        queries: np.ndarray,
        kmin: np.ndarray,
        kmax: np.ndarray,
        gqa_group_size: int = 1,
    ) -> list[PageSelection]:
        """Select physical pages for a group of decode queries in one pass.

        ``queries`` is ``(batch, n_heads, head_dim)``; ``kmin``/``kmax`` are
        the sequences' per-logical-page key statistics ``(batch,
        n_logical_pages, n_kv_heads, head_dim)`` — the group shares one
        logical-page count.  Each returned selection equals selecting that
        sequence alone.
        """
        kmin = np.asarray(kmin)
        self.num_invocations += kmin.shape[0]
        logical = logical_page_scores(queries, kmin, kmax, gqa_group_size=gqa_group_size)
        physical = physical_page_scores(logical, self.logical_pages_per_physical)
        pages = select_top_pages(
            physical,
            budget_pages=self.budget_pages,
            sink_pages=self.sink_pages,
            local_pages=self.local_pages,
        )
        n_physical = physical.shape[-1]
        return [
            PageSelection(pages=rows, n_physical_pages=n_physical, n_logical_pages=kmin.shape[1])
            for rows in pages
        ]


class ReusablePageSelector:
    """Page selector that reuses its decision across a chunk of decode steps.

    A cached selection is reused for up to ``config.reuse_interval`` consecutive
    queries of the same sequence; the cache is also refreshed whenever the
    number of physical *or logical* pages grows (a new page — or new key
    statistics inside the same physical page — appeared since the cached
    decision, which the cached decision cannot cover).

    The selector keeps the rule, not the state: every call takes
    ``entries``, the mapping of a cache key to its ``(selection,
    queries_served)``.  The engine passes its dense pool's
    :attr:`~repro.kvcache.paged_cache.PagedKVCache.page_selections`, keyed
    ``(seq_id, layer)``, so a sequence's selections and reuse phase follow
    its pages through fork, export/import and release.  An entry is
    replaced, never mutated, so a copy of it keeps its own phase; the
    :class:`PageSelection` inside is shared by reference (selections are
    never mutated once scored).
    """

    def __init__(self, config: LServeConfig) -> None:
        self.selector = PageSelector(config)
        self.reuse_interval = config.reuse_interval
        self.num_queries = 0

    @property
    def num_selector_calls(self) -> int:
        return self.selector.num_invocations

    def overhead_reduction(self) -> float:
        """Measured ratio of queries served per selector invocation."""
        if self.num_selector_calls == 0:
            return 1.0
        return self.num_queries / self.num_selector_calls

    def refreshes(self, entry: tuple | None, n_logicals: list[int]) -> list[bool]:
        """Which of successive queries at ``n_logicals[j]`` logical pages score a fresh selection.

        Starts from ``entry`` (``None`` when there is none) and applies
        :meth:`lookup`'s freshness rule query by query: a query refreshes
        when the selection before it cannot serve it, and a fresh selection
        covers the query's page counts.  Only counts decide, so a speculative
        chunk's refresh rows are known before any of them is scored.
        """
        lpp = self.selector.logical_pages_per_physical
        if entry is not None:
            entry = (entry[0].n_physical_pages, entry[0].n_logical_pages, entry[1])
        out = []
        for n_logical in n_logicals:
            n_physical = -(-n_logical // lpp)
            fresh = entry is None or not (entry[2] < self.reuse_interval and entry[:2] == (n_physical, n_logical))
            entry = (n_physical, n_logical, 1) if fresh else (n_physical, n_logical, entry[2] + 1)
            out.append(fresh)
        return out

    def lookup(
        self, entries: dict, key: object, n_logical_pages: int, queries: int = 1
    ) -> PageSelection | None:
        """Serve ``entries[key]``'s selection without touching the key statistics.

        The freshness test only needs the logical-page count (the physical
        count is derived from it), so hot decode paths can check the cache
        *before* stacking kmin/kmax — the stats are only materialised on a
        miss, which then goes through :meth:`select_batch`.  A hit serves
        ``queries`` queries at once (the rows of a speculative chunk that
        share the selection; one for a decode step) when the selection can
        serve them all; a miss counts nothing (the follow-up ``select_batch``
        call does), so every query is recorded exactly once either way.
        """
        entry = entries.get(key)
        if entry is None:
            return None
        selection, served = entry
        n_logical = int(n_logical_pages)
        n_physical = -(-n_logical // self.selector.logical_pages_per_physical)
        # Freshness is keyed on *both* page counts: a new token can open a
        # fresh logical page inside the same physical page, changing the
        # kmin/kmax set (and thus the scores) without growing the physical
        # count — the cached decision would silently go stale.  `refreshes`
        # applies the same rule ahead of time; the two must agree.
        if (
            served + queries <= self.reuse_interval
            and selection.n_physical_pages == n_physical
            and selection.n_logical_pages == n_logical
        ):
            self.num_queries += queries
            entries[key] = (selection, served + queries)
            return selection
        return None

    def select_batch(
        self,
        entries: dict,
        keys: list[object],
        queries: np.ndarray,
        kmin: np.ndarray,
        kmax: np.ndarray,
        gqa_group_size: int,
        served: list[int] | None = None,
    ) -> list[PageSelection]:
        """Score fresh selections for a group of cache misses into ``entries``.

        The batched counterpart of the miss half of :meth:`select`: callers
        :meth:`lookup` first and pass the misses that share a logical-page
        count (shapes as :meth:`PageSelector.select_batch`, ``keys[i]`` owning
        row ``i``).  Every miss counts as one served query, or as
        ``served[i]``: the query that scored it and the chunk rows after it
        that reuse it.
        """
        served = [1] * len(keys) if served is None else served
        self.num_queries += sum(served)
        selections = self.selector.select_batch(
            queries, kmin, kmax, gqa_group_size=gqa_group_size
        )
        for key, selection, n in zip(keys, selections, served):
            entries[key] = (selection, n)
        return selections

    def select(
        self,
        entries: dict,
        key: object,
        query: np.ndarray,
        kmin: np.ndarray,
        kmax: np.ndarray,
        gqa_group_size: int = 1,
    ) -> PageSelection:
        """Return a (possibly cached) page selection for ``entries[key]``."""
        kmin = np.asarray(kmin)
        cached = self.lookup(entries, key, kmin.shape[0])
        if cached is not None:
            return cached
        return self.select_batch(
            entries,
            [key],
            np.asarray(query)[None],
            kmin[None],
            np.asarray(kmax)[None],
            gqa_group_size=gqa_group_size,
        )[0]
