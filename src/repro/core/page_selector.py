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

from repro.core.hierarchical_paging import (
    HierarchicalPagingConfig,
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
    the physical page count.  ``tail_in_every_row`` records whether every
    head kept the newest physical page: then all other selected pages are
    full, and the tokens a head gathers follow from the context length alone.
    """

    pages: np.ndarray
    n_physical_pages: int
    n_logical_pages: int = 0
    tail_in_every_row: bool = False

    @property
    def pages_per_kv_head(self) -> list[np.ndarray]:
        """The per-head rows of :attr:`pages`."""
        return list(self.pages)

    def selected_fraction(self) -> float:
        """Fraction of physical pages kept by each KV head."""
        if self.n_physical_pages == 0 or self.pages.size == 0:
            return 1.0
        return float(self.pages.shape[1] / self.n_physical_pages)


class PageSelector:
    """Stateless hierarchical page selector (one invocation per decode query)."""

    def __init__(
        self,
        config: HierarchicalPagingConfig,
        sink_pages: int = 1,
        local_pages: int = 1,
    ) -> None:
        self.config = config
        self.sink_pages = sink_pages
        self.local_pages = local_pages
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
        physical = physical_page_scores(logical, self.config.logical_pages_per_physical)
        pages = select_top_pages(
            physical,
            budget_pages=self.config.budget_pages,
            sink_pages=self.sink_pages,
            local_pages=self.local_pages,
        )
        n_physical = physical.shape[-1]
        if pages.shape[-1]:
            tails = (pages[..., -1] == n_physical - 1).all(axis=-1).tolist()
        else:
            tails = [False] * len(pages)
        return [
            PageSelection(
                pages=rows,
                n_physical_pages=n_physical,
                n_logical_pages=kmin.shape[1],
                tail_in_every_row=tail,
            )
            for rows, tail in zip(pages, tails)
        ]

    def select(
        self,
        query: np.ndarray,
        kmin: np.ndarray,
        kmax: np.ndarray,
        gqa_group_size: int = 1,
    ) -> PageSelection:
        """Select physical pages for one decode query (a batch of one).

        ``query`` is ``(n_heads, head_dim)``; ``kmin``/``kmax`` are the
        per-logical-page key statistics ``(n_logical_pages, n_kv_heads,
        head_dim)`` maintained by the paged cache.
        """
        return self.select_batch(
            np.asarray(query)[None],
            np.asarray(kmin)[None],
            np.asarray(kmax)[None],
            gqa_group_size=gqa_group_size,
        )[0]


class ReusablePageSelector:
    """Page selector that reuses its decision across a chunk of decode steps.

    A cached selection is reused for up to ``reuse_interval`` consecutive
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

    def __init__(self, selector: PageSelector, reuse_interval: int = 4) -> None:
        if reuse_interval < 1:
            raise ValueError("reuse_interval must be >= 1")
        self.selector = selector
        self.reuse_interval = reuse_interval
        self.num_queries = 0

    @property
    def num_selector_calls(self) -> int:
        return self.selector.num_invocations

    def overhead_reduction(self) -> float:
        """Measured ratio of queries served per selector invocation."""
        if self.num_selector_calls == 0:
            return 1.0
        return self.num_queries / self.num_selector_calls

    def lookup(self, entries: dict, key: object, n_logical_pages: int) -> PageSelection | None:
        """Serve ``entries[key]``'s selection without touching the key statistics.

        The freshness test only needs the logical-page count (the physical
        count is derived from it), so hot decode paths can check the cache
        *before* stacking kmin/kmax — the stats are only materialised on a
        miss, which then goes through :meth:`select_batch`.  A hit counts as
        one served query; a miss counts nothing (the follow-up
        ``select_batch`` call does), so exactly one query is recorded either
        way.
        """
        entry = entries.get(key)
        if entry is None:
            return None
        selection, served = entry
        n_logical = int(n_logical_pages)
        n_physical = -(-n_logical // self.selector.config.logical_pages_per_physical)
        # Freshness is keyed on *both* page counts: a new token can open a
        # fresh logical page inside the same physical page, changing the
        # kmin/kmax set (and thus the scores) without growing the physical
        # count — the cached decision would silently go stale.
        if (
            served < self.reuse_interval
            and selection.n_physical_pages == n_physical
            and selection.n_logical_pages == n_logical
        ):
            self.num_queries += 1
            entries[key] = (selection, served + 1)
            return selection
        return None

    def select_batch(
        self,
        entries: dict,
        keys: list[object],
        queries: np.ndarray,
        kmin: np.ndarray,
        kmax: np.ndarray,
        gqa_group_size: int = 1,
    ) -> list[PageSelection]:
        """Score fresh selections for a group of cache misses into ``entries``.

        The batched counterpart of the miss half of :meth:`select`: callers
        :meth:`lookup` first and pass the misses that share a logical-page
        count (shapes as :meth:`PageSelector.select_batch`, ``keys[i]`` owning
        row ``i``).  Every miss counts as one served query.
        """
        self.num_queries += len(keys)
        selections = self.selector.select_batch(
            queries, kmin, kmax, gqa_group_size=gqa_group_size
        )
        for key, selection in zip(keys, selections):
            entries[key] = (selection, 1)
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
