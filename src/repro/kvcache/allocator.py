"""Physical page allocator for the paged KV cache.

Mirrors the block allocator of PagedAttention (vLLM): a fixed pool of
physical pages handed out from a free list, with explicit out-of-memory
signalling so the scheduler can apply admission control.

Pages are **reference counted** so that several sequences (and the prefix
index) can share one physical page, RadixAttention-style: ``allocate``
hands out a page with refcount 1, ``incref`` registers an additional
sharer, and ``decref`` drops one reference — the page returns to the free
list only when its last reference is gone.  ``free`` is kept as an alias
for ``decref`` (the single-owner special case), and over-releasing a page
raises exactly like a double free always has.

For cold-tier eviction the allocator also keeps two advisory structures
used by :mod:`repro.kvcache.tiering` eviction policies:

* an **access clock** — ``touch_many(pages)`` stamps pages with one tick
  of a monotonically increasing counter and ``last_used(page)`` reads the
  stamp back, giving LRU-by-last-attended ordering without the caches having
  to keep their own bookkeeping;
* **pins** — ``pin(page)`` marks a page as not victimizable (the prefix
  index pins the pages it holds); freeing a pinned page raises, so a pin
  is also a safety net against the pinner's reference being dropped out
  from under it.
"""

from __future__ import annotations

__all__ = ["OutOfPagesError", "PageAllocator"]


class OutOfPagesError(RuntimeError):
    """Raised when the KV cache pool has no free physical pages left."""


class PageAllocator:
    """Ref-counted free-list allocator over ``num_pages`` physical pages."""

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive, got {num_pages}")
        self._capacity = num_pages
        # LIFO free list: reusing recently freed pages keeps the working set hot.
        self._free: list[int] = list(range(num_pages - 1, -1, -1))
        self._refcounts: dict[int, int] = {}
        # Advisory eviction-policy state (see module docstring).
        self._clock = 0
        self._last_used: dict[int, int] = {}
        self._pinned: set[int] = set()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_free(self) -> int:
        return len(self._free)

    @property
    def num_allocated(self) -> int:
        return len(self._refcounts)

    @property
    def total_refs(self) -> int:
        """Sum of refcounts over all allocated pages (shared pages count once per sharer)."""
        return sum(self._refcounts.values())

    def refcount(self, page: int) -> int:
        """Current reference count of a page (0 when the page is free)."""
        return self._refcounts.get(page, 0)

    def can_allocate(self, n: int = 1) -> bool:
        """Whether ``n`` pages can be allocated without raising."""
        return self.num_free >= n

    # -- eviction-policy support ------------------------------------------------
    def touch_many(self, pages: list[int]) -> None:
        """Stamp several pages with one shared access-clock tick."""
        self._clock += 1
        for page in pages:
            if page not in self._refcounts:
                raise ValueError(f"page {page} is not currently allocated")
            self._last_used[page] = self._clock

    def last_used(self, page: int) -> int:
        """Access-clock stamp of the page's last touch (0 if never touched)."""
        return self._last_used.get(page, 0)

    def pin(self, page: int) -> None:
        """Mark an allocated page as not victimizable by eviction policies."""
        if page not in self._refcounts:
            raise ValueError(f"page {page} is not currently allocated")
        self._pinned.add(page)

    def unpin(self, page: int) -> None:
        """Clear a page's pin (a no-op when the page is not pinned)."""
        self._pinned.discard(page)

    def is_pinned(self, page: int) -> bool:
        """Whether the page is currently pinned."""
        return page in self._pinned

    @property
    def num_pinned(self) -> int:
        """Number of currently pinned pages."""
        return len(self._pinned)

    def allocate(self) -> int:
        """Allocate one physical page (refcount 1); raises :class:`OutOfPagesError` if full."""
        if not self._free:
            raise OutOfPagesError(
                f"KV cache exhausted: all {self._capacity} pages are allocated"
            )
        page = self._free.pop()
        self._refcounts[page] = 1
        return page

    def allocate_many(self, n: int) -> list[int]:
        """Allocate ``n`` pages atomically (all or nothing)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if not self.can_allocate(n):
            raise OutOfPagesError(
                f"cannot allocate {n} pages: only {self.num_free} free of {self._capacity}"
            )
        return [self.allocate() for _ in range(n)]

    def incref(self, page: int) -> int:
        """Register one more reference to an allocated page; returns the new count."""
        if page not in self._refcounts:
            raise ValueError(f"page {page} is not currently allocated")
        self._refcounts[page] += 1
        return self._refcounts[page]

    def decref(self, page: int) -> int:
        """Drop one reference; frees the page when the count reaches zero.

        Returns the remaining reference count.  Dropping a reference on a
        page that is not allocated (a double free / double decref) raises
        ``ValueError``.
        """
        if page not in self._refcounts:
            raise ValueError(f"page {page} is not currently allocated")
        if self._refcounts[page] == 1 and page in self._pinned:
            raise ValueError(f"page {page} is pinned and cannot be freed")
        self._refcounts[page] -= 1
        remaining = self._refcounts[page]
        if remaining == 0:
            del self._refcounts[page]
            self._last_used.pop(page, None)
            self._free.append(page)
        return remaining

    def free(self, page: int) -> None:
        """Drop one reference to a page (alias of :meth:`decref`)."""
        self.decref(page)

    def free_many(self, pages: list[int]) -> None:
        for page in pages:
            self.free(page)
