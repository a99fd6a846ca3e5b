"""RadixAttention-style prefix index over token blocks of one physical page.

The index is a trie keyed by *token blocks* (``page_size`` consecutive token
ids): a path from the root spells out a prompt prefix in whole physical
pages.  Each node pins the KV of its page so a later prompt with the same
prefix can **attach** the matched pages instead of recomputing them
(SGLang's RadixAttention applied to LServe's two-way cache): the node holds
the page's physical id in every pool of the cache — the dense-head pool and
the streaming-head pool (:class:`~repro.kvcache.dual_cache.DualPagedKVCache`)
— each kept alive with one allocator reference owned by the index.
Sequences that attach take their own references, so evicting a node never
pulls pages out from under a live sequence; the key statistics are rows of
the pages themselves, so they need no field here.

Nodes are evicted least-recently-used, leaves first, when the page pool runs
dry (:meth:`PrefixIndex.evict_until`); dropping the index's references frees
the pages only once no sequence references them either.

The index **pins** the pages it holds in the allocators, marking them as not
victimizable by sequence-level eviction policies.  With a cold KV tier
enabled (:mod:`repro.kvcache.tiering`), idle entries *demote* before they
are dropped: eviction parks a node's page images host-side
(``cold_image``), unpins and releases the physical pages, and keeps
the node in the trie — a later prompt with the same prefix restores the pages
(:meth:`PrefixIndex.adopt_restored`) at a modeled transfer cost instead of
recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kvcache.allocator import PageAllocator

__all__ = ["PrefixNode", "PrefixIndex"]


@dataclass
class PrefixNode:
    """One physical page of a registered prefix (see module docstring)."""

    token_block: tuple[int, ...]
    #: The page's physical id in each pool of the index, in the order of
    #: ``PrefixIndex.allocators``; ``()`` while demoted (or with no pools).
    pages: tuple[int, ...]
    parent: "PrefixNode | None" = None
    children: dict[tuple[int, ...], "PrefixNode"] = field(default_factory=dict)
    last_used: int = 0
    #: The page images (opaque: whatever the ``page_image`` callback returned
    #: — K/V blocks and key-statistic rows) parked host-side while demoted.
    cold_image: object | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_cold(self) -> bool:
        """Whether the node's pages currently live in the cold tier."""
        return not self.pages and self.cold_image is not None


class PrefixIndex:
    """Token-block trie mapping prompt prefixes to shareable KV pages.

    ``allocators`` are the pools a node holds one page in each of; the first
    is the one :meth:`evict_until` frees pages in (the pool the scheduler
    accounts — no other pool can run dry before it).
    """

    def __init__(self, page_size: int, allocators: tuple[PageAllocator, ...] = ()) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.allocators = tuple(allocators)
        self._root = PrefixNode(token_block=(), pages=())
        self._clock = 0
        self._num_nodes = 0
        self.hit_tokens = 0
        self.miss_tokens = 0
        self.evicted_pages = 0
        self.demoted_pages = 0
        self.restored_pages = 0

    # -- introspection ----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of registered page nodes."""
        return self._num_nodes

    @property
    def held_pages(self) -> int:
        """Nodes whose pages the index currently holds (a reference in every pool)."""
        return sum(1 for node in self._nodes() if node.pages)

    # -- lookup -----------------------------------------------------------------
    def match(self, token_ids: np.ndarray, max_tokens: int | None = None) -> list[PrefixNode]:
        """Longest registered page-chain prefix of ``token_ids``.

        Returns the matched nodes root-outward (possibly empty).  At most
        ``max_tokens`` tokens are matched when given (callers cap the match so
        at least one prompt token is left to compute, and so the boundary
        stays aligned with the prefill tiling).  Matched nodes are touched
        for LRU purposes.
        """
        token_ids = np.asarray(token_ids).ravel()
        limit = token_ids.size if max_tokens is None else min(max_tokens, token_ids.size)
        self._clock += 1
        chain: list[PrefixNode] = []
        node = self._root
        depth = 0
        while (depth + 1) * self.page_size <= limit:
            block = tuple(int(t) for t in token_ids[depth * self.page_size : (depth + 1) * self.page_size])
            child = node.children.get(block)
            if child is None:
                break
            child.last_used = self._clock
            chain.append(child)
            node = child
            depth += 1
        matched = len(chain) * self.page_size
        self.hit_tokens += matched
        self.miss_tokens += int(min(token_ids.size, limit) - matched)
        return chain

    # -- registration -------------------------------------------------------------
    def register(self, token_ids: np.ndarray, pages: list[tuple[int, ...] | None]) -> int:
        """Insert the full-page prefix of ``token_ids`` into the trie.

        ``pages[i]`` holds page ``i``'s physical id in each pool of the index
        (``()`` with no pools), or is ``None`` when the caller no longer holds
        that page: registration then stops there unless the node already
        exists.  A new node takes one reference on each of its pages and pins
        them.  Returns the number of nodes inserted.
        """
        token_ids = np.asarray(token_ids).ravel()
        n_pages = min(len(pages), token_ids.size // self.page_size)
        self._clock += 1
        node = self._root
        inserted = 0
        for i in range(n_pages):
            block = tuple(int(t) for t in token_ids[i * self.page_size : (i + 1) * self.page_size])
            child = node.children.get(block)
            if child is None:
                if pages[i] is None:
                    break
                child = PrefixNode(token_block=block, pages=(), parent=node)
                self._hold(child, pages[i])
                for allocator, page in zip(self.allocators, child.pages):
                    allocator.incref(page)
                node.children[block] = child
                self._num_nodes += 1
                inserted += 1
            child.last_used = self._clock
            node = child
        return inserted

    # -- eviction ----------------------------------------------------------------
    def _hold(self, node: PrefixNode, pages: tuple[int, ...]) -> None:
        """Give ``node`` its pages (one per pool) and pin them; the caller owns the references."""
        if len(pages) != len(self.allocators):
            raise ValueError(f"a node holds one page per pool: {len(self.allocators)}, got {len(pages)}")
        node.pages = tuple(pages)
        for allocator, page in zip(self.allocators, node.pages):
            allocator.pin(page)

    def _release(self, node: PrefixNode) -> None:
        """Unpin and drop the index's reference on each of the node's pages."""
        for allocator, page in zip(self.allocators, node.pages):
            allocator.unpin(page)
            allocator.decref(page)
        node.pages = ()

    def _drop(self, node: PrefixNode) -> None:
        assert node.parent is not None and not node.children
        del node.parent.children[node.token_block]
        self._num_nodes -= 1
        node.cold_image = None
        if node.pages:
            self._release(node)
            self.evicted_pages += 1

    def _demote(self, node: PrefixNode, page_image) -> None:
        """Park a node's page images host-side and release the physical pages."""
        node.cold_image = page_image(node.pages)
        self._release(node)
        self.demoted_pages += 1

    def adopt_restored(self, node: PrefixNode, pages: tuple[int, ...]) -> None:
        """Re-attach restored physical pages (one per pool) to a demoted node.

        The index takes ownership of ``pages``, which must carry the fresh
        refcount-1 references of ``install_page_image``, and pins them again.
        """
        if not node.is_cold:
            raise ValueError("node is not demoted")
        self._hold(node, pages)
        node.cold_image = None
        self.restored_pages += 1

    def evict_until(self, min_free: int, page_image=None) -> bool:
        """Free pool pages until the first allocator has ``min_free`` free.

        With ``page_image`` (a callable ``pages -> image`` over a node's
        pages, typically
        :meth:`~repro.kvcache.dual_cache.DualPagedKVCache.page_image`) given,
        cold-tier demotion runs first: least-recently-used nodes park their
        page images host-side and release their pages, staying restorable.
        Only if demotion cannot reach the target (or no cold tier is
        configured) are LRU leaves hard-dropped.  Dropping or demoting the
        index's reference only frees a page once no live sequence shares it,
        so eviction keeps retiring nodes until the target is met or the trie
        is exhausted.  Returns whether the target was reached.  A no-op
        (``True``) when the index holds pages in no pool.
        """
        if not self.allocators:
            return True
        allocator = self.allocators[0]
        if page_image is not None:
            hot = sorted((n for n in self._nodes() if n.pages), key=lambda n: n.last_used)
            for node in hot:
                if allocator.num_free >= min_free:
                    return True
                self._demote(node, page_image)
        while allocator.num_free < min_free:
            leaves = self._leaves()
            if not leaves:
                return False
            self._drop(min(leaves, key=lambda n: n.last_used))
        return True

    def _nodes(self) -> list[PrefixNode]:
        nodes = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children.values())
        return nodes

    def _leaves(self) -> list[PrefixNode]:
        leaves = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(node.children.values())
        return leaves

    def clear(self) -> None:
        """Drop every node (and the index's page references)."""
        while True:
            leaves = self._leaves()
            if not leaves:
                return
            for leaf in leaves:
                self._drop(leaf)
