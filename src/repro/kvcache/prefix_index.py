"""RadixAttention-style prefix index over token blocks of one physical page.

The index is a trie keyed by *token blocks* (``page_size`` consecutive token
ids): a path from the root spells out a prompt prefix in whole physical
pages.  Each node pins the KV state of its page so a later prompt with the
same prefix can **attach** the matched pages instead of recomputing them
(SGLang's RadixAttention applied to LServe's two-way cache):

* the dense-head physical page id, kept alive with one allocator reference
  owned by the index (sequences that attach take their own references, so
  evicting a node never pulls pages out from under a live sequence);
  the page's key statistics are rows of the page itself, so they need no
  field here;
* the streaming-head K/V of the page's tokens, per layer — the raw material
  from which :meth:`DualPagedKVCache.attach_prefix
  <repro.kvcache.dual_cache.DualPagedKVCache.attach_prefix>` rebuilds the
  sink+local arena row at the match boundary, byte-identically.

Nodes are evicted least-recently-used, leaves first, when the page pool runs
dry (:meth:`PrefixIndex.evict_until`); dropping the index's reference frees
the page only once no sequence references it either.

The index **pins** the pages it holds in the allocator, marking them as not
victimizable by sequence-level eviction policies.  With a cold KV tier
enabled (:mod:`repro.kvcache.tiering`), idle entries *demote* before they
are dropped: eviction parks a node's page image host-side
(``cold_image``), unpins and releases the physical page, and keeps
the node in the trie — a later prompt with the same prefix restores the page
(:meth:`PrefixIndex.adopt_restored`) at a modeled transfer cost instead of
recomputing it.
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
    page: int | None
    stream_k_per_layer: list[np.ndarray] | None
    stream_v_per_layer: list[np.ndarray] | None
    parent: "PrefixNode | None" = None
    children: dict[tuple[int, ...], "PrefixNode"] = field(default_factory=dict)
    last_used: int = 0
    #: The page image (opaque: whatever ``page_image`` returned — K/V blocks
    #: and key-statistic rows) parked host-side while the node is demoted.
    cold_image: object | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_cold(self) -> bool:
        """Whether the node's dense page currently lives in the cold tier."""
        return self.page is None and self.cold_image is not None


class PrefixIndex:
    """Token-block trie mapping prompt prefixes to shareable KV pages."""

    def __init__(self, page_size: int, allocator: PageAllocator | None = None) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.allocator = allocator
        self._root = PrefixNode(
            token_block=(), page=None, stream_k_per_layer=None, stream_v_per_layer=None,
        )
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
        """Dense physical pages the index currently holds a reference on."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            if node.page is not None:
                count += 1
        return count

    @property
    def cold_nodes(self) -> int:
        """Nodes whose page images are currently parked in the cold tier."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            if node.is_cold:
                count += 1
        return count

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
    def register(
        self,
        token_ids: np.ndarray,
        pages: list[int | None],
        streaming_for_page,
    ) -> int:
        """Insert the full-page prefix of ``token_ids`` into the trie.

        ``pages[i]`` is the dense physical page id backing page ``i`` (or
        ``None`` when there are no dense heads).  ``streaming_for_page(i)``
        lazily produces a new node's payload — per-layer ``(k, v)`` streaming
        history arrays (or ``None``) — and is only called for pages not
        already registered.  Newly pinned pages get one allocator reference
        owned by the index.  Returns the number of nodes inserted.
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
                stream_k, stream_v = streaming_for_page(i)
                page = pages[i]
                if page is not None:
                    if self.allocator is None:
                        raise RuntimeError("an allocator is required to pin dense pages")
                    self.allocator.incref(page)
                    self.allocator.pin(page)
                child = PrefixNode(
                    token_block=block,
                    page=page,
                    stream_k_per_layer=stream_k,
                    stream_v_per_layer=stream_v,
                    parent=node,
                )
                node.children[block] = child
                self._num_nodes += 1
                inserted += 1
            child.last_used = self._clock
            node = child
        return inserted

    # -- eviction ----------------------------------------------------------------
    def _drop(self, node: PrefixNode) -> None:
        assert node.parent is not None and not node.children
        del node.parent.children[node.token_block]
        self._num_nodes -= 1
        node.cold_image = None
        if node.page is not None:
            self.allocator.unpin(node.page)
            self.allocator.decref(node.page)
            self.evicted_pages += 1

    def _demote(self, node: PrefixNode, page_image) -> None:
        """Park a node's page image host-side and release the physical page."""
        assert node.page is not None
        node.cold_image = page_image(node.page)
        self.allocator.unpin(node.page)
        self.allocator.decref(node.page)
        node.page = None
        self.demoted_pages += 1

    def adopt_restored(self, node: PrefixNode, page: int) -> None:
        """Re-attach a restored physical page to a demoted node.

        The index takes ownership of ``page`` (which must carry the fresh
        refcount-1 reference of
        :meth:`~repro.kvcache.paged_cache.PagedKVCache.install_page_image`)
        and pins it again.
        """
        if not node.is_cold:
            raise ValueError("node is not demoted")
        node.page = page
        node.cold_image = None
        if self.allocator is not None:
            self.allocator.pin(page)
        self.restored_pages += 1

    def evict_until(self, min_free: int, page_image=None) -> bool:
        """Free pool pages until the allocator has ``min_free`` free.

        With ``page_image`` (a callable ``page -> image``, typically
        :meth:`~repro.kvcache.paged_cache.PagedKVCache.page_image`) given,
        cold-tier demotion runs first: least-recently-used nodes park their
        page image host-side and release their pages, staying restorable.
        Only if demotion cannot reach the target (or no cold tier is
        configured) are LRU leaves hard-dropped.  Dropping or demoting the
        index's reference only frees a page once no live sequence shares it,
        so eviction keeps retiring nodes until the target is met or the trie
        is exhausted.  Returns whether the target was reached.  A no-op
        (``True``) when the index pins no dense pages.
        """
        if self.allocator is None:
            return True
        if page_image is not None:
            hot = [n for n in self._nodes() if n.page is not None]
            hot.sort(key=lambda n: n.last_used)
            for node in hot:
                if self.allocator.num_free >= min_free:
                    return True
                self._demote(node, page_image)
        while self.allocator.num_free < min_free:
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
