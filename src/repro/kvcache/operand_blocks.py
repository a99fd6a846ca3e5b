"""Decode attention operands that outlive the step that gathered them.

LServe's page selector is reused across ``reuse_interval`` decode queries
(paper §3.5.3); on the GPU a reused selection is the same page table handed
to the kernel again and no KV byte moves.  Here attention runs on gathered
arrays, so the stores that own the bytes keep each decode group's gathered
K/V alive as an **operand block** and, while nothing but one appended token
per member changed, copy that one row in instead of gathering again.

:class:`OperandBlocks` is the index a page pool files its blocks in, by
sequence id (:meth:`PagedKVCache.gather_selected_batch
<repro.kvcache.paged_cache.PagedKVCache.gather_selected_batch>`).  It owns the lifetime rule: a member is named by at
most one block per layer, so block memory is bounded by the live members,
and dropping a member drops every block that names it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["OperandBlocks"]


class OperandBlocks:
    """``(layer, member) -> block`` over blocks that name several members.

    A block is any object with ``members`` (who it was gathered for, in batch
    order) and the ``k``/``v`` buffers it owns; what makes it still valid is
    its store's business.
    """

    def __init__(self, n_layers: int) -> None:
        self._layers = range(n_layers)
        self._by_member: dict[tuple[int, object], object] = {}

    def get(self, layer: int, member: object):
        """The block of ``layer`` that names ``member``, or ``None``."""
        return self._by_member.get((layer, member))

    def drop(self, members: Iterable[object], layers: Iterable[int] | None = None) -> None:
        """Forget every block (of ``layers``; default all) that names one of ``members``."""
        for layer in self._layers if layers is None else layers:
            for member in members:
                block = self._by_member.get((layer, member))
                if block is not None:
                    for named in block.members:
                        del self._by_member[(layer, named)]

    def record(self, layer: int, block) -> None:
        """File ``block`` under its members, replacing the blocks that named any of them."""
        self.drop(block.members, (layer,))
        for member in block.members:
            self._by_member[(layer, member)] = block

    def blocks(self) -> list[tuple[int, object]]:
        """Every live ``(layer, block)``, each once."""
        return list({id(block): (layer, block) for (layer, _), block in self._by_member.items()}.values())

    @property
    def nbytes(self) -> int:
        """Bytes of the K and V buffers the live blocks hold."""
        return sum(block.k.nbytes + block.v.nbytes for _, block in self.blocks())
