"""Per-sequence page table mapping logical block index to physical page id.

The page table is the indirection layer of PagedAttention: a sequence's KV
history is stored in fixed-size physical pages that need not be contiguous,
and the attention kernel follows the table to find each block (paper §2.1,
Fig. 5 "Dense Head Page Table" / "Streaming Head Page Table").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PageTable"]


@dataclass
class PageTable:
    """Page table for one sequence.

    Attributes
    ----------
    page_size:
        Number of tokens per physical page.
    pages:
        Physical page ids in logical order (index ``i`` holds tokens
        ``[i * page_size, (i + 1) * page_size)``).
    num_tokens:
        Number of tokens currently stored.
    """

    page_size: int
    pages: list[int] = field(default_factory=list)
    num_tokens: int = 0

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def last_page_fill(self) -> int:
        """Number of tokens stored in the last (possibly partial) page."""
        if self.num_tokens == 0:
            return 0
        rem = self.num_tokens % self.page_size
        return self.page_size if rem == 0 else rem

    def fork(self) -> "PageTable":
        """An independent table referencing the physical pages that hold tokens.

        Used by copy-on-write sequence forking: the caller owns the refcount
        bookkeeping (one ``incref`` per page of the fork); mutating either
        table's page list afterwards never affects the other.  Pages past the
        last token — holding rows written past the count — stay with this
        table alone, so the only page the two
        can share a write into is the one holding the last token.
        """
        held = -(-self.num_tokens // self.page_size)
        return PageTable(page_size=self.page_size, pages=self.pages[:held], num_tokens=self.num_tokens)

    def pages_needed_for(self, n_new_tokens: int) -> int:
        """How many new physical pages appending ``n_new_tokens`` requires."""
        if n_new_tokens < 0:
            raise ValueError("n_new_tokens must be non-negative")
        total = self.num_tokens + n_new_tokens
        needed = (total + self.page_size - 1) // self.page_size
        return max(0, needed - self.num_pages)

    def append_pages(self, new_pages: list[int]) -> None:
        """Register freshly allocated physical pages at the end of the table."""
        self.pages.extend(new_pages)

    def record_tokens(self, n_new_tokens: int) -> None:
        """Account for ``n_new_tokens`` written into the registered pages."""
        if n_new_tokens < 0:
            raise ValueError("n_new_tokens must be non-negative")
        total = self.num_tokens + n_new_tokens
        if total > self.num_pages * self.page_size:
            raise ValueError(
                f"page table has capacity {self.num_pages * self.page_size} tokens "
                f"but {total} were recorded; allocate pages first"
            )
        self.num_tokens = total

    def slot(self, token_index: int) -> tuple[int, int]:
        """Physical (page id, offset) of a logical token index."""
        if not 0 <= token_index < self.num_tokens:
            raise IndexError(
                f"token_index {token_index} out of range [0, {self.num_tokens})"
            )
        return self.pages[token_index // self.page_size], token_index % self.page_size

    def tokens_in_page(self, logical_page_index: int) -> int:
        """Number of valid tokens stored in the given logical page position."""
        if not 0 <= logical_page_index < self.num_pages:
            raise IndexError(f"page index {logical_page_index} out of range")
        if logical_page_index < self.num_pages - 1:
            return self.page_size
        return self.last_page_fill

    def truncate_pages(self, keep_indices: list[int]) -> list[int]:
        """Drop all logical pages not in ``keep_indices`` (used by the
        streaming-head cache to evict pages that left the sink + local window).

        Returns the physical page ids that were released.  ``keep_indices``
        refers to logical positions *before* truncation; the kept pages remain
        in their original relative order and the token count loses the tokens
        the dropped pages held.
        """
        keep = sorted(set(keep_indices))
        if any(i < 0 or i >= self.num_pages for i in keep):
            raise IndexError("keep index out of range")
        dropped = sorted(set(range(self.num_pages)) - set(keep))
        self.num_tokens -= sum(
            min(self.page_size, max(0, self.num_tokens - i * self.page_size)) for i in dropped
        )
        released = [self.pages[i] for i in dropped]
        self.pages = [self.pages[i] for i in keep]
        return released
