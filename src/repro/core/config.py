"""LServe serving configuration.

Collects every knob the paper exposes: the static-sparsity geometry (fraction
of streaming heads, sink/local window sizes), the dynamic-sparsity geometry
(physical/logical page sizes, token budget, reuse interval), KV quantization
precision, and the prefill tile size.  Defaults follow the paper's evaluation
setup (§4.2, §5.3): 50% streaming heads, 4096-token budget, physical pages of
64 tokens with 16-token logical pages, reuse interval 4, KV8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.kvcache.quantization import SUPPORTED_BITS

__all__ = ["LServeConfig"]


@dataclass(frozen=True)
class LServeConfig:
    """Configuration of the LServe unified sparse attention serving system."""

    # -- static sparsity (streaming heads, §3.3) --
    streaming_head_ratio: float = 0.5
    sink_tokens: int = 64
    local_tokens: int = 256

    # -- dynamic sparsity (hierarchical paging, §3.5) --
    token_budget: int = 4096
    physical_page_size: int = 64
    logical_page_size: int = 16
    reuse_interval: int = 4
    dynamic_sparsity_enabled: bool = True

    # -- KV quantization (QServe substrate) --
    kv_bits: int = 8

    # -- prefill kernel tile size (TQ) --
    q_block_size: int = 64

    # -- prefix sharing (RadixAttention-style token-block index) --
    prefix_cache_enabled: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.streaming_head_ratio <= 1.0:
            raise ValueError("streaming_head_ratio must be in [0, 1]")
        if self.sink_tokens < 0 or self.local_tokens < 1:
            raise ValueError("sink_tokens must be >= 0 and local_tokens >= 1")
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.physical_page_size <= 0 or self.logical_page_size <= 0:
            raise ValueError("page sizes must be positive")
        if self.physical_page_size % self.logical_page_size != 0:
            raise ValueError(
                f"physical_page_size ({self.physical_page_size}) must be a multiple "
                f"of logical_page_size ({self.logical_page_size})"
            )
        if self.sink_tokens % self.physical_page_size:
            raise ValueError(
                f"sink_tokens ({self.sink_tokens}) must be whole pages of "
                f"{self.physical_page_size} tokens"
            )
        if self.reuse_interval < 1:
            raise ValueError("reuse_interval must be >= 1")
        if self.kv_bits not in SUPPORTED_BITS:
            raise ValueError(f"kv_bits must be one of {SUPPORTED_BITS}")
        if self.q_block_size <= 0:
            raise ValueError("q_block_size must be positive")

    # -- derived geometry -----------------------------------------------------
    @property
    def logical_pages_per_physical(self) -> int:
        return self.physical_page_size // self.logical_page_size

    @property
    def sink_pages(self) -> int:
        """Number of leading physical pages always retained for dense heads."""
        return max(1, self.sink_tokens // self.physical_page_size)

    @property
    def local_pages(self) -> int:
        """Number of trailing physical pages always retained for dense heads."""
        return max(1, -(-self.local_tokens // self.physical_page_size))

    @property
    def prefix_match_alignment(self) -> int:
        """Token alignment of prefix-cache attach boundaries.

        A match boundary must be a multiple of the physical page size (pages
        are shared whole) *and* of the prefill tile size, so the continuation
        chunk tiles the sparse masks at the same boundaries as a single-shot
        prefill would and the numerics stay comparable (see
        :meth:`LServeEngine.prefill`).
        """
        page, q = self.physical_page_size, self.q_block_size
        return page * q // math.gcd(page, q)

    @property
    def budget_pages(self) -> int:
        """Token budget expressed in physical pages."""
        return max(1, self.token_budget // self.physical_page_size)

    def dynamic_sparsity_active(self, context_length: int) -> bool:
        """Dynamic sparsity only pays off once the context exceeds the budget.

        The paper configures sparse patterns offline so that short contexts do
        not suffer selector overhead (§5.5); we model this by bypassing page
        selection whenever the whole context already fits the token budget.
        """
        return self.dynamic_sparsity_enabled and context_length > self.token_budget

    @classmethod
    def dense_baseline(cls) -> "LServeConfig":
        """A configuration with all sparsity disabled (dense attention)."""
        return cls(
            streaming_head_ratio=0.0,
            dynamic_sparsity_enabled=False,
            kv_bits=16,
        )

    @classmethod
    def static_only(cls, **kwargs) -> "LServeConfig":
        """Static sparsity (streaming heads) without dynamic page selection."""
        return cls(dynamic_sparsity_enabled=False, **kwargs)

    @classmethod
    def dynamic_only(cls, **kwargs) -> "LServeConfig":
        """Dynamic page selection without streaming heads."""
        return cls(streaming_head_ratio=0.0, **kwargs)
