"""Streaming-head static sparsity (paper §3.1, Fig. 4(c)).

Half of the attention heads are converted into *streaming heads* whose
attention mask is Λ-shaped: every query attends only to the attention-sink
tokens at the start of the sequence and to a local window of recent tokens.
Because the pattern is input-independent it is fixed offline and costs a
constant number of KV blocks per query regardless of context length.  The
window's sizes are :class:`~repro.core.config.LServeConfig`'s
``sink_tokens`` and ``local_tokens``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.masks import block_causal_mask, block_streaming_mask

__all__ = ["expand_kv_head_mask", "build_prefill_block_masks"]


def expand_kv_head_mask(kv_head_mask: np.ndarray, gqa_group_size: int) -> np.ndarray:
    """Expand a per-KV-head boolean mask to query-head granularity.

    LServe (following DuoAttention on GQA models) classifies whole GQA groups,
    so all query heads sharing a KV head inherit its streaming/dense label.
    """
    mask = np.asarray(kv_head_mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("kv_head_mask must be 1-D")
    if gqa_group_size <= 0:
        raise ValueError("gqa_group_size must be positive")
    return np.repeat(mask, gqa_group_size)


def build_prefill_block_masks(
    n_q: int,
    n_kv: int,
    q_block: int,
    kv_block: int,
    head_is_streaming: np.ndarray,
    sink_tokens: int,
    local_tokens: int,
) -> np.ndarray:
    """Per-head block masks for the fused prefill kernel.

    Dense (retrieval) heads get the full causal block mask; streaming heads get
    the Λ-shaped block mask: the KV blocks that hold the first ``sink_tokens``
    tokens, and the ``local_tokens`` window rounded up to whole blocks (at
    least the diagonal block).  Returns a boolean array of shape
    ``(n_heads, n_q_blocks, n_kv_blocks)`` suitable for
    :func:`repro.attention.flash_reference.blockwise_attention`.
    """
    head_is_streaming = np.asarray(head_is_streaming, dtype=bool)
    if head_is_streaming.ndim != 1:
        raise ValueError("head_is_streaming must be a 1-D boolean array")
    n_heads = head_is_streaming.shape[0]
    causal = block_causal_mask(n_q, n_kv, q_block, kv_block)
    stream = block_streaming_mask(
        n_q,
        n_kv,
        q_block,
        kv_block,
        sink_blocks=-(-sink_tokens // kv_block),
        local_blocks=max(1, -(-local_tokens // kv_block)),
    )
    masks = np.empty((n_heads, *causal.shape), dtype=bool)
    masks[~head_is_streaming] = causal
    masks[head_is_streaming] = stream
    return masks
