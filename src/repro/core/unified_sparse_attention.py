"""Unified block-sparse attention for prefilling and decoding (paper §3.1).

Both stages share one formulation: attention is computed tile by tile
(``TQ × TK``), and a tile is either fully computed or fully skipped.

* **Prefilling** (``TQ = q_block_size``): dense (retrieval) heads use the full
  causal block mask, streaming heads use the Λ-shaped block mask; both are
  fused into a single call to the block-wise kernel, whose iterator walks
  only the kept tiles (§3.4).  A continuation chunk (``n_q < n_kv``: chunked
  prefill, prefix-cache attach) goes through the same call and reproduces
  the bytes of single-shot prefill at aligned boundaries.
* **Decoding** (``TQ = 1``): streaming heads attend over the constant-size
  sink+local store, dense heads attend over the physical pages chosen by the
  page selector.  Computing softmax over exactly the gathered tokens is
  numerically identical to running the full kernel with skipped blocks, so the
  decode path is expressed as ordinary attention over gathered subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.flash_reference import BlockAttentionResult, blockwise_attention
from repro.core.streaming import StreamingConfig, build_prefill_block_masks

__all__ = [
    "PrefillAttentionStats",
    "prefill_sparse_attention",
    "decode_group_attention",
    "decode_batched_attention",
]


@dataclass
class PrefillAttentionStats:
    """Work accounting for one fused prefill attention call."""

    visited_blocks: int
    total_blocks: int

    @property
    def sparsity(self) -> float:
        if self.total_blocks == 0:
            return 0.0
        return 1.0 - self.visited_blocks / self.total_blocks

    @property
    def theoretical_speedup(self) -> float:
        return 1.0 / max(1e-12, 1.0 - self.sparsity)


def prefill_sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    head_is_streaming: np.ndarray,
    streaming: StreamingConfig,
    q_block: int,
    kv_block: int,
) -> tuple[np.ndarray, PrefillAttentionStats]:
    """Fused prefill attention over dense and streaming heads.

    ``q`` is ``(n_q, n_heads, head_dim)``, ``k``/``v`` are
    ``(n_kv, n_kv_heads, head_dim)`` (GQA supported), and
    ``head_is_streaming`` is a boolean array over *query* heads.
    Returns ``(output, stats)``.
    """
    q = np.asarray(q, dtype=np.float64)
    head_is_streaming = np.asarray(head_is_streaming, dtype=bool)
    if head_is_streaming.shape != (q.shape[1],):
        raise ValueError(
            f"head_is_streaming must have shape ({q.shape[1]},), got {head_is_streaming.shape}"
        )
    n_q, _, _ = q.shape
    n_kv = np.asarray(k).shape[0]
    block_masks = build_prefill_block_masks(
        n_q, n_kv, q_block, kv_block, head_is_streaming, streaming
    )
    result: BlockAttentionResult = blockwise_attention(
        q, k, v, q_block=q_block, kv_block=kv_block, block_mask=block_masks, causal=True
    )
    stats = PrefillAttentionStats(
        visited_blocks=result.visited_blocks, total_blocks=result.total_blocks
    )
    return result.output, stats


def decode_batched_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    gqa_group_size: int = 1,
    lengths: np.ndarray | list[int] | None = None,
) -> np.ndarray:
    """Decode attention for a batch of sequences over all their KV heads at once.

    ``q`` is ``(batch, n_q_heads, head_dim)`` (one decode query per sequence);
    ``k``/``v`` are **head-major** gathered KV subsets of shape
    ``(batch, n_kv_heads, n_tokens, head_dim)`` — every sequence in the batch
    must have gathered the same number of tokens per head (callers group
    sequences by shape first).  Every gathered token is causally visible to
    the decode query by construction, so no mask is applied.  Returns
    ``(batch, n_q_heads, head_dim)``.

    The whole computation is expressed as stacked matmuls and per-row
    reductions over the last axis, so each sequence's slice is bitwise
    independent of the batch composition: decoding a sequence alone or inside
    any batch produces byte-identical output (padding across sequences would
    change numpy's pairwise-summation grouping and break this, which is why
    callers group by shape instead of padding).

    With ``lengths``, ``q`` is ``(batch, rows, n_q_heads, head_dim)``: several
    decode queries per sequence over the same gathered KV, query row ``r``
    seeing only the first ``lengths[r]`` tokens (a speculative chunk's rows
    over one selection, each a token longer than the one before).  Returns
    ``(batch, rows, n_q_heads, head_dim)``, row ``r`` byte-identical to the
    call without ``lengths`` over ``k[:, :, :lengths[r]]``: the rows share
    the call and the gathered operands, and every GEMM and reduction runs
    per row over exactly its visible prefix.  A softmax sum over a
    zero-padded row pairs numpy's terms differently, and this BLAS picks
    its GEMM kernel by shape — a GEMV for a one-row group, other kernels
    past a size, and remainder tiles at ``head_dim`` 32 that round a few
    entries apart — so neither a padded sum nor a padded or row-stacked
    GEMM keeps every row's bytes.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != (3 if lengths is None else 4) or k.ndim != 4 or v.shape != k.shape:
        raise ValueError("bad shapes for decode_batched_attention")
    batch, n_q_heads, head_dim = q.shape[0], q.shape[-2], q.shape[-1]
    n_kv_heads, n_tokens = k.shape[1], k.shape[2]
    if k.shape[0] != batch or n_q_heads != n_kv_heads * gqa_group_size:
        raise ValueError(
            f"q heads ({n_q_heads}) must equal kv heads ({n_kv_heads}) x "
            f"group ({gqa_group_size}) over a matching batch"
        )
    scale = 1.0 / np.sqrt(head_dim)
    k_t = k.transpose(0, 1, 3, 2)
    if lengths is None:
        if n_tokens == 0:
            return np.zeros_like(q)
        q_g = q.reshape(batch, n_kv_heads, gqa_group_size, head_dim)
        scores = (q_g @ k_t) * scale  # (B, H, g, T)
        shift = scores.max(axis=-1, keepdims=True)
        p = np.exp(scores - shift)
        denom = p.sum(axis=-1, keepdims=True)
        out = (p / denom) @ v  # (B, H, g, d)
        return out.reshape(batch, n_q_heads, head_dim)

    lengths = [int(n) for n in lengths]
    rows = q.shape[1]
    if len(lengths) != rows or min(lengths, default=1) < 1 or max(lengths, default=0) > n_tokens:
        raise ValueError(f"lengths must give each of the {rows} rows 1 .. {n_tokens} tokens")
    q_g = q.reshape(batch, rows, n_kv_heads, gqa_group_size, head_dim)
    out = np.empty((batch, rows, n_kv_heads, gqa_group_size, head_dim))
    for r, n in enumerate(lengths):
        scores = (q_g[:, r] @ k_t[:, :, :, :n]) * scale
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out[:, r] = (p / p.sum(axis=-1, keepdims=True)) @ v[:, :, :n]
    return out.reshape(batch, rows, n_q_heads, head_dim)


def decode_group_attention(
    q_group: np.ndarray, k_head: np.ndarray, v_head: np.ndarray
) -> np.ndarray:
    """Decode-stage attention of one GQA group over a gathered KV subset.

    ``q_group`` is ``(n_group_heads, head_dim)`` (the query heads sharing one
    KV head), ``k_head``/``v_head`` are ``(n_selected_tokens, head_dim)``.
    Every gathered token is causally visible to the decode query by
    construction, so no mask is applied.  Returns ``(n_group_heads, head_dim)``.
    """
    q_group = np.asarray(q_group, dtype=np.float64)
    k_head = np.asarray(k_head, dtype=np.float64)
    v_head = np.asarray(v_head, dtype=np.float64)
    if q_group.ndim != 2 or k_head.ndim != 2 or v_head.shape != k_head.shape:
        raise ValueError("bad shapes for decode_group_attention")
    if k_head.shape[0] == 0:
        return np.zeros_like(q_group)
    out = dense_attention(
        q_group[None, :, :],  # (1, n_group_heads, head_dim)
        k_head[:, None, :],  # (n_sel, 1, head_dim)
        v_head[:, None, :],
        causal=False,
    )
    return out[0]
