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
  page selector.  The gathered pages are attended whole, the slots past the
  query's context masked: the full kernel with the skipped blocks left out,
  expressed as ordinary attention over a fixed-capacity gathered operand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.flash_reference import BlockAttentionResult, blockwise_attention
from repro.core.streaming import build_prefill_block_masks

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
    sink_tokens: int,
    local_tokens: int,
    q_block: int,
    kv_block: int,
) -> tuple[np.ndarray, PrefillAttentionStats]:
    """Fused prefill attention over dense and streaming heads.

    ``q`` is ``(n_q, n_heads, head_dim)``, ``k``/``v`` are
    ``(n_kv, n_kv_heads, head_dim)`` (GQA supported), and
    ``head_is_streaming`` is a boolean array over *query* heads; streaming
    heads see the ``sink_tokens`` + ``local_tokens`` Λ window in whole
    ``kv_block`` blocks (:func:`~repro.core.streaming.build_prefill_block_masks`).
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
        n_q, n_kv, q_block, kv_block, head_is_streaming, sink_tokens, local_tokens
    )
    result: BlockAttentionResult = blockwise_attention(
        q, k, v, q_block=q_block, kv_block=kv_block, block_mask=block_masks
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
    """Decode attention of a batch of queries over capacity-shaped KV, all KV heads at once.

    ``k``/``v`` are **head-major** ``(batch, n_kv_heads, capacity, head_dim)``
    operands: the whole pages an entry reads.  ``q`` is ``(batch, n_q_heads,
    head_dim)``, one decode query per entry, or ``(batch, rows, n_q_heads,
    head_dim)``, several queries over the same operand (a speculative run's
    rows).  ``lengths`` gives each query, or each query and KV head, the
    number of leading slots it sees, 1 .. ``capacity`` (all by default):
    ``(batch, [rows,] [1 | n_kv_heads])``.  The slots past it get a
    ``-inf`` score, so their finite contents do not reach the output, and
    the softmax sums over the whole capacity.  Returns an array shaped like
    ``q``.

    Batch invariance: every GEMM is one per (entry, head, row) — ``(capacity,
    head_dim) @ (head_dim, group)`` for the scores, ``(group, capacity) @
    (capacity, head_dim)`` for the output — and every reduction runs over the
    capacity axis of one row, so a query's bytes depend on its own operand,
    its length and the capacity, never on the other entries or rows.  The
    capacity, not the visible length, fixes how the sum pairs its terms, so
    callers size an operand by the entry's own state (its pages), never by
    its batchmates'.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.ascontiguousarray(k, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if q.ndim not in (3, 4) or k.ndim != 4 or v.shape != k.shape or not k.shape[2]:
        raise ValueError("bad shapes for decode_batched_attention")
    batch, rows, n_q_heads, head_dim = (q.shape[0], 1, *q.shape[1:]) if q.ndim == 3 else q.shape
    n_kv_heads, capacity = k.shape[1], k.shape[2]
    if k.shape[0] != batch or n_q_heads != n_kv_heads * gqa_group_size:
        raise ValueError(
            f"q heads ({n_q_heads}) must equal kv heads ({n_kv_heads}) x "
            f"group ({gqa_group_size}) over a matching batch"
        )
    # (B, H, R, d, g), C-ordered whatever the batch: the layout picks the BLAS kernel.
    q_t = q.reshape(batch, rows, n_kv_heads, gqa_group_size, head_dim).transpose(0, 2, 1, 4, 3).copy()
    q_t *= 1.0 / np.sqrt(head_dim)
    scores = (k[:, :, None] @ q_t).swapaxes(-1, -2).copy()  # (B, H, R, g, C)
    if lengths is not None:
        spans = np.asarray(lengths).reshape(batch, rows, -1)  # (B, R, 1 | H)
        shortest, longest = np.minimum.reduce(spans, axis=None), np.maximum.reduce(spans, axis=None)
        if shortest < 1 or longest > capacity or spans.shape[2] not in (1, n_kv_heads):
            raise ValueError(f"lengths must give every query 1 .. {capacity} slots, per KV head or for all")
        if shortest == longest:
            scores[..., int(shortest) :] = -np.inf
        else:  # only the slots past the shortest length can be hidden
            hidden = np.arange(shortest, capacity) >= spans.transpose(0, 2, 1)[..., None, None]
            np.copyto(scores[..., int(shortest) :], -np.inf, where=hidden)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return (scores @ v[:, :, None]).transpose(0, 2, 1, 3, 4).reshape(q.shape)


def decode_group_attention(
    q_group: np.ndarray, k_head: np.ndarray, v_head: np.ndarray
) -> np.ndarray:
    """Decode-stage attention of one GQA group over a gathered KV subset.

    ``q_group`` is ``(n_group_heads, head_dim)`` (the query heads sharing one
    KV head), ``k_head``/``v_head`` are ``(n_selected_tokens, head_dim)``.
    Every gathered token is causally visible to the decode query by
    construction, so no mask is applied.  Returns ``(n_group_heads, head_dim)``.
    The tests' reference for :func:`decode_batched_attention` over a visible
    prefix (equal to rounding, not in bytes).
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
