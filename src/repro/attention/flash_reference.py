"""Block-wise masked-softmax attention (FlashAttention-style reference).

This mirrors the *work accounting* of the GPU attention kernel described in
the paper (Fig. 3): a KV block that is masked out at block level is skipped
entirely — it contributes neither compute nor memory traffic — and the number
of visited blocks is returned so callers (and the cost model) can account for
the work actually performed.

Skipping is done by the *iterator*, as in the paper's §3.4, not by gathering
and masking.  K and V are laid out head-major once per call, and the query
heads of a GQA group that share a block-mask pattern are stacked into one
operand against their shared KV head.  For each (pattern, query block) cell
the kept KV blocks are reduced to maximal contiguous **runs**: a single run
(always the case for a dense causal head, ``[0, q_end)``) is a zero-copy
slice of K and V, a multi-run cell (a Λ head's sink run + local run) is one
small concatenate.  Keys up to the cell's first query position are visible to
every row, so the token-level causal triangle is applied only to the columns
past it — the KV blocks the diagonal crosses — and is built from two
``arange``s; no ``n_q × n_kv`` array is ever formed.  The softmax runs in
place in the score buffer (row max, subtract, ``exp``, row sum) and the
``tq × d`` output is normalised instead of the ``tq × ns`` probabilities.  A
full-row softmax over exactly the visited columns equals the sequential
online-softmax accumulation (both are exact re-normalisations); a query row
with nothing visible produces zero output, the ``l == 0`` convention of the
online form.

Bitwise contract: the tile is always one query block, and a cell reads only
its own query rows and its visited columns.  So a query block's output bytes
do not depend on what else is in the call — a page-aligned chunked prefill or
a prefix-cache continuation (``n_q < n_kv``) reproduces single-shot prefill
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.masks import block_causal_mask, num_blocks

__all__ = ["BlockAttentionResult", "blockwise_attention"]

# Below any real score.  Clamping the row max to it keeps the shift finite for
# a row with nothing visible (max = -inf), whose scores then exponentiate to 0.
_ROW_MAX_FLOOR = -1.0e300


@dataclass
class BlockAttentionResult:
    """Output of :func:`blockwise_attention`.

    Attributes
    ----------
    output:
        Attention output, ``(n_q, n_heads, head_dim)``.
    visited_blocks:
        Total number of (head, q_block, kv_block) tiles actually computed.
    total_blocks:
        Number of tiles a dense causal kernel would have computed.
    """

    output: np.ndarray
    visited_blocks: int
    total_blocks: int

    @property
    def block_sparsity(self) -> float:
        """Fraction of causal tiles skipped."""
        if self.total_blocks == 0:
            return 0.0
        return 1.0 - self.visited_blocks / self.total_blocks


def _visited_spans(
    mask_rows: np.ndarray, kv_block: int, n_kv: int
) -> list[list[tuple[int, int]]]:
    """Token spans ``[lo, hi)`` each query block visits, in ascending order.

    ``mask_rows`` is one ``(n_q_blocks, n_kv_blocks)`` block-mask pattern; a
    span is a maximal run of kept KV blocks.
    """
    nqb, nkb = mask_rows.shape
    padded = np.zeros((nqb, nkb + 2), dtype=np.int8)
    padded[:, 1:-1] = mask_rows
    edges = np.diff(padded, axis=1)
    # Row-major order pairs the i-th run start with the i-th run end.
    qb_of, first_block = np.nonzero(edges == 1)
    end_block = np.nonzero(edges == -1)[1]
    lo = first_block * kv_block
    hi = np.minimum(end_block * kv_block, n_kv)
    spans: list[list[tuple[int, int]]] = [[] for _ in range(nqb)]
    for qb, a, b in zip(qb_of.tolist(), lo.tolist(), hi.tolist()):
        spans[qb].append((a, b))
    return spans


def blockwise_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    q_block: int,
    kv_block: int,
    block_mask: np.ndarray | None = None,
    causal: bool = True,
    scale: float | None = None,
) -> BlockAttentionResult:
    """Masked-softmax attention computed block-by-block with block skipping.

    Parameters
    ----------
    q, k, v:
        ``(n_q, n_heads, head_dim)`` queries and ``(n_kv, n_kv_heads, head_dim)``
        keys/values (GQA supported).
    q_block, kv_block:
        Tile sizes ``TQ`` and ``TK`` from the paper. During decoding ``TQ = 1``.
    block_mask:
        Boolean array of shape ``(n_q_blocks, n_kv_blocks)`` or
        ``(n_heads, n_q_blocks, n_kv_blocks)``; ``True`` keeps the tile.  When
        omitted, all causal tiles are computed (dense attention).
    causal:
        Apply token-level causal masking inside retained tiles.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_q, n_heads, head_dim = q.shape
    n_kv, n_kv_heads, _ = k.shape
    if n_kv != v.shape[0]:
        raise ValueError("k and v must have the same number of tokens")
    if n_heads % n_kv_heads != 0:
        raise ValueError(
            f"n_heads ({n_heads}) must be a multiple of n_kv_heads ({n_kv_heads})"
        )
    if causal and n_kv < n_q:
        raise ValueError(f"n_kv ({n_kv}) must be >= n_q ({n_q})")
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)

    nqb = num_blocks(n_q, q_block)
    nkb = num_blocks(n_kv, kv_block)

    if block_mask is None:
        block_mask_h = np.ones((n_heads, nqb, nkb), dtype=bool)
    else:
        block_mask = np.asarray(block_mask, dtype=bool)
        if block_mask.shape == (nqb, nkb):
            block_mask_h = np.broadcast_to(block_mask, (n_heads, nqb, nkb))
        elif block_mask.shape == (n_heads, nqb, nkb):
            block_mask_h = block_mask
        else:
            raise ValueError(
                f"block_mask shape {block_mask.shape} incompatible with "
                f"(heads={n_heads}, q_blocks={nqb}, kv_blocks={nkb})"
            )

    if causal:
        causal_vis = block_causal_mask(n_q, n_kv, q_block, kv_block)
    else:
        causal_vis = np.ones((nqb, nkb), dtype=bool)

    # Work accounting, fully vectorised: a dense causal kernel visits every
    # causally visible tile of every head; the sparse kernel only visits the
    # retained subset.
    effective = block_mask_h & causal_vis[None, :, :]
    total = int(np.count_nonzero(causal_vis)) * n_heads
    visited = int(np.count_nonzero(effective))

    out = np.zeros((n_q, n_heads, head_dim), dtype=np.float64)
    k_heads = np.ascontiguousarray(k.transpose(1, 0, 2))  # (n_kv_heads, n_kv, d)
    v_heads = np.ascontiguousarray(v.transpose(1, 0, 2))
    gqa_group = n_heads // n_kv_heads
    offset = n_kv - n_q  # key position of query row 0

    # Heads with the same block-mask rows visit the same spans (for LServe's
    # prefill masks there are at most two patterns: dense and streaming).
    patterns: dict[bytes, list[int]] = {}
    for h in range(n_heads):
        patterns.setdefault(effective[h].tobytes(), []).append(h)

    for heads in patterns.values():
        spans_of = _visited_spans(effective[heads[0]], kv_block, n_kv)
        widest = max((sum(b - a for a, b in spans) for spans in spans_of), default=0)
        if widest == 0:
            continue
        # The pattern's query heads, stacked per KV head they share.
        by_kv_head: dict[int, list[int]] = {}
        for h in heads:
            by_kv_head.setdefault(h // gqa_group, []).append(h)
        stacks = [
            (q_heads, q[:, q_heads] * scale, k_heads[kv_head], v_heads[kv_head])
            for kv_head, q_heads in by_kv_head.items()
        ]
        score_buf = np.empty(max(map(len, by_kv_head.values())) * q_block * widest)

        for qb, spans in enumerate(spans_of):
            if not spans:
                continue
            q_start = qb * q_block
            q_end = min(q_start + q_block, n_q)
            tq = q_end - q_start
            ns = sum(b - a for a, b in spans)

            hidden = None
            if causal:
                # Keys up to the first row's position are visible to every row;
                # spans ascend, so the rest (the diagonal's KV blocks, to their
                # end) is a suffix of the cell's columns.
                first_pos = offset + q_start
                diagonal = [
                    np.arange(max(a, first_pos + 1), b) for a, b in spans if b > first_pos + 1
                ]
                if diagonal:
                    key_pos = np.concatenate(diagonal)
                    hidden = key_pos[None, :] > np.arange(first_pos, offset + q_end)[:, None]

            for q_heads, q_scaled, k_head, v_head in stacks:
                if len(spans) == 1:
                    a, b = spans[0]
                    k_vis, v_vis = k_head[a:b], v_head[a:b]
                else:
                    k_vis = np.concatenate([k_head[a:b] for a, b in spans])
                    v_vis = np.concatenate([v_head[a:b] for a, b in spans])
                g = len(q_heads)
                q_tile = q_scaled[q_start:q_end].transpose(1, 0, 2).reshape(g * tq, head_dim)
                scores = score_buf[: g * tq * ns].reshape(g * tq, ns)
                np.matmul(q_tile, k_vis.T, out=scores)
                if hidden is not None:
                    diag_scores = scores.reshape(g, tq, ns)[:, :, ns - hidden.shape[1] :]
                    np.copyto(diag_scores, -np.inf, where=hidden)

                row_max = scores.max(axis=-1, keepdims=True)
                np.maximum(row_max, _ROW_MAX_FLOOR, out=row_max)
                np.subtract(scores, row_max, out=scores)
                np.exp(scores, out=scores)
                row_sum = scores.sum(axis=-1, keepdims=True)
                # A visible row sums to >= exp(0) = 1; an empty one to 0, and
                # its output is already 0.
                np.maximum(row_sum, 1.0, out=row_sum)
                tile_out = scores @ v_vis
                tile_out /= row_sum
                out[q_start:q_end, q_heads] = tile_out.reshape(g, tq, head_dim).transpose(1, 0, 2)

    return BlockAttentionResult(output=out, visited_blocks=visited, total_blocks=total)
