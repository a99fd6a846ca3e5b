"""Dense multi-head / grouped-query attention reference implementation.

This is the "gold standard" against which the block-sparse kernels are tested:
slow, simple, and vectorised with NumPy.  Shapes follow the convention used
throughout the repository:

* queries ``q``: ``(n_q, n_heads, head_dim)``
* keys/values ``k``, ``v``: ``(n_kv, n_kv_heads, head_dim)``
* token-level mask: ``(n_q, n_kv)`` or ``(n_heads, n_q, n_kv)`` boolean,
  ``True`` = attend.
"""

from __future__ import annotations

import numpy as np

from repro.attention.masks import causal_mask
from repro.attention.softmax import NEG_INF, softmax

__all__ = ["repeat_kv", "attention_weights", "dense_attention"]


def repeat_kv(kv: np.ndarray, n_heads: int) -> np.ndarray:
    """Expand ``(n_kv, n_kv_heads, head_dim)`` KV tensors to ``n_heads`` heads.

    Implements GQA head sharing: each KV head serves ``n_heads // n_kv_heads``
    query heads.  For MHA (``n_kv_heads == n_heads``) this is the identity.
    """
    n_tokens, n_kv_heads, head_dim = kv.shape
    if n_heads % n_kv_heads != 0:
        raise ValueError(
            f"n_heads ({n_heads}) must be a multiple of n_kv_heads ({n_kv_heads})"
        )
    group = n_heads // n_kv_heads
    if group == 1:
        return kv
    return np.repeat(kv, group, axis=1).reshape(n_tokens, n_heads, head_dim)


def _prepare_mask(
    mask: np.ndarray | None, n_heads: int, n_q: int, n_kv: int, causal: bool
) -> np.ndarray:
    if mask is None:
        mask = causal_mask(n_q, n_kv) if causal else np.ones((n_q, n_kv), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape == (n_q, n_kv):
        mask = np.broadcast_to(mask, (n_heads, n_q, n_kv))
    elif mask.shape != (n_heads, n_q, n_kv):
        raise ValueError(
            f"mask shape {mask.shape} incompatible with (heads={n_heads}, "
            f"n_q={n_q}, n_kv={n_kv})"
        )
    return mask


def attention_weights(
    q: np.ndarray,
    k: np.ndarray,
    mask: np.ndarray | None = None,
    causal: bool = True,
    scale: float | None = None,
) -> np.ndarray:
    """Softmax attention probabilities of shape ``(n_heads, n_q, n_kv)``."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    n_q, n_heads, head_dim = q.shape
    n_kv = k.shape[0]
    k_full = repeat_kv(k, n_heads)
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    # scores[h, i, j] = q[i, h, :] . k[j, h, :]
    scores = np.einsum("ihd,jhd->hij", q, k_full) * scale
    full_mask = _prepare_mask(mask, n_heads, n_q, n_kv, causal)
    scores = np.where(full_mask, scores, NEG_INF)
    return softmax(scores, axis=-1)


def dense_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    causal: bool = True,
) -> np.ndarray:
    """Dense scaled-dot-product attention with GQA support.

    Returns the attention output of shape ``(n_q, n_heads, head_dim)``.
    Fully-masked query rows produce zero outputs.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if k.shape != v.shape:
        raise ValueError(f"k and v must share a shape, got {k.shape} vs {v.shape}")
    n_q, n_heads, _ = q.shape
    probs = attention_weights(q, k, mask=mask, causal=causal)
    v_full = repeat_kv(v, n_heads)
    out = np.einsum("hij,jhd->ihd", probs, v_full)
    return out
