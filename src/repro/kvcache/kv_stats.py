"""Per-logical-page key statistics (``K_stats`` in the paper, Fig. 5/7).

For every logical page of the KV cache, LServe keeps the channel-wise minimum
and maximum of the keys it contains.  These two representative vectors are
what the query-centric importance score (Eq. 2) is computed against, so the
page selector never has to touch the full key data.  The paged pool folds
them as rows arrive; :func:`compute_page_key_stats` computes them at once
over raw keys, the form the accuracy harnesses and the tests' oracles use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compute_page_key_stats"]


def compute_page_key_stats(keys: np.ndarray, logical_page_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise ``(kmin, kmax)`` of every logical page of ``keys``.

    ``keys`` is ``(n_tokens, n_kv_heads, head_dim)``; both results are
    ``(n_logical_pages, n_kv_heads, head_dim)``, the shape the page selector
    scores.  A trailing page may be partial.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 3:
        raise ValueError(f"keys must be (n_tokens, n_kv_heads, head_dim), got {keys.shape}")
    if logical_page_size <= 0:
        raise ValueError("logical_page_size must be positive")
    if keys.shape[0] == 0:
        return keys.copy(), keys.copy()
    starts = np.arange(0, keys.shape[0], logical_page_size)
    return np.minimum.reduceat(keys, starts, axis=0), np.maximum.reduceat(keys, starts, axis=0)
