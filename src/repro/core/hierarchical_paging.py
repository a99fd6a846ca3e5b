"""Hierarchical paging and query-centric page importance (paper §3.5.2, Fig. 7).

Dynamic sparsity in LServe works at two granularities:

* *Logical pages* of ``NL`` tokens carry the channel-wise min/max key
  statistics used to estimate importance.  Keeping ``NL`` small (16) keeps the
  statistics representative.
* *Physical pages* of ``NP = g · NL`` tokens are the unit of memory layout and
  of attention computation (large pages keep the GPU memory bandwidth busy and
  play well with KV quantization).

The importance of a logical page for the current query is the Quest-style
upper bound on the query–key dot products it can contain (Eq. 2):

``S_j = Σ_i max(q_i · kmax_{j,i}, q_i · kmin_{j,i})``

and a physical page inherits the maximum of its logical pages' scores.  The
top-K physical pages under the token budget are selected, with the sink and
most recent (local) pages always retained.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "logical_page_scores",
    "physical_page_scores",
    "select_top_pages",
]


def logical_page_scores(
    query: np.ndarray,
    kmin: np.ndarray,
    kmax: np.ndarray,
    gqa_group_size: int = 1,
) -> np.ndarray:
    """Per-KV-head, per-logical-page importance scores (Eq. 2).

    Every argument may carry one leading batch axis (a group of sequences
    with equal logical-page counts scored in one stacked GEMM); each
    sequence's scores are bitwise those of scoring it alone.

    Parameters
    ----------
    query:
        Current decode query, shape ``([batch,] n_heads, head_dim)``.
    kmin, kmax:
        Per-logical-page key statistics, shape
        ``([batch,] n_logical_pages, n_kv_heads, head_dim)``, with
        ``kmax >= kmin`` in every channel (a page's key minimum and maximum).
    gqa_group_size:
        Number of query heads per KV head; the score of a KV head's page is the
        maximum over the query heads in its group (the page only needs to be
        important for one of them to be worth keeping).

    Returns
    -------
    Scores of shape ``([batch,] n_kv_heads, n_logical_pages)``.
    """
    query = np.asarray(query, dtype=np.float64)
    kmin = np.asarray(kmin, dtype=np.float64)
    kmax = np.asarray(kmax, dtype=np.float64)
    if query.ndim not in (2, 3):
        raise ValueError(f"query must be ([batch,] n_heads, head_dim), got {query.shape}")
    if kmin.shape != kmax.shape or kmin.ndim != query.ndim + 1:
        raise ValueError(
            "kmin/kmax must both be ([batch,] n_logical_pages, n_kv_heads, head_dim)"
        )
    n_heads, head_dim = query.shape[-2:]
    n_pages, n_kv_heads, stat_dim = kmin.shape[-3:]
    if stat_dim != head_dim:
        raise ValueError("head_dim mismatch between query and key stats")
    if n_heads != n_kv_heads * gqa_group_size:
        raise ValueError(
            f"n_heads ({n_heads}) must equal n_kv_heads ({n_kv_heads}) * "
            f"gqa_group_size ({gqa_group_size})"
        )
    batch = query.shape[:-2]
    if n_pages == 0:
        return np.zeros((*batch, n_kv_heads, 0))

    # Per channel, max(q·kmax, q·kmin) = q⁺·kmax + q⁻·kmin because kmax ≥
    # kmin, so Eq. 2 for every query head of a group and every page is one
    # GEMM per (sequence, KV head): [q⁺ | q⁻] @ [kmax | kmin]ᵀ.  Each matrix
    # of the stacked matmul is its own BLAS call, so a sequence's scores do
    # not depend on its batchmates.
    q_grouped = query.reshape(*batch, n_kv_heads, gqa_group_size, head_dim)
    q_split = np.concatenate([np.maximum(q_grouped, 0.0), np.minimum(q_grouped, 0.0)], axis=-1)
    stats = np.concatenate([kmax, kmin], axis=-1).swapaxes(-3, -2)  # (..., n_kv_heads, n_pages, 2d)
    scores = np.matmul(q_split, stats.swapaxes(-1, -2))  # (..., n_kv_heads, group, n_pages)
    return scores[..., 0, :] if gqa_group_size == 1 else scores.max(axis=-2)


def physical_page_scores(
    logical_scores: np.ndarray, logical_pages_per_physical: int
) -> np.ndarray:
    """Max-reduce logical-page scores onto their physical pages.

    ``logical_scores`` has shape ``(..., n_kv_heads, n_logical_pages)``; the
    result has shape ``(..., n_kv_heads, n_physical_pages)`` where the last
    physical page may cover fewer logical pages.
    """
    scores = np.asarray(logical_scores, dtype=np.float64)
    if scores.ndim < 2:
        raise ValueError("logical_scores must be (..., n_kv_heads, n_logical_pages)")
    if logical_pages_per_physical <= 0:
        raise ValueError("logical_pages_per_physical must be positive")
    n_logical = scores.shape[-1]
    # Logical page j of every physical page is the strided view j::lpp; a
    # partial trailing physical page misses the last views' final element.
    out = scores[..., ::logical_pages_per_physical].copy()
    for j in range(1, min(logical_pages_per_physical, n_logical)):
        view = scores[..., j::logical_pages_per_physical]
        np.maximum(out[..., : view.shape[-1]], view, out=out[..., : view.shape[-1]])
    return out


def select_top_pages(
    phys_scores: np.ndarray,
    budget_pages: int,
    sink_pages: int = 1,
    local_pages: int = 1,
) -> np.ndarray:
    """Select the top-K physical pages per KV head under the page budget.

    The sink pages (oldest) and local pages (newest) are always included and
    count against the budget; the remaining slots go to the highest-scoring
    pages, ties to the older page.  ``phys_scores`` is
    ``(..., n_kv_heads, n_physical_pages)``; returns the sorted selected page
    positions of every head as one ``(..., n_kv_heads, n_selected)`` matrix
    (every head keeps ``min(n_physical_pages, budget_pages)`` pages).
    """
    scores = np.asarray(phys_scores, dtype=np.float64)
    if scores.ndim < 2:
        raise ValueError("phys_scores must be (..., n_kv_heads, n_physical_pages)")
    if budget_pages <= 0:
        raise ValueError("budget_pages must be positive")
    if sink_pages < 0 or local_pages < 0:
        raise ValueError("sink_pages and local_pages must be non-negative")
    n_pages = scores.shape[-1]
    if n_pages <= budget_pages:
        return np.broadcast_to(np.arange(n_pages), scores.shape).copy()
    always = np.zeros(n_pages, dtype=bool)
    always[:sink_pages] = True
    always[max(0, n_pages - local_pages) :] = True
    if always.sum() <= budget_pages:
        # A stable sort of the negated scores ranks the always-kept pages
        # first, then candidates by score with ties in page order.
        ranked = np.argsort(-np.where(always, np.inf, scores), axis=-1, kind="stable")
        return np.sort(ranked[..., :budget_pages], axis=-1)
    # Tiny budgets (sink + local alone exceed it): keep the newest page and
    # the highest-scoring of the other always-kept pages, per head.
    keep_last = n_pages - 1
    rows = []
    for head_scores in scores.reshape(-1, n_pages):
        others = [p for p in np.flatnonzero(always).tolist() if p != keep_last]
        others.sort(key=lambda p: head_scores[p], reverse=True)
        rows.append(sorted(others[: budget_pages - 1] + [keep_last]))
    return np.asarray(rows, dtype=np.int64).reshape(*scores.shape[:-1], budget_pages)
