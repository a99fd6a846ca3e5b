"""Numerically stable softmax helpers used across the attention stack."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "NEG_INF"]

# Finite stand-in for -inf used when masking attention scores.  Using a finite
# value keeps ``exp`` well-defined for rows that are entirely masked (e.g. a
# fully skipped KV block), where the convention is a uniform / zero output.
NEG_INF = -1.0e30


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows whose entries are all masked to ``NEG_INF`` (or smaller) return an
    all-zero row instead of NaN, matching the behaviour of attention kernels
    that skip fully-masked rows.
    """
    x = np.asarray(x, dtype=np.float64)
    x_max = np.max(x, axis=axis, keepdims=True)
    # Guard fully-masked rows: keep the shift finite.
    x_max = np.where(np.isfinite(x_max), x_max, 0.0)
    shifted = x - x_max
    # Anything at or below NEG_INF contributes exactly zero.
    shifted = np.where(x <= NEG_INF, -np.inf, shifted)
    exp = np.exp(shifted)
    denom = np.sum(exp, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, exp / np.where(denom == 0.0, 1.0, denom), 0.0)
    return out
