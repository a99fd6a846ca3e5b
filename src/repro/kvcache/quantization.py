"""The low-bit page pool's record codec (QServe-style KV4 / KV8).

Asymmetric per-group integer quantization: each (token, head) group of
``head_dim`` values gets its own scale and zero point, stored right after its
codes — the paper's page layout, where "scaling factors and zero points [are]
stored immediately after the token features" (Fig. 5).  A ``bits``-wide
:class:`~repro.kvcache.paged_cache.PagedKVCache` below 16 bits holds
:func:`record_dtype` records: :func:`encode` writes them, :func:`decode`
reads the values back.  A 16-bit pool holds raw ``float64``, which both pass
through.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SUPPORTED_BITS", "record_dtype", "encode", "decode"]

SUPPORTED_BITS = (4, 8, 16)


@functools.cache
def record_dtype(head_dim: int) -> np.dtype:
    """One (token, head) of a low-bit pool: ``head_dim`` one-byte codes, then its scale and zero.

    Built once per ``head_dim``: every KV write asks for it.
    """
    return np.dtype([("codes", np.uint8, (head_dim,)), ("scale", np.float64), ("zero", np.float64)])


def encode(x: np.ndarray, bits: int) -> np.ndarray:
    """What a ``bits``-wide pool keeps of float64 rows ``x`` (``(..., head_dim)``).

    ``x`` itself at 16 bits; below, ``x.shape[:-1]`` records of
    :func:`record_dtype`: each group's zero is its minimum, its scale the
    range over ``2**bits - 1`` (KV4 codes take a byte each).
    """
    if bits == 16:
        return x
    qmax = (1 << bits) - 1
    zero = x.min(axis=-1, keepdims=True)
    scale = x.max(axis=-1, keepdims=True)
    scale -= zero
    scale /= qmax
    # Guard constant groups: any positive scale works since codes become 0.
    scale[scale <= 0.0] = 1.0
    codes = x - zero
    codes /= scale
    np.rint(codes, out=codes)
    np.clip(codes, 0, qmax, out=codes)
    rows = np.empty(x.shape[:-1], record_dtype(x.shape[-1]))
    rows["codes"], rows["scale"], rows["zero"] = codes, scale[..., 0], zero[..., 0]
    return rows


def decode(rows: np.ndarray, bits: int) -> np.ndarray:
    """The float64 values of rows a ``bits``-wide pool keeps.

    ``rows`` itself at 16 bits; below, ``codes * scale + zero`` in one fresh
    array: bit for bit the one-pass round trip the tests check it against.
    """
    if bits == 16:
        return rows
    out = rows["codes"].astype(np.float64)
    out *= rows["scale"][..., None]
    out += rows["zero"][..., None]
    return out
