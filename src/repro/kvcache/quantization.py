"""Low-bit KV-cache quantization (QServe-style KV4 / KV8).

Asymmetric per-group integer quantization: each group of values (by default a
single token's head_dim-sized vector, per head) gets its own scale and zero
point, stored alongside the codes — matching the paper's page layout where
"scaling factors and zero points [are] stored immediately after the token
features" (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "fake_quantize",
    "quantization_error_bound",
    "SUPPORTED_BITS",
]

SUPPORTED_BITS = (4, 8, 16)


@dataclass
class QuantizedTensor:
    """Integer codes plus per-group scale/zero-point.

    ``codes`` has the same shape as the original tensor; ``scale`` and ``zero``
    have that shape with the last axis reduced to 1.  ``bits == 16`` stores the
    original floating-point data unmodified (``scale``/``zero`` unused).
    """

    codes: np.ndarray
    scale: np.ndarray
    zero: np.ndarray
    bits: int
    original_dtype: np.dtype = np.dtype(np.float64)

    def nbytes_model(self) -> float:
        """Modelled storage cost in bytes (codes at ``bits`` each + fp16 scale/zero)."""
        if self.bits == 16:
            return self.codes.size * 2.0
        return self.codes.size * self.bits / 8.0 + (self.scale.size + self.zero.size) * 2.0


def _check_bits(bits: int) -> None:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")


def quantize(x: np.ndarray, bits: int, group_axis: int = -1) -> QuantizedTensor:
    """Asymmetric uniform quantization of ``x`` with one scale/zero per group.

    A *group* is a slice along ``group_axis`` (default: the last axis, i.e.
    per-token-per-head groups when ``x`` is ``(..., head_dim)``).
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 16:
        return QuantizedTensor(
            codes=x.copy(), scale=np.ones_like(x.sum(axis=group_axis, keepdims=True)),
            zero=np.zeros_like(x.sum(axis=group_axis, keepdims=True)), bits=16,
        )
    qmax = (1 << bits) - 1
    zero = x.min(axis=group_axis, keepdims=True)
    scale = x.max(axis=group_axis, keepdims=True)
    scale -= zero
    scale /= qmax
    # Guard constant groups: any positive scale works since codes become 0.
    scale[scale <= 0.0] = 1.0
    codes = x - zero
    codes /= scale
    np.rint(codes, out=codes)
    np.clip(codes, 0, qmax, out=codes)
    return QuantizedTensor(codes=codes.astype(np.uint8), scale=scale, zero=zero, bits=bits)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the floating-point tensor from a :class:`QuantizedTensor`.

    ``codes * scale + zero`` in one fresh array (the expression
    :func:`fake_quantize` writes, bit for bit); ``scale`` and ``zero``
    broadcast against ``codes``.
    """
    if qt.bits == 16:
        return np.asarray(qt.codes, dtype=np.float64).copy()
    out = qt.codes.astype(np.float64)
    out *= qt.scale
    out += qt.zero
    return out


def fake_quantize(x: np.ndarray, bits: int, group_axis: int = -1) -> np.ndarray:
    """``dequantize(quantize(x, bits, group_axis))`` in one pass, bit for bit.

    What a low-bit store hands back for ``x``.  One fresh array carries the
    whole round trip in place — ``x - zero``, ``/= scale``, ``rint``, ``clip``,
    ``*= scale``, ``+= zero`` — with no ``uint8`` codes: every code is a whole
    number in ``[0, 2**bits - 1]`` (``x - min`` is ``+0`` or more), so the
    integer cast is exact and the bytes equal the two-step form.  ``x`` itself
    is not written; ``bits == 16`` returns a float64 copy.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 16:
        return x.copy()
    zero = x.min(axis=group_axis, keepdims=True)
    scale = x.max(axis=group_axis, keepdims=True)
    scale -= zero
    scale /= (1 << bits) - 1
    # Guard constant groups, as quantize does.
    scale[scale <= 0.0] = 1.0
    out = x - zero
    out /= scale
    np.rint(out, out=out)
    np.clip(out, 0, (1 << bits) - 1, out=out)
    out *= scale
    out += zero
    return out


def quantization_error_bound(x: np.ndarray, bits: int, group_axis: int = -1) -> np.ndarray:
    """Worst-case absolute reconstruction error per group: ``scale / 2``."""
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 16:
        return np.zeros_like(x.max(axis=group_axis, keepdims=True))
    qmax = (1 << bits) - 1
    spread = x.max(axis=group_axis, keepdims=True) - x.min(axis=group_axis, keepdims=True)
    return spread / qmax / 2.0
