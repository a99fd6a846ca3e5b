"""Rotary position embeddings (RoPE) with linear context-extension scaling.

The long-context Llama-3-8B checkpoint the paper evaluates (Gradient) extends
the context window by scaling rotary frequencies; we expose the same knob via
``scaling_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RotaryEmbedding", "apply_rope"]


@dataclass(frozen=True)
class RotaryEmbedding:
    """Precomputed rotary embedding table.

    Parameters
    ----------
    head_dim:
        Dimension of each attention head (must be even).
    base:
        RoPE frequency base (``theta``), 10_000 for Llama-2, 500_000 for Llama-3.
    scaling_factor:
        Linear position-interpolation factor used for context extension.
    """

    head_dim: int
    base: float = 10_000.0
    scaling_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {self.head_dim}")
        if self.base <= 0 or self.scaling_factor <= 0:
            raise ValueError("base and scaling_factor must be positive")

    def frequencies(self) -> np.ndarray:
        """Per-pair inverse frequencies, shape ``(head_dim // 2,)``."""
        half = self.head_dim // 2
        return 1.0 / (self.base ** (np.arange(half, dtype=np.float64) / half))

    def cos_sin(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine tables for integer ``positions``.

        Returns arrays of shape ``(len(positions), head_dim // 2)``.
        """
        positions = np.asarray(positions, dtype=np.float64) / self.scaling_factor
        angles = positions[:, None] * self.frequencies()[None, :]
        return np.cos(angles), np.sin(angles)

    def rotate(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Apply the rotation to ``x`` of shape ``(n_tokens, n_heads, head_dim)``."""
        return apply_rope(x, positions, self)


def apply_rope(
    x: np.ndarray,
    positions: np.ndarray,
    rope: RotaryEmbedding,
    cos_sin: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Rotate query/key vectors by their positions.

    ``x`` has shape ``(n_tokens, n_heads, head_dim)``; the first and second
    halves of the head dimension form the rotation pairs (Llama convention).
    ``cos_sin`` is ``rope.cos_sin(positions)`` when the caller already built
    it (one forward rotates every layer's q and k by the same positions).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (n_tokens, n_heads, head_dim), got shape {x.shape}")
    n_tokens, _, head_dim = x.shape
    if head_dim != rope.head_dim:
        raise ValueError(f"head_dim mismatch: x has {head_dim}, rope has {rope.head_dim}")
    positions = np.asarray(positions)
    if positions.shape != (n_tokens,):
        raise ValueError(
            f"positions must have shape ({n_tokens},), got {positions.shape}"
        )
    cos, sin = rope.cos_sin(positions) if cos_sin is None else cos_sin  # (n_tokens, head_dim // 2)
    cos = cos[:, None, :]
    sin = sin[:, None, :]
    half = head_dim // 2
    x1, x2 = x[..., :half], x[..., half:]
    rotated = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    return rotated
