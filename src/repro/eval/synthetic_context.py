"""Synthetic long-context key/query geometry for retrieval evaluation.

The generator produces three ingredients whose interaction drives every
accuracy experiment in the paper:

* **Haystack keys** follow a locality-preserving random walk, so adjacent
  tokens have similar keys — the "semantic continuity of natural language"
  that gives attention its spatial locality (§3.5.3).
* **Distractor spikes**: occasional tokens carry one large coordinate in a
  random channel.  A large page accumulates several spikes in *different*
  channels, so its channel-wise min/max statistics become loose upper bounds
  ("homogenised and less representative", §3.5.2) — this is what breaks
  flat Quest-style selection at big page sizes (Fig. 6).
* **Needle keys** are aligned with the probe query, so their true dot product
  (and hence their Eq. 2 score at fine granularity) stands out.

A retrieval policy answers the needle question iff the tokens it keeps cover
the needle span; recall against the needle positions is the accuracy signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SyntheticContext", "generate_needle_context"]


@dataclass
class SyntheticContext:
    """One synthetic long-context retrieval instance."""

    keys: np.ndarray  # (n_tokens, n_kv_heads, head_dim)
    query: np.ndarray  # (n_heads, head_dim)
    needle_positions: np.ndarray  # token indices holding the needle fact
    depth_fraction: float
    extra_needles: list[np.ndarray] = field(default_factory=list)
    # Unit direction of each needle's keys (primary first, then extras); a
    # query aligned with a needle's direction retrieves that needle.
    needle_directions: list[np.ndarray] = field(default_factory=list)

    @property
    def context_length(self) -> int:
        return int(self.keys.shape[0])

    @property
    def head_dim(self) -> int:
        return int(self.keys.shape[2])

    def needle_recall(self, selected_tokens: np.ndarray, needle_index: int = -1) -> float:
        """Fraction of the needle span covered by ``selected_tokens``.

        ``needle_index`` -1 refers to the primary needle; 0..n-1 to extras.
        """
        positions = (
            self.needle_positions if needle_index < 0 else self.extra_needles[needle_index]
        )
        if positions.size == 0:
            return 1.0
        selected = set(int(t) for t in np.asarray(selected_tokens).ravel())
        hit = sum(1 for p in positions if int(p) in selected)
        return hit / positions.size

    def query_for_needle(self, needle_index: int) -> np.ndarray:
        """A probe query aligned with the given needle (0 = primary needle)."""
        direction = self.needle_directions[needle_index]
        return np.tile(direction[None, :], (self.query.shape[0], 1)) * np.sqrt(self.head_dim)


def _locality_random_walk(
    rng: np.random.Generator, n_tokens: int, n_kv_heads: int, head_dim: int, locality: float
) -> np.ndarray:
    """Keys with spatial locality: a stationary AR(1) process along the token axis."""
    from scipy.signal import lfilter

    noise = rng.normal(size=(n_tokens, n_kv_heads, head_dim))
    if locality <= 0.0:
        return noise
    decay = np.sqrt(max(0.0, 1.0 - locality**2))
    # y[t] = locality * y[t-1] + decay * x[t]  (unit stationary variance)
    keys = lfilter([decay], [1.0, -locality], noise, axis=0)
    keys[0] = noise[0]
    return keys


def _plant_needle(
    keys: np.ndarray,
    rng: np.random.Generator,
    query_direction: np.ndarray,
    start: int,
    length: int,
    strength: float,
) -> np.ndarray:
    """Overwrite ``length`` tokens starting at ``start`` with query-aligned keys."""
    n_tokens, n_kv_heads, head_dim = keys.shape
    end = min(n_tokens, start + length)
    positions = np.arange(start, end)
    for pos in positions:
        jitter = rng.normal(scale=0.05, size=(n_kv_heads, head_dim))
        keys[pos] = strength * query_direction[None, :] + jitter
    return positions


def generate_needle_context(
    context_length: int,
    depth_fraction: float,
    needle_length: int = 32,
    n_kv_heads: int = 1,
    head_dim: int = 64,
    needle_strength: float = 1.5,
    locality: float = 0.85,
    spike_rate: float = 1 / 16,
    spike_magnitude: float = 6.0,
    n_extra_needles: int = 0,
    distinct_extra_directions: bool = False,
    seed: int = 0,
) -> SyntheticContext:
    """Generate a needle-in-a-haystack instance.

    Parameters
    ----------
    context_length:
        Number of haystack tokens.
    depth_fraction:
        Where the needle sits, as a fraction of the context (0 = start, 1 = end).
    needle_strength:
        Alignment of the needle keys with the query; controls how much the
        needle's true attention score exceeds the haystack background.
    spike_rate, spike_magnitude:
        Density and size of single-channel distractor spikes; these determine
        how quickly page-level min/max statistics lose resolution as the page
        size grows.
    n_extra_needles:
        Additional needles (for multi-key RULER tasks), placed uniformly.
    distinct_extra_directions:
        When set, each extra needle gets its own random direction (retrievable
        only by a query aligned with it); otherwise all needles share the
        primary query direction.
    """
    if context_length <= 0:
        raise ValueError("context_length must be positive")
    if not 0.0 <= depth_fraction <= 1.0:
        raise ValueError("depth_fraction must be in [0, 1]")
    if needle_length <= 0 or needle_length > context_length:
        raise ValueError("needle_length must be in [1, context_length]")
    rng = np.random.default_rng(seed)

    keys = _locality_random_walk(rng, context_length, n_kv_heads, head_dim, locality)

    # Distractor spikes: one large coordinate on scattered tokens.
    n_spikes = rng.poisson(spike_rate * context_length)
    if n_spikes:
        spike_tokens = rng.integers(0, context_length, size=n_spikes)
        spike_heads = rng.integers(0, n_kv_heads, size=n_spikes)
        spike_channels = rng.integers(0, head_dim, size=n_spikes)
        keys[spike_tokens, spike_heads, spike_channels] += spike_magnitude * rng.choice(
            [-1.0, 1.0], size=n_spikes
        )

    # Query: positive-ish direction so channel maxima matter for Eq. 2 bounds.
    query_direction = rng.normal(size=head_dim)
    query_direction /= np.linalg.norm(query_direction)
    query = np.tile(query_direction[None, :], (n_kv_heads, 1)) * np.sqrt(head_dim)

    # Primary needle.
    max_start = max(0, context_length - needle_length)
    start = int(round(depth_fraction * max_start))
    needle_positions = _plant_needle(
        keys, rng, query_direction * np.sqrt(head_dim), start, needle_length, needle_strength
    )
    directions = [query_direction]

    extra = []
    for i in range(n_extra_needles):
        extra_start = int(rng.integers(0, max_start + 1))
        if distinct_extra_directions:
            direction = rng.normal(size=head_dim)
            direction /= np.linalg.norm(direction)
        else:
            direction = query_direction
        extra.append(
            _plant_needle(
                keys,
                rng,
                direction * np.sqrt(head_dim),
                extra_start,
                needle_length,
                needle_strength,
            )
        )
        directions.append(direction)

    return SyntheticContext(
        keys=keys,
        query=query,
        needle_positions=needle_positions,
        depth_fraction=depth_fraction,
        extra_needles=extra,
        needle_directions=directions,
    )
