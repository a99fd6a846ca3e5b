"""Sampling parameters and the token-sampling kernel of the serving front door.

:class:`SamplingParams` is the per-request generation policy accepted by
:class:`~repro.serving.engine.ServingEngine` and by
:meth:`repro.core.engine.LServeEngine.generate`: greedy decoding (the default),
temperature sampling with an optional top-k filter, and EOS / stop-token
handling.  :func:`sample_token` turns one logits vector into the next token id
under those parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SamplingParams", "sample_token"]


@dataclass(frozen=True)
class SamplingParams:
    """How to turn logits into tokens for one request.

    Parameters
    ----------
    temperature:
        ``0.0`` (the default) means greedy argmax decoding; positive values
        divide the logits before the softmax.
    top_k:
        When set, sampling is restricted to the ``top_k`` highest-logit
        tokens.  Ignored under greedy decoding.
    stop_token_ids:
        Token ids (e.g. the tokenizer's EOS id) that terminate generation.
        The stop token itself is kept in the output, matching common serving
        engines.
    seed:
        Non-negative seed of the per-request random generator used for
        temperature sampling, so traces are reproducible.
    speculation_k:
        Draft tokens proposed per decode step when the serving engine has a
        :class:`~repro.serving.speculative.DraftSource` attached.  ``0`` (the
        default) disables speculation for the request.  Speculation never
        changes outputs — accepted tokens are verified byte-exact against
        the non-speculative decode path — so this is purely a latency knob.
    """

    temperature: float = 0.0
    top_k: int | None = None
    stop_token_ids: tuple[int, ...] = ()
    seed: int = 0
    speculation_k: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError(f"temperature must be finite and non-negative, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 when set")
        if self.speculation_k < 0:
            raise ValueError("speculation_k must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "stop_token_ids", tuple(int(t) for t in self.stop_token_ids))

    @property
    def is_greedy(self) -> bool:
        """Whether decoding is deterministic argmax (``temperature == 0``)."""
        return self.temperature == 0.0

    def is_stop(self, token_id: int) -> bool:
        """Whether ``token_id`` terminates generation for this request."""
        return int(token_id) in self.stop_token_ids

    @classmethod
    def greedy(cls, stop_token_ids: tuple[int, ...] = ()) -> "SamplingParams":
        """Greedy-decoding parameters with optional stop tokens."""
        return cls(temperature=0.0, stop_token_ids=stop_token_ids)


def sample_token(
    logits: np.ndarray, params: SamplingParams, rng: np.random.Generator
) -> int:
    """Sample the next token id from a ``(vocab_size,)`` logits vector."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if logits.size == 0:
        raise ValueError("logits must be non-empty")
    if params.is_greedy:
        return int(np.argmax(logits))
    with np.errstate(over="ignore"):
        scaled = logits / params.temperature
    top = np.max(scaled)
    if not math.isfinite(top):
        # The scale overflows float64 (a subnormal temperature): sample in the
        # T -> 0 limit, uniformly among the maximal logits.
        scaled, top = np.where(logits == np.max(logits), 0.0, -np.inf), 0.0
    if params.top_k is not None and params.top_k < scaled.size:
        cutoff = np.partition(scaled, -params.top_k)[-params.top_k]
        scaled = np.where(scaled >= cutoff, scaled, -np.inf)
    probs = np.exp(scaled - top)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))
