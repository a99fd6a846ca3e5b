"""Draft sources for lossless speculative decoding.

Speculative decoding splits each decode step in two: a cheap **draft** phase
proposes up to ``k`` candidate tokens, and a **verify** phase runs them
through the real model as one amortized chunk
(:meth:`~repro.core.engine.LServeEngine.decode_speculative_batch`), accepting the
longest prefix that matches what non-speculative sampling would have
produced.  Because verification uses the real logits and the request's own
seeded sampler, outputs are **byte-identical** to a non-speculative run at
any acceptance rate — a draft can only be slow, never wrong.

This module defines the :class:`DraftSource` protocol the serving engine
consumes (``ServingEngine(..., draft_source=...)`` plus a per-request
``SamplingParams.speculation_k``) and three implementations:

* :class:`NGramDraft` — prompt-lookup decoding: propose the continuation of
  the most recent matching n-gram in the request's own prompt + output
  history.  Zero model cost, so every accepted token is pure speedup; shines
  on extractive/repetitive workloads (long-document QA, agentic loops).
* :class:`ModeledDraft` — content-free companion for the cost-model
  :class:`~repro.serving.backend.SimulatedBackend`: acceptance is drawn from
  a seeded per-position hash at a configurable rate, so scheduler-level
  experiments can model speculation without logits.
* :class:`PrerecordedDraft` — replays a fixed per-request token script;
  the test/bench harness uses it to pin the acceptance rate exactly.

A draft source may keep per-request state; the engine calls
:meth:`DraftSource.release` when a request retires or aborts.
"""

from __future__ import annotations

import zlib
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "DraftSource",
    "NGramDraft",
    "ModeledDraft",
    "PrerecordedDraft",
]

#: Token id content-free backends emit for every position (mirrors
#: :data:`repro.serving.engine.PLACEHOLDER_TOKEN` without importing the
#: serving engine — the engine imports this module's protocol for its docs).
_PLACEHOLDER_TOKEN = 0


@runtime_checkable
class DraftSource(Protocol):
    """What the serving engine needs from a draft proposer.

    Implementations must be deterministic for a given request history —
    the engine may re-propose for the same position after an OOM retry and
    relies on getting the same candidates back.
    """

    def propose(
        self,
        request_id: str,
        prompt_tokens: Sequence[int] | None,
        output_tokens: Sequence[int],
        k: int,
    ) -> list[int]:
        """Up to ``k`` candidate continuations of ``prompt + outputs``.

        Returning fewer than ``k`` tokens (or none) is allowed — the engine
        falls back to a plain decode step for this request when the list is
        empty.  Every returned id must be a valid vocabulary token.
        """
        ...

    def release(self, request_id: str) -> None:
        """Drop any per-request state (request retired or aborted)."""
        ...


#: Longest history suffix :class:`NGramDraft` looks up.
MAX_NGRAM = 3


class NGramDraft:
    """Prompt-lookup drafting: copy the continuation of a matching n-gram.

    For each proposal, find the longest suffix of the request's history
    (prompt + generated tokens) of length :data:`MAX_NGRAM` down to one token
    that re-occurs earlier in the history, and propose the ``k`` tokens that
    followed its **most recent** earlier occurrence.  No model runs, so the
    draft phase is free; acceptance is high exactly when generation copies
    from context (extraction, code, agentic tool loops).
    """

    def propose(
        self,
        request_id: str,
        prompt_tokens: Sequence[int] | None,
        output_tokens: Sequence[int],
        k: int,
    ) -> list[int]:
        """Tokens following the most recent earlier occurrence of the suffix."""
        history = [int(t) for t in (prompt_tokens or ())]
        history.extend(int(t) for t in output_tokens)
        n_hist = len(history)
        for n in range(min(MAX_NGRAM, n_hist - 1), 0, -1):
            suffix = tuple(history[-n:])
            for start in range(n_hist - n - 1, -1, -1):
                if tuple(history[start : start + n]) == suffix:
                    follow = history[start + n : start + n + k]
                    if follow:
                        return follow
                    break
        return []

    def release(self, request_id: str) -> None:
        """Stateless — nothing to drop."""


class ModeledDraft:
    """Content-free draft for cost-model backends, with a pinned hit rate.

    ``SimulatedBackend`` emits the placeholder token for every position, so a
    draft "hits" by proposing the placeholder and "misses" by proposing
    anything else.  Each position's hit is drawn from a stateless seeded hash
    of ``(seed, request_id, history position)`` at probability
    ``acceptance`` — deterministic across retries and replicas, so cluster
    resubmission replays identically.
    """

    def __init__(self, acceptance: float = 0.8, seed: int = 0) -> None:
        if not 0.0 <= acceptance <= 1.0:
            raise ValueError("acceptance must be in [0, 1]")
        self.acceptance = acceptance
        self.seed = seed

    def propose(
        self,
        request_id: str,
        prompt_tokens: Sequence[int] | None,
        output_tokens: Sequence[int],
        k: int,
    ) -> list[int]:
        """``k`` placeholder/miss tokens drawn at the modeled acceptance rate."""
        base = len(output_tokens)
        drafts = []
        for j in range(k):
            digest = zlib.crc32(f"{self.seed}:{request_id}:{base + j}".encode())
            hit = (digest / 0xFFFFFFFF) < self.acceptance
            drafts.append(_PLACEHOLDER_TOKEN if hit else _PLACEHOLDER_TOKEN + 1)
        return drafts

    def release(self, request_id: str) -> None:
        """Stateless — nothing to drop."""


class PrerecordedDraft:
    """Replay fixed per-request draft scripts (test/bench acceptance control).

    ``scripts[request_id]`` is the full output-token stream to propose from:
    when the request has generated ``n`` tokens, the next proposals are
    ``scripts[request_id][n : n + k]``.  Seeding a script with the request's
    reference (non-speculative) output pins acceptance at 1.0; corrupting
    every ``i``-th entry lowers it predictably.  Unknown requests get no
    drafts (plain decode).
    """

    def __init__(self, scripts: dict[str, Sequence[int]]) -> None:
        self.scripts = {rid: [int(t) for t in s] for rid, s in scripts.items()}

    def propose(
        self,
        request_id: str,
        prompt_tokens: Sequence[int] | None,
        output_tokens: Sequence[int],
        k: int,
    ) -> list[int]:
        """The scripted tokens at the request's current output position."""
        script = self.scripts.get(request_id)
        if script is None:
            return []
        pos = len(output_tokens)
        return script[pos : pos + k]

    def release(self, request_id: str) -> None:
        """Stateless beyond the immutable scripts — nothing to drop."""
