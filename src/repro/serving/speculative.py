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
``SamplingParams.speculation_k``) and four implementations:

* :class:`NGramDraft` — prompt-lookup decoding: propose the continuation of
  the most recent matching n-gram in the request's own prompt + output
  history.  Zero model cost, so every accepted token is pure speedup; shines
  on extractive/repetitive workloads (long-document QA, agentic loops).
* :class:`CheapEngineDraft` — a second, cheap :class:`LServeEngine` sharing
  the target's weights but with **every** KV head streaming (constant-size
  sink+local stores, no paged pool), decoded greedily to propose tokens.
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
from dataclasses import replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.transformer import TinyTransformer

__all__ = [
    "AdaptiveKPolicy",
    "DraftSource",
    "NGramDraft",
    "CheapEngineDraft",
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


class CheapEngineDraft:
    """Draft with a second engine whose KV heads are *all* streaming.

    The draft engine shares the target's :class:`TinyTransformer` weights but
    classifies every KV head as streaming, so each request holds only its
    sink and local pages however long it runs, and its attention degrades
    gracefully on long contexts (which only costs acceptance, never
    correctness).

    Per request, the draft engine maintains its own sequence: the first
    proposal prefills the prompt, later proposals feed the tokens the target
    accepted since, then ``k`` greedy steps run on a fork so rejected draft
    tokens never pollute the draft sequence either.  The fork shares the
    sequence's full pages and copies its partly filled tail page, the page
    the first draft step writes into.
    """

    def __init__(self, model: TinyTransformer, config: LServeConfig) -> None:
        cfg = model.config
        # The draft never shares prefixes (each request has its own private
        # sequence) — with prefix caching off, no index keeps a prompt's
        # pages past its prefill, so draft memory stays constant.
        draft_config = replace(config, prefix_cache_enabled=False)
        self.engine = LServeEngine(
            model, draft_config, streaming_kv_heads=np.ones(cfg.n_kv_heads, dtype=bool)
        )
        self._fed: dict[str, int] = {}

    def propose(
        self,
        request_id: str,
        prompt_tokens: Sequence[int] | None,
        output_tokens: Sequence[int],
        k: int,
    ) -> list[int]:
        """Greedy-decode ``k`` candidates on a fork of the draft sequence."""
        if prompt_tokens is None:
            raise ValueError("CheapEngineDraft needs real prompt token ids")
        if not output_tokens:
            return []
        outputs = [int(t) for t in output_tokens]
        if request_id not in self._fed:
            # Drafting reads decode logits only: the prompt pass writes KV.
            self.engine.prefill(
                request_id, np.asarray(prompt_tokens, dtype=np.int64), logits_to_keep=0
            )
            self._fed[request_id] = 0
        # Catch the draft sequence up with everything the target accepted,
        # holding back the newest token — it seeds the forked lookahead.
        for token in outputs[self._fed[request_id] : -1]:
            self.engine.decode(request_id, token)
        self._fed[request_id] = len(outputs) - 1
        scratch = (request_id, "__draft__")
        self.engine.fork_sequence(request_id, scratch)
        try:
            drafts: list[int] = []
            token = outputs[-1]
            for _ in range(k):
                logits = self.engine.decode(scratch, token)
                token = int(np.argmax(logits))
                drafts.append(token)
            return drafts
        finally:
            self.engine.release(scratch)

    def release(self, request_id: str) -> None:
        """Drop the request's draft sequence (idempotent)."""
        if self._fed.pop(request_id, None) is not None:
            self.engine.release(request_id)


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


class AdaptiveKPolicy:
    """Deterministic per-request ``speculation_k`` control from acceptance gauges.

    Attach via ``ServingEngine(..., adaptive_k=AdaptiveKPolicy())``.  Each
    speculating request starts at its requested ``SamplingParams.speculation_k``
    (clamped into ``[k_min, k_max]``); after every speculative step the engine
    reports the step's ``(proposed, accepted)`` counts through
    :meth:`observe`, and the policy adjusts that request's effective ``k`` one
    step at a time: ``patience`` consecutive observations with rolling
    acceptance at or above ``raise_threshold`` raise ``k`` by one (drafting is
    paying off — speculate deeper), ``patience`` consecutive observations at
    or below ``lower_threshold`` lower it by one (wasted verification rows —
    back off).  The rolling rate pools the last ``window`` observations, so a
    single lucky chunk cannot whipsaw ``k``.

    The policy changes **scheduling only, never content**: verification still
    samples from the real logits with the request's own rng, so outputs are
    byte-identical to any fixed ``k`` (property-tested in
    ``tests/serving/test_adaptive_k.py``).  All state is per-request, updated
    only by :meth:`observe`, and free of randomness/clocks — the same gauge
    history always yields the same ``k`` trajectory, which keeps OOM-retry
    replays and cluster failover resubmission deterministic.
    """

    def __init__(
        self,
        k_min: int = 1,
        k_max: int = 8,
        window: int = 16,
        raise_threshold: float = 0.8,
        lower_threshold: float = 0.4,
        patience: int = 3,
    ) -> None:
        if k_min < 1:
            raise ValueError("k_min must be >= 1")
        if k_max < k_min:
            raise ValueError("need k_min <= k_max")
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= lower_threshold <= raise_threshold <= 1.0:
            raise ValueError("need 0 <= lower_threshold <= raise_threshold <= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.k_min = k_min
        self.k_max = k_max
        self.window = window
        self.raise_threshold = raise_threshold
        self.lower_threshold = lower_threshold
        self.patience = patience
        # request_id -> (k, observation window, raise streak, lower streak)
        self._state: dict[str, tuple[int, list[tuple[int, int]], int, int]] = {}

    def _clamp(self, k: int) -> int:
        return max(self.k_min, min(self.k_max, int(k)))

    def effective_k(self, request_id: str, requested_k: int) -> int:
        """The ``k`` this request should draft with right now.

        ``requested_k`` (the request's ``SamplingParams.speculation_k``)
        seeds the trajectory on first sight, clamped into
        ``[k_min, k_max]``; afterwards the adapted value is returned
        regardless of the requested one.  ``requested_k <= 0`` means the
        request opted out — the policy returns it unchanged and records
        nothing.
        """
        if requested_k <= 0:
            return requested_k
        state = self._state.get(request_id)
        if state is None:
            state = (self._clamp(requested_k), [], 0, 0)
            self._state[request_id] = state
        return state[0]

    def observe(self, request_id: str, proposed: int, accepted: int) -> None:
        """Fold one speculative step's ``(proposed, accepted)`` into the gauges.

        Unknown requests (never asked via :meth:`effective_k`) are ignored;
        so are empty observations (``proposed <= 0``).
        """
        state = self._state.get(request_id)
        if state is None or proposed <= 0:
            return
        k, history, raise_streak, lower_streak = state
        history = (history + [(int(proposed), int(accepted))])[-self.window :]
        total_proposed = sum(p for p, _ in history)
        total_accepted = sum(a for _, a in history)
        rate = total_accepted / total_proposed
        if rate >= self.raise_threshold:
            raise_streak, lower_streak = raise_streak + 1, 0
        elif rate <= self.lower_threshold:
            raise_streak, lower_streak = 0, lower_streak + 1
        else:
            raise_streak = lower_streak = 0
        if raise_streak >= self.patience:
            k = self._clamp(k + 1)
            raise_streak = 0
        elif lower_streak >= self.patience:
            k = self._clamp(k - 1)
            lower_streak = 0
        self._state[request_id] = (k, history, raise_streak, lower_streak)

    def current_k(self, request_id: str) -> int | None:
        """The request's adapted ``k`` (``None`` when it was never tracked)."""
        state = self._state.get(request_id)
        return state[0] if state is not None else None

    def tracked_k_values(self) -> list[int]:
        """Adapted ``k`` of every tracked request (live-gauge support)."""
        return [state[0] for state in self._state.values()]

    def release(self, request_id: str) -> None:
        """Drop the request's trajectory (request retired or aborted)."""
        self._state.pop(request_id, None)


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
