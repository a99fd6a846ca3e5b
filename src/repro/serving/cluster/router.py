"""Routing policies: which replica serves the next request.

A :class:`RoutingPolicy` is consulted once per submission (and once per
resubmission after a replica failure) with the request and the list of
*healthy* replicas, and returns the replica that should serve it.  Three
policies ship, mirroring the scheduler-policy registry pattern:

* ``"round_robin"`` — cycle over the healthy replicas.  Load-blind: every
  replica gets the same request *count* regardless of request size or
  current backlog.
* ``"least_kv"`` — join the least-loaded replica, read from each replica's
  :class:`~repro.serving.metrics.LiveGauges` snapshot: fewest outstanding
  KV-demand tokens first (``kv_tokens_demand`` — materialised KV plus what
  every queued request will materialise, a *size-aware* queue length),
  in-flight request count as the tie-break, replica order as the final
  deterministic tie-break.
* ``"prefix_affinity"`` — hash the prompt's leading token blocks (the same
  ``page_size``-token block scheme :class:`~repro.kvcache.prefix_index.PrefixIndex`
  keys its trie on) so requests that share a prefix land on the same replica
  and hit its prefix cache, instead of every replica recomputing the same
  system prompt.  Length-only requests (no token ids) fall back to
  round-robin.

Policies are deliberately stateless with respect to the replicas — they read
gauges, never mutate — but may keep private counters (round-robin's cursor).
Create one per cluster via :func:`make_routing_policy`; sharing an instance
across clusters shares its cursor.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.serving.request import Request

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastKVPolicy",
    "PrefixAffinityPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
]

#: Leading blocks :class:`PrefixAffinityPolicy` hashes.
AFFINITY_DEPTH = 4


class RoutingPolicy:
    """Chooses the replica that serves a request (see module docstring).

    ``replicas`` is the list of *healthy* replicas in stable creation order
    (quarantined replicas are filtered out before the policy runs); each
    exposes ``replica_id`` and ``live_gauges()``.  The list is never empty.
    """

    #: Registry name of the policy (the ``ServingCluster(routing=...)`` string).
    name: str = "abstract"

    def choose(self, request: Request, replicas: list):
        """Return the replica (an element of ``replicas``) to serve ``request``."""
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Cycle over the healthy replicas in order, one request each."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, request: Request, replicas: list):
        """The next replica in cyclic order (over the currently healthy set)."""
        pick = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return pick


class LeastKVPolicy(RoutingPolicy):
    """Join the replica with the least outstanding KV demand, by live gauges.

    Order of comparison: fewest ``kv_tokens_demand`` tokens (materialised KV
    plus what every queued request will materialise — a *size-aware* queue
    length, which matters when request sizes span orders of magnitude: two
    replicas with equal queue depth can hide a 100x demand gap), then fewest
    in-flight requests, then replica order for a deterministic tie-break.
    """

    name = "least_kv"

    def choose(self, request: Request, replicas: list):
        """The replica with the smallest (kv_tokens_demand, in_flight) load."""
        def load(indexed):
            index, replica = indexed
            gauges = replica.live_gauges()
            return (gauges.kv_tokens_demand, gauges.in_flight, index)

        return min(enumerate(replicas), key=load)[1]


class PrefixAffinityPolicy(RoutingPolicy):
    """Stick shared-prefix traffic to one replica by hashing leading blocks.

    The prompt's first :data:`AFFINITY_DEPTH` whole blocks of
    ``block_tokens`` tokens each (fewer when the prompt is shorter) are
    hashed with CRC-32 — a stable, process-independent digest — and the
    digest picks a replica modulo the healthy-replica count.  Two prompts
    that share their leading blocks therefore always route to the same
    replica, whose :class:`~repro.kvcache.prefix_index.PrefixIndex` then
    serves the shared prefix from cache; match ``block_tokens`` to the backend's prefix
    granularity (``LServeConfig.physical_page_size`` for the real engine,
    ``prefix_block_tokens`` for the simulated one).

    When replicas are quarantined the modulo remaps over the survivors —
    affinity groups move wholesale to a new replica and stay sticky there.
    Length-only requests carry no tokens to hash and fall back to
    round-robin.
    """

    name = "prefix_affinity"

    def __init__(self, block_tokens: int = 64) -> None:
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.block_tokens = block_tokens
        self._fallback = RoundRobinPolicy()

    def affinity_key(self, request: Request) -> int | None:
        """CRC-32 of the prompt's leading blocks; ``None`` without token ids."""
        if request.prompt_token_ids is None:
            return None
        ids = np.asarray(request.prompt_token_ids, dtype=np.int64)
        span = min(ids.size, AFFINITY_DEPTH * self.block_tokens)
        if span >= self.block_tokens:
            span = span // self.block_tokens * self.block_tokens
        return zlib.crc32(ids[:span].tobytes())

    def choose(self, request: Request, replicas: list):
        """The replica the prompt's leading-block hash maps to."""
        key = self.affinity_key(request)
        if key is None:
            return self._fallback.choose(request, replicas)
        return replicas[key % len(replicas)]


#: Registry of built-in routing policies, keyed by :attr:`RoutingPolicy.name`.
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    cls.name: cls for cls in (RoundRobinPolicy, LeastKVPolicy, PrefixAffinityPolicy)
}


def make_routing_policy(name: str | RoutingPolicy) -> RoutingPolicy:
    """Instantiate a registered routing policy by name (an instance passes through)."""
    if isinstance(name, RoutingPolicy):
        return name
    try:
        return ROUTING_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise ValueError(
            f"unknown routing policy {name!r}; known policies: {known}"
        ) from None
