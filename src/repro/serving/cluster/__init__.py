"""Multi-replica serving: a KV/prefix-aware router over N engine replicas.

The cluster layer scales the serving stack horizontally.  Each replica is an
independent :class:`~repro.serving.frontend.AsyncServingEngine` over its own
:class:`~repro.serving.backend.InferenceBackend` (own KV pool, prefix cache,
scheduler, virtual clock); :class:`~repro.serving.cluster.cluster.ServingCluster`
routes each submission to one of them under a pluggable
:class:`~repro.serving.cluster.router.RoutingPolicy`:

* ``"round_robin"`` — cycle over the healthy replicas (load-blind baseline);
* ``"least_kv"`` — join the least-loaded replica by its live gauges
  (in-flight requests, then KV occupancy);
* ``"prefix_affinity"`` — hash the prompt's leading token blocks (the
  :class:`~repro.kvcache.prefix_index.PrefixIndex` block scheme) so
  shared-prefix traffic sticks to one replica and hits its prefix cache.

A replica whose drive loop dies is quarantined and its in-flight requests
are resubmitted to survivors with already-delivered tokens deduplicated —
consumer streams stay byte-identical.  :class:`~repro.serving.cluster.metrics.ClusterMetrics`
merges per-replica :class:`~repro.serving.metrics.ServingMetrics` into
fleet-wide percentiles/SLO attainment, and the cluster renders a combined
Prometheus ``/metrics`` body (aggregates + per-replica labelled series)
served verbatim by :class:`~repro.serving.http.CompletionServer`.

:class:`~repro.serving.cluster.disagg.DisaggregatedCluster` goes one step
further and **disaggregates** the fleet into a prefill pool and a decode
pool: requests prefill on one tier, their KV pages migrate (with a modeled
transfer delay from :class:`~repro.gpu.cost_model.TransferCostModel`) to the
other, and long prefill bursts stop stalling interactive decodes.
:class:`~repro.serving.cluster.metrics.DisaggMetrics` adds the per-tier
``tier(name)`` view and ``/metrics`` grows ``tier``-labelled series.

See ``docs/cluster.md`` for the architecture, ``docs/disaggregation.md`` for
the tiered variant, and ``benchmarks/bench_cluster_routing.py`` /
``benchmarks/bench_disaggregation.py`` for the sweeps.
"""

from repro.serving.cluster.cluster import ClusterRequestHandle, Replica, ServingCluster
from repro.serving.cluster.disagg import DisaggregatedCluster
from repro.serving.cluster.metrics import (
    ClusterMetrics,
    DisaggMetrics,
    merge_live_gauges,
    render_cluster_prometheus,
)
from repro.serving.cluster.router import (
    ROUTING_POLICIES,
    LeastKVPolicy,
    PrefixAffinityPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_routing_policy,
)

__all__ = [
    "ServingCluster",
    "DisaggregatedCluster",
    "ClusterRequestHandle",
    "Replica",
    "ClusterMetrics",
    "DisaggMetrics",
    "merge_live_gauges",
    "render_cluster_prometheus",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastKVPolicy",
    "PrefixAffinityPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
]
