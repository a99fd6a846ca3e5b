"""Fleet-wide metrics: merge per-replica records and gauges into one view.

:class:`ClusterMetrics` holds one :class:`~repro.serving.metrics.ServingMetrics`
per replica; :meth:`ClusterMetrics.fleet` merges the *union* of their
records into one ``ServingMetrics``, whose own aggregates (TTFT/TPOT
percentiles, SLO attainment, throughput) are the fleet's — a single-replica
cluster therefore reports exactly what the plain engine would, and replicas
that completed nothing contribute nothing (summaries degrade to NaN/0 the
same way an empty ``ServingMetrics`` does, never crash).

:func:`merge_live_gauges` folds per-replica
:class:`~repro.serving.metrics.LiveGauges` snapshots into one fleet gauge set
(every field sums, except the clock and a few stated gauges), and
:func:`render_cluster_prometheus` renders the combined ``/metrics`` body:
``repro_cluster_*`` aggregates plus per-replica ``repro_serving_*`` series
labelled ``{replica="..."}``.

All times are per-replica virtual-clock seconds.  Every replica's clock
starts at zero, so *durations* (TTFT, TPOT, queueing delay) are directly
comparable across replicas; fleet makespan/throughput treat the replica
clocks as one shared timeline, which is exact for trace replays (arrivals
are stamped from one trace) and approximate otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.serving.metrics import LiveGauges, ServingMetrics, render_gauge_value

__all__ = [
    "ClusterMetrics",
    "DisaggMetrics",
    "merge_live_gauges",
    "render_cluster_prometheus",
]


@dataclass
class ClusterMetrics:
    """Per-replica :class:`ServingMetrics` plus the fleet-wide view.

    ``per_replica`` maps replica id to that replica's metrics (live
    references — records added later show up here).  Fleet aggregates are
    read from :meth:`fleet`, once per snapshot:
    ``metrics.fleet().percentile_ttft_s(99)``.
    """

    per_replica: dict[str, ServingMetrics] = field(default_factory=dict)

    def fleet(self) -> ServingMetrics:
        """All replicas' records merged into one :class:`ServingMetrics`.

        The merged object is a snapshot (its record list is a copy); every
        :class:`ServingMetrics` aggregate on it is a fleet aggregate.
        """
        merged = ServingMetrics()
        for metrics in self.per_replica.values():
            for record in metrics.records:
                merged.add(record)
        return merged

    def completed_per_replica(self) -> dict[str, int]:
        """Completed-request count per replica — the routing balance at a glance."""
        return {rid: len(m) for rid, m in self.per_replica.items()}


@dataclass
class DisaggMetrics(ClusterMetrics):
    """Cluster metrics for a disaggregated prefill/decode fleet.

    ``tier_of`` maps each replica id to its tier (``"prefill"`` /
    ``"decode"``).  A migrated request produces **two** records — a
    first-token record on its prefill replica and the authoritative
    end-to-end record on its decode replica (original arrival time,
    preserved first-token timestamp, full generated count, ``transfer_ms``)
    — so the fleet view deduplicates by request id, preferring the
    decode-tier record.  The per-tier views (:meth:`tier`) keep both:
    ``tier("prefill")`` TTFT is the tier's admission+prefill latency,
    ``tier("decode")`` TPOT its decode cadence.
    """

    tier_of: dict[str, str] = field(default_factory=dict)

    def fleet(self) -> ServingMetrics:
        """Fleet records deduplicated by request id (decode-tier record wins)."""
        chosen: dict[str, tuple[str, object]] = {}
        for rid, metrics in self.per_replica.items():
            tier = self.tier_of.get(rid, "decode")
            for record in metrics.records:
                prev = chosen.get(record.request_id)
                if prev is None or (prev[0] == "prefill" and tier == "decode"):
                    chosen[record.request_id] = (tier, record)
        merged = ServingMetrics()
        for _, record in chosen.values():
            merged.add(record)
        return merged

    def tier(self, tier: str) -> ServingMetrics:
        """All records completed on replicas of one tier, merged (no dedup)."""
        if tier not in set(self.tier_of.values()):
            raise ValueError(f"unknown tier {tier!r}; have {sorted(set(self.tier_of.values()))}")
        merged = ServingMetrics()
        for rid, metrics in self.per_replica.items():
            if self.tier_of.get(rid) == tier:
                for record in metrics.records:
                    merged.add(record)
        return merged


def merge_live_gauges(gauges: list[LiveGauges]) -> LiveGauges:
    """Fold per-replica gauge snapshots into one fleet-wide snapshot.

    Every :class:`LiveGauges` field sums across replicas, except:

    * ``clock_s`` is the furthest replica clock;
    * ``backend_kv_tokens`` sums the replicas that report one and stays
      ``-1`` when none do.
    """
    if not gauges:
        raise ValueError("at least one replica gauge snapshot is required")
    merged = {f.name: sum(getattr(g, f.name) for g in gauges) for f in fields(LiveGauges)}
    reported = [g.backend_kv_tokens for g in gauges if g.backend_kv_tokens >= 0]
    merged.update(
        clock_s=max(g.clock_s for g in gauges),
        backend_kv_tokens=sum(reported) if reported else -1,
    )
    return LiveGauges(**merged)


def render_cluster_prometheus(
    per_replica: dict[str, LiveGauges],
    healthy: dict[str, bool] | None = None,
    tiers: dict[str, str] | None = None,
) -> str:
    """Render the fleet's ``/metrics`` body in Prometheus text format.

    Groups, in order:

    * ``repro_cluster_*`` — the :func:`merge_live_gauges` aggregates, plus
      ``repro_cluster_replicas`` / ``repro_cluster_healthy_replicas`` when
      ``healthy`` is given;
    * ``repro_tier_*{tier="<tier>"}`` — when ``tiers`` maps replica ids to
      tier names (disaggregated clusters), the same merged gauges per tier;
    * ``repro_serving_*{replica="<id>"}`` — every per-replica gauge as a
      labelled series (one ``# TYPE`` line per metric, one sample per
      replica, as the exposition format expects); with ``tiers`` each sample
      additionally carries its ``tier="<tier>"`` label;
    * ``repro_serving_healthy{replica="<id>"}`` — 1/0 per replica, when
      ``healthy`` is given.
    """
    if not per_replica:
        raise ValueError("at least one replica gauge snapshot is required")
    lines = [merge_live_gauges(list(per_replica.values())).to_prometheus(
        prefix="repro_cluster"
    ).rstrip("\n")]
    if healthy is not None:
        lines.append("# TYPE repro_cluster_replicas gauge")
        lines.append(f"repro_cluster_replicas {len(healthy)}")
        lines.append("# TYPE repro_cluster_healthy_replicas gauge")
        lines.append(f"repro_cluster_healthy_replicas {sum(healthy.values())}")
    field_names = list(next(iter(per_replica.values())).to_dict())
    if tiers is not None:
        groups: dict[str, list[LiveGauges]] = {}
        for replica_id, gauges in per_replica.items():
            groups.setdefault(tiers.get(replica_id, "colocated"), []).append(gauges)
        merged_by_tier = {t: merge_live_gauges(gs).to_dict() for t, gs in groups.items()}
        for name in field_names:
            metric = f"repro_tier_{name}"
            lines.append(f"# TYPE {metric} gauge")
            for tier_name, values in merged_by_tier.items():
                lines.append(
                    f'{metric}{{tier="{tier_name}"}} {render_gauge_value(values[name])}'
                )
    for name in field_names:
        metric = f"repro_serving_{name}"
        lines.append(f"# TYPE {metric} gauge")
        for replica_id, gauges in per_replica.items():
            value = render_gauge_value(gauges.to_dict()[name])
            if tiers is not None:
                tier_name = tiers.get(replica_id, "colocated")
                lines.append(
                    f'{metric}{{replica="{replica_id}",tier="{tier_name}"}} {value}'
                )
            else:
                lines.append(f'{metric}{{replica="{replica_id}"}} {value}')
    if healthy is not None:
        lines.append("# TYPE repro_serving_healthy gauge")
        for replica_id, ok in healthy.items():
            lines.append(f'repro_serving_healthy{{replica="{replica_id}"}} {int(ok)}')
    return "\n".join(lines) + "\n"
