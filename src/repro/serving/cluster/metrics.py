"""Fleet-wide metrics: merge per-replica records and gauges into one view.

:class:`ClusterMetrics` holds one :class:`~repro.serving.metrics.ServingMetrics`
per replica and exposes the fleet aggregates (TTFT/TPOT percentiles, SLO
attainment, throughput) over the *union* of their records — a single-replica
cluster therefore reports exactly what the plain engine would, and replicas
that completed nothing contribute nothing (summaries degrade to NaN/0 the
same way an empty ``ServingMetrics`` does, never crash).

:func:`merge_live_gauges` folds per-replica
:class:`~repro.serving.metrics.LiveGauges` snapshots into one fleet gauge set
(counts and capacities sum; the clock is the furthest replica clock), and
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

from dataclasses import dataclass, field

from repro.serving.metrics import LiveGauges, ServingMetrics, render_gauge_value

__all__ = [
    "ClusterMetrics",
    "DisaggMetrics",
    "merge_live_gauges",
    "render_cluster_prometheus",
]


@dataclass
class ClusterMetrics:
    """Per-replica :class:`ServingMetrics` plus fleet-wide aggregates.

    ``per_replica`` maps replica id to that replica's metrics (live
    references — records added later show up here).  The fleet aggregates
    are computed over the concatenation of every replica's records; all of
    them accept the same optional ``priority`` class filter the underlying
    :class:`ServingMetrics` aggregates do.
    """

    per_replica: dict[str, ServingMetrics] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(m) for m in self.per_replica.values())

    def replica_ids(self) -> list[str]:
        """Replica ids in registration order."""
        return list(self.per_replica)

    def fleet(self) -> ServingMetrics:
        """All replicas' records merged into one :class:`ServingMetrics`.

        The merged object is a snapshot (its record list is a copy); use it
        for any aggregate not re-exported below.
        """
        merged = ServingMetrics()
        for metrics in self.per_replica.values():
            for record in metrics.records:
                merged.add(record)
        return merged

    # -- fleet aggregates (delegating to the merged view) ------------------------
    def mean_ttft_s(self, priority: int | None = None) -> float:
        """Fleet mean time to first token, seconds (NaN with no records)."""
        return self.fleet().mean_ttft_s(priority)

    def percentile_ttft_s(self, percentile: float, priority: int | None = None) -> float:
        """Fleet TTFT percentile, seconds (NaN with no records)."""
        return self.fleet().percentile_ttft_s(percentile, priority)

    def mean_time_per_output_token_s(self, priority: int | None = None) -> float:
        """Fleet mean per-output-token decode latency, seconds."""
        return self.fleet().mean_time_per_output_token_s(priority)

    def percentile_tpot_s(self, percentile: float, priority: int | None = None) -> float:
        """Fleet per-output-token latency percentile, seconds."""
        return self.fleet().percentile_tpot_s(percentile, priority)

    def mean_queueing_delay_s(self, priority: int | None = None) -> float:
        """Fleet mean queueing delay, seconds (NaN with no records)."""
        return self.fleet().mean_queueing_delay_s(priority)

    def slo_attainment(
        self,
        ttft_slo_s: float,
        tpot_slo_s: float | None = None,
        priority: int | None = None,
    ) -> float:
        """Fraction of fleet requests meeting the SLO (NaN with no records)."""
        return self.fleet().slo_attainment(ttft_slo_s, tpot_slo_s, priority)

    def total_preemptions(self, priority: int | None = None) -> int:
        """Total preemption events across the fleet's recorded requests."""
        return self.fleet().total_preemptions(priority)

    def total_generated_tokens(self) -> int:
        """Sum of generated tokens across every replica's records."""
        return self.fleet().total_generated_tokens()

    def generation_throughput_tokens_s(self) -> float:
        """Fleet generated tokens per virtual second (replica clocks as one timeline)."""
        return self.fleet().generation_throughput_tokens_s()

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
    decode-tier record.  The per-tier views keep both: prefill-tier TTFT is
    the tier's admission+prefill latency, decode-tier TPOT its decode
    cadence.
    """

    tier_of: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        """Requests completed, each once (the :meth:`fleet` view)."""
        return len(self.fleet())

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

    def prefill_tier(self) -> ServingMetrics:
        """The prefill tier's records (first-token service per migrated request)."""
        return self.tier("prefill")

    def decode_tier(self) -> ServingMetrics:
        """The decode tier's records (authoritative end-to-end per request)."""
        return self.tier("decode")

    def total_migrated_pages(self) -> int:
        """Physical KV pages migrated between tiers, over the deduplicated fleet."""
        return self.fleet().total_migrated_pages()

    def mean_transfer_ms(self, priority: int | None = None) -> float:
        """Mean modeled hand-off latency over migrated requests, milliseconds."""
        return self.fleet().mean_transfer_ms(priority)


def merge_live_gauges(gauges: list[LiveGauges]) -> LiveGauges:
    """Fold per-replica gauge snapshots into one fleet-wide snapshot.

    Counts (queue depth, running, completed, ...) and KV capacities sum;
    ``clock_s`` is the furthest replica clock.  ``backend_kv_tokens`` sums
    the replicas that report one and stays ``-1`` when none do.  The
    ``speculation_k_*`` gauges fold over the replicas that track at least
    one speculating request (``speculation_k_max > 0``): fleet min is the
    min of replica mins, fleet max the max of replica maxes, and the fleet
    mean is the unweighted mean of replica means; all three stay 0 when no
    replica speculates.
    """
    if not gauges:
        raise ValueError("at least one replica gauge snapshot is required")
    reported = [g.backend_kv_tokens for g in gauges if g.backend_kv_tokens >= 0]
    speculating = [g for g in gauges if g.speculation_k_max > 0]
    return LiveGauges(
        clock_s=max(g.clock_s for g in gauges),
        queue_depth=sum(g.queue_depth for g in gauges),
        pending_arrivals=sum(g.pending_arrivals for g in gauges),
        running=sum(g.running for g in gauges),
        kv_tokens_in_use=sum(g.kv_tokens_in_use for g in gauges),
        kv_token_capacity=sum(g.kv_token_capacity for g in gauges),
        backend_kv_tokens=sum(reported) if reported else -1,
        completed=sum(g.completed for g in gauges),
        aborted=sum(g.aborted for g in gauges),
        preemptions=sum(g.preemptions for g in gauges),
        kv_tokens_demand=sum(g.kv_tokens_demand for g in gauges),
        kv_tokens_cold=sum(g.kv_tokens_cold for g in gauges),
        cold_pages=sum(g.cold_pages for g in gauges),
        demotions=sum(g.demotions for g in gauges),
        restores=sum(g.restores for g in gauges),
        draft_tokens_proposed=sum(g.draft_tokens_proposed for g in gauges),
        draft_tokens_accepted=sum(g.draft_tokens_accepted for g in gauges),
        spec_decode_steps=sum(g.spec_decode_steps for g in gauges),
        speculation_k_min=(
            min(g.speculation_k_min for g in speculating) if speculating else 0
        ),
        speculation_k_mean=(
            sum(g.speculation_k_mean for g in speculating) / len(speculating)
            if speculating
            else 0.0
        ),
        speculation_k_max=(
            max(g.speculation_k_max for g in speculating) if speculating else 0
        ),
    )


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
