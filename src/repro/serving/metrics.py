"""Serving metrics: TTFT, per-token latency, throughput, SLO attainment.

All times are virtual-clock **seconds** (modelled GPU time for the simulated
backend, measured or modelled time for the real one); all token counts are
**tokens**.  :class:`RequestRecord` is the per-request timing record emitted
when a request retires; :class:`ServingMetrics` aggregates them, including
per-priority-class percentiles and SLO attainment for the scheduling
benchmarks.  :class:`LiveGauges` is the complementary *instantaneous* view —
queue depth, in-flight batch, KV occupancy — snapshot by
:meth:`~repro.serving.engine.ServingEngine.live_gauges` and exported by the
HTTP front end's ``GET /metrics`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["RequestRecord", "ServingMetrics", "LiveGauges", "render_gauge_value"]


def render_gauge_value(value) -> str:
    """Exact Prometheus text rendering of one gauge sample.

    Integral values render as plain ints and everything else through
    ``repr`` — '%g'-style formatting keeps only 6 significant digits, which
    silently corrupts token-count gauges beyond ~1e6.
    """
    number = float(value)
    return str(int(number)) if number.is_integer() else repr(number)


@dataclass(frozen=True)
class LiveGauges:
    """Point-in-time snapshot of a live serving engine.

    Unlike :class:`ServingMetrics` (which aggregates *completed* requests),
    these gauges describe the system **right now**: how deep the queue is,
    how many requests are decoding, and how full the KV pool is.  All counts
    are requests or tokens; ``clock_s`` is the engine's virtual clock.

    * ``queue_depth`` — requests waiting for admission (including preempted
      requests awaiting re-admission).
    * ``pending_arrivals`` — submitted requests whose ``arrival_time_s`` is
      still in the future (trace replay).
    * ``running`` — requests currently admitted to the decode batch.
    * ``kv_tokens_in_use`` / ``kv_token_capacity`` — the scheduler's unique-KV
      accounting against the page pool, in tokens.
    * ``kv_tokens_demand`` — outstanding KV demand: tokens materialised plus
      the tokens every waiting/preempted/pending request will materialise on
      admission (prompt + generated-so-far).  A size-aware load signal —
      two replicas with the same queue *depth* can differ by orders of
      magnitude here; cluster routing's ``least_kv`` policy keys on it.
    * ``backend_kv_tokens`` — the backend's own count of materialised KV
      tokens (ground truth; ``-1`` when the backend does not report one).
    * ``completed`` / ``aborted`` / ``preemptions`` — lifetime counters.
    * ``kv_tokens_cold`` / ``cold_pages`` — KV currently parked in the cold
      tier (0 when tiering is off; the hot-tier occupancy is
      ``kv_tokens_in_use`` — the watermarks never count cold KV).
    * ``demotions`` / ``restores`` — lifetime cold-tier traffic counters.
    * ``draft_tokens_proposed`` / ``draft_tokens_accepted`` /
      ``spec_decode_steps`` — lifetime speculative-decoding counters (all 0
      when no draft source is attached); the derived
      ``draft_acceptance_rate`` and ``spec_effective_tokens_per_step``
      gauges ride along in :meth:`to_dict` and the Prometheus exposition.
    """

    clock_s: float
    queue_depth: int
    pending_arrivals: int
    running: int
    kv_tokens_in_use: int
    kv_token_capacity: int
    backend_kv_tokens: int
    completed: int
    aborted: int
    preemptions: int
    kv_tokens_demand: int = 0
    kv_tokens_cold: int = 0
    cold_pages: int = 0
    demotions: int = 0
    restores: int = 0
    draft_tokens_proposed: int = 0
    draft_tokens_accepted: int = 0
    spec_decode_steps: int = 0

    @property
    def kv_occupancy(self) -> float:
        """Fraction of the KV token pool in use (0.0–1.0)."""
        if self.kv_token_capacity <= 0:
            return 0.0
        return self.kv_tokens_in_use / self.kv_token_capacity

    @property
    def draft_acceptance_rate(self) -> float:
        """Lifetime fraction of proposed draft tokens accepted (0.0 when none).

        Zero rather than NaN so the Prometheus series always carries a
        plottable sample, speculation active or not.
        """
        if self.draft_tokens_proposed <= 0:
            return 0.0
        return self.draft_tokens_accepted / self.draft_tokens_proposed

    @property
    def spec_effective_tokens_per_step(self) -> float:
        """Mean tokens emitted per speculative decode step (0.0 when none).

        Every speculative step emits one verified token plus its accepted
        drafts, so this is
        ``(spec_decode_steps + draft_tokens_accepted) / spec_decode_steps``
        — the decode-iteration compression speculation bought.
        """
        if self.spec_decode_steps <= 0:
            return 0.0
        return (self.spec_decode_steps + self.draft_tokens_accepted) / self.spec_decode_steps

    @property
    def in_flight(self) -> int:
        """Requests the engine is responsible for and has not finished.

        Counts queued (``queue_depth``) **and** not-yet-arrived trace
        submissions (``pending_arrivals``) **and** the running batch — i.e.
        everything submitted that will still produce tokens.
        """
        return self.queue_depth + self.pending_arrivals + self.running

    def to_dict(self) -> dict:
        """The gauges as a plain dict (JSON-friendly), derived fields included."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["kv_occupancy"] = self.kv_occupancy
        out["in_flight"] = self.in_flight
        out["draft_acceptance_rate"] = self.draft_acceptance_rate
        out["spec_effective_tokens_per_step"] = self.spec_effective_tokens_per_step
        return out

    def to_prometheus(self, prefix: str = "repro_serving") -> str:
        """Render the gauges in the Prometheus text exposition format.

        One ``# TYPE <name> gauge`` + value line per field, served verbatim by
        the HTTP front end's ``GET /metrics`` endpoint.
        """
        lines = []
        for name, value in self.to_dict().items():
            metric = f"{prefix}_{name}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {render_gauge_value(value)}")
        # Tier-labelled occupancy series: one metric, hot/cold samples.
        tier_metric = f"{prefix}_kv_tier_tokens"
        lines.append(f"# TYPE {tier_metric} gauge")
        lines.append(
            f'{tier_metric}{{tier="hot"}} {render_gauge_value(self.kv_tokens_in_use)}'
        )
        lines.append(
            f'{tier_metric}{{tier="cold"}} {render_gauge_value(self.kv_tokens_cold)}'
        )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request.

    Fields (units):

    * ``arrival_time_s`` — virtual clock (s) when the request arrived.
    * ``prefill_finish_time_s`` — clock (s) when its first token was produced.
    * ``finish_time_s`` — clock (s) when its last token was produced.
    * ``prompt_tokens`` / ``generated_tokens`` — lengths (tokens).
    * ``priority`` — scheduling class (lower = more urgent, 0 = default).
    * ``preemptions`` — times the request was evicted under KV pressure.
    * ``preempted_stall_s`` — total seconds spent evicted (preempt to resume,
      including the recompute itself).
    * ``scheduled_time_s`` — clock (s) of *first* admission for prefill
      (``None`` on legacy records that predate preemptive scheduling).
    * ``transfer_ms`` — modeled KV-migration latency (milliseconds) charged
      when the request was handed off between serving tiers (0.0 when it was
      served by one replica end to end).
    * ``migrated_pages`` — physical KV pages migrated in that hand-off.
    * ``demotions`` — times the request's KV was parked in the cold tier
      instead of being released for recompute.
    * ``demoted_stall_s`` — total seconds spent demoted (demote to restore).
    * ``restored_pages`` — KV pages of this request's own sequence brought
      back from the cold tier (the tier parks sequences only).
    * ``restore_ms`` — total modeled cold-tier restore latency (milliseconds)
      charged to this request.
    * ``draft_tokens_proposed`` / ``draft_tokens_accepted`` — speculative
      draft tokens proposed for / accepted into this request's output (both
      0 when it decoded without speculation).
    * ``spec_decode_steps`` — decode steps the request took through the
      speculative verify path (each emitted 1 + accepted-drafts tokens).
    """

    request_id: str
    arrival_time_s: float
    prefill_finish_time_s: float
    finish_time_s: float
    prompt_tokens: int
    generated_tokens: int
    priority: int = 0
    preemptions: int = 0
    scheduled_time_s: float | None = None
    preempted_stall_s: float = 0.0
    transfer_ms: float = 0.0
    migrated_pages: int = 0
    demotions: int = 0
    demoted_stall_s: float = 0.0
    restored_pages: int = 0
    restore_ms: float = 0.0
    draft_tokens_proposed: int = 0
    draft_tokens_accepted: int = 0
    spec_decode_steps: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token in seconds (queueing + prefill)."""
        return self.prefill_finish_time_s - self.arrival_time_s

    @property
    def queueing_delay_s(self) -> float:
        """Seconds spent waiting before first admission (0.0 when unrecorded)."""
        if self.scheduled_time_s is None:
            return 0.0
        return self.scheduled_time_s - self.arrival_time_s

    @property
    def decode_time_s(self) -> float:
        """Seconds between the first and the last generated token."""
        return self.finish_time_s - self.prefill_finish_time_s

    @property
    def time_per_output_token_s(self) -> float:
        """Mean decode latency per output token, in seconds.

        The first token arrives with prefill (it is covered by TTFT), so the
        decode phase spans ``generated_tokens - 1`` tokens.
        """
        if self.generated_tokens <= 1:
            return 0.0
        return self.decode_time_s / (self.generated_tokens - 1)

    @property
    def draft_acceptance_rate(self) -> float:
        """Fraction of this request's proposed draft tokens accepted (0.0 when none)."""
        if self.draft_tokens_proposed <= 0:
            return 0.0
        return self.draft_tokens_accepted / self.draft_tokens_proposed

    @property
    def spec_effective_tokens_per_step(self) -> float:
        """Tokens per speculative decode step for this request (0.0 when none)."""
        if self.spec_decode_steps <= 0:
            return 0.0
        return (self.spec_decode_steps + self.draft_tokens_accepted) / self.spec_decode_steps


@dataclass
class ServingMetrics:
    """Aggregate statistics over a set of completed requests.

    Every aggregate accepts an optional ``priority`` filter to slice the
    records down to one scheduling class (``None`` = all classes).
    """

    records: list[RequestRecord] = field(default_factory=list)

    def add(self, record: RequestRecord) -> None:
        """Append one completed-request record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def _select(self, priority: int | None = None) -> list[RequestRecord]:
        """Records of one priority class (``None`` = all classes).

        An aggregate over *all* records simply returns the empty list when
        nothing has completed yet — summary callers (benchmark tables, smoke
        runs where everything was rejected or is still queued) report NaN/0
        instead of crashing.  A lookup for a *specific* priority class with
        no records still raises: a typo'd class id should error, not
        silently report an empty class.
        """
        if priority is None:
            return self.records
        records = [r for r in self.records if r.priority == priority]
        if not records:
            raise ValueError(f"no completed requests recorded for priority class {priority}")
        return records

    def total_preemptions(self, priority: int | None = None) -> int:
        """Total preemption events across the recorded requests.

        Returns 0 when nothing has been recorded yet; like the other
        per-class aggregates, raises for a ``priority`` class with no records
        (a typo'd class id should error, not report zero preemptions).
        """
        return int(sum(r.preemptions for r in self._select(priority)))

    def mean_queueing_delay_s(self, priority: int | None = None) -> float:
        """Mean seconds spent waiting for first admission (NaN with no records)."""
        samples = [r.queueing_delay_s for r in self._select(priority)]
        if not samples:
            return float("nan")
        return float(np.mean(samples))

    def mean_ttft_s(self, priority: int | None = None) -> float:
        """Mean time to first token, in seconds (NaN with no records)."""
        samples = [r.ttft_s for r in self._select(priority)]
        if not samples:
            return float("nan")
        return float(np.mean(samples))

    def percentile_ttft_s(self, percentile: float, priority: int | None = None) -> float:
        """TTFT percentile (e.g. ``percentile=99`` for p99), in seconds.

        NaN when no requests have completed.
        """
        samples = [r.ttft_s for r in self._select(priority)]
        if not samples:
            return float("nan")
        return float(np.percentile(samples, percentile))

    def percentile_tpot_s(self, percentile: float, priority: int | None = None) -> float:
        """Per-output-token latency percentile, in seconds.

        Computed over requests that actually decoded (more than one generated
        token); returns 0.0 when no request did.
        """
        samples = [
            r.time_per_output_token_s
            for r in self._select(priority)
            if r.generated_tokens > 1
        ]
        if not samples:
            return 0.0
        return float(np.percentile(samples, percentile))

    def mean_time_per_output_token_s(self, priority: int | None = None) -> float:
        """Mean per-token decode latency over requests that actually decoded.

        Requests whose only token came from prefill have no decode phase and
        are excluded rather than averaged in as zero.
        """
        samples = [
            r.time_per_output_token_s
            for r in self._select(priority)
            if r.generated_tokens > 1
        ]
        if not samples:
            return 0.0
        return float(np.mean(samples))

    def slo_attainment(
        self,
        ttft_slo_s: float,
        tpot_slo_s: float | None = None,
        priority: int | None = None,
    ) -> float:
        """Fraction of requests meeting the latency SLO (0.0–1.0).

        A request attains the SLO when its TTFT is at most ``ttft_slo_s``
        seconds and (when ``tpot_slo_s`` is given) its mean per-output-token
        latency is at most ``tpot_slo_s`` seconds.  NaN when no requests have
        completed (attainment over zero requests is undefined, not 100%).
        """
        records = self._select(priority)
        if not records:
            return float("nan")
        ok = 0
        for r in records:
            if r.ttft_s > ttft_slo_s:
                continue
            if tpot_slo_s is not None and r.time_per_output_token_s > tpot_slo_s:
                continue
            ok += 1
        return ok / len(records)

    def total_demotions(self, priority: int | None = None) -> int:
        """Total cold-tier demotion events across the recorded requests.

        The cheap counterpart of :meth:`total_preemptions` — the two together
        are every KV-pressure eviction the recorded requests suffered.
        """
        return int(sum(r.demotions for r in self._select(priority)))

    def total_restored_pages(self, priority: int | None = None) -> int:
        """Total KV pages restored from the cold tier, over the records."""
        return int(sum(r.restored_pages for r in self._select(priority)))

    def mean_restore_ms(self, priority: int | None = None) -> float:
        """Mean modeled restore latency over requests that restored pages, in ms.

        Requests that never touched the cold tier are excluded rather than
        averaged in as zero; 0.0 when nothing was restored.
        """
        samples = [
            r.restore_ms
            for r in self._select(priority)
            if r.restored_pages > 0 or r.restore_ms > 0
        ]
        if not samples:
            return 0.0
        return float(np.mean(samples))

    def total_draft_tokens_proposed(self, priority: int | None = None) -> int:
        """Total speculative draft tokens proposed, over the records."""
        return int(sum(r.draft_tokens_proposed for r in self._select(priority)))

    def total_draft_tokens_accepted(self, priority: int | None = None) -> int:
        """Total speculative draft tokens accepted, over the records."""
        return int(sum(r.draft_tokens_accepted for r in self._select(priority)))

    def draft_acceptance_rate(self, priority: int | None = None) -> float:
        """Pooled draft acceptance rate across the records (NaN when none proposed).

        Pooled (total accepted / total proposed) rather than a mean of
        per-request rates, so requests that speculated more weigh more.
        """
        proposed = self.total_draft_tokens_proposed(priority)
        if proposed == 0:
            return float("nan")
        return self.total_draft_tokens_accepted(priority) / proposed

    def mean_effective_tokens_per_step(self, priority: int | None = None) -> float:
        """Pooled tokens per speculative decode step (0.0 when none ran).

        ``(steps + accepted) / steps`` over all recorded speculative steps —
        the decode-iteration compression the records actually realised.
        """
        steps = int(sum(r.spec_decode_steps for r in self._select(priority)))
        if steps == 0:
            return 0.0
        return (steps + self.total_draft_tokens_accepted(priority)) / steps

    def total_generated_tokens(self) -> int:
        """Sum of generated tokens across all recorded requests."""
        return int(sum(r.generated_tokens for r in self.records))

    def mean_transfer_ms(self, priority: int | None = None) -> float:
        """Mean modeled hand-off latency over *migrated* requests, in ms.

        Requests served by one replica end to end carry no transfer and are
        excluded rather than averaged in as zero; 0.0 when nothing migrated.
        """
        samples = [
            r.transfer_ms
            for r in self._select(priority)
            if r.migrated_pages > 0 or r.transfer_ms > 0
        ]
        if not samples:
            return 0.0
        return float(np.mean(samples))

    def makespan_s(self) -> float:
        """Seconds from the first arrival to the last finish (0.0 with no records)."""
        records = self._select()
        if not records:
            return 0.0
        start = min(r.arrival_time_s for r in records)
        end = max(r.finish_time_s for r in records)
        return end - start

    def generation_throughput_tokens_s(self) -> float:
        """Generated tokens per wall-clock second across the whole run.

        0.0 when no requests have completed.
        """
        if not self.records:
            return 0.0
        span = self.makespan_s()
        if span <= 0:
            return float("inf")
        return self.total_generated_tokens() / span
