"""Disaggregated serving: a prefill tier, a decode tier, modeled KV hand-off.

:class:`DisaggregatedCluster` partitions its replicas into two pools, the
way DistServe / Mooncake-style deployments do:

* the **prefill pool** admits every new request and computes its prompt KV
  (emitting the first token);
* the **decode pool** owns the token-by-token generation phase.

Between the two, the request's KV pages are *migrated*: the prefill
replica's backend exports the sequence (``handoff_out`` — ref-counted pages
detach from the source allocator), the pages are charged a modeled transfer
delay from a :class:`~repro.gpu.cost_model.TransferCostModel`
(``bytes = pages × page_size × layers × heads × head_dim × 2 × kv_bits/8``,
``latency = base + bytes / bandwidth``), and the decode replica's backend
attaches them (``handoff_in`` — fresh ref-count-1 pages, bit-identical
images).  The delay is realised on the decode replica's **virtual clock**:
the request joins its decode batch no earlier than
``prefill_finish + transfer_latency``.

Why bother?  Colocated serving lets a 100K-token prefill stall every
decoding request on the same replica for the whole prefill; disaggregation
confines prefill bursts to the prefill pool, so the decode pool's inter-token
latency (TPOT) stays flat.  ``benchmarks/bench_disaggregation.py`` measures
exactly that — and verifies the migrated outputs stay byte-identical to a
single-replica run, with zero pages leaked on either allocator.

Both pools reuse the cluster routing policies: the prefill pool routes
round-robin and the decode pool ``least_kv`` (size-aware balance, since a
migrated request's KV is already known).  See ``docs/disaggregation.md`` for
the architecture diagram and the migration lifecycle.

Typical use::

    cluster = DisaggregatedCluster(
        prefill_backends=[make_backend(), make_backend()],
        decode_backends=[make_backend(), make_backend()],
        transfer_model=TransferCostModel(),
    )
    async with cluster:
        handle = cluster.submit(request)
        async for token in handle.stream():
            ...
    metrics = await cluster.drain()          # DisaggMetrics
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.cost_model import TransferCostModel
from repro.serving.backend import InferenceBackend
from repro.serving.cluster.cluster import ClusterRequestHandle, Replica, ServingCluster
from repro.serving.cluster.metrics import DisaggMetrics, render_cluster_prometheus
from repro.serving.cluster.router import LeastKVPolicy, RoundRobinPolicy
from repro.serving.frontend import AsyncRequestHandle, AsyncServingEngine
from repro.serving.metrics import render_gauge_value
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerConfig

__all__ = ["DisaggregatedCluster"]


class DisaggregatedCluster(ServingCluster):
    """Prefill/decode-tiered serving with modeled KV migration (see module doc).

    ``prefill_backends`` / ``decode_backends`` each supply one
    :class:`InferenceBackend` per replica of that pool (never share an
    instance — every replica owns its KV pool); their replicas are named
    ``prefill-{i}`` and ``decode-{i}``.  The prefill pool routes round-robin,
    the decode pool least-KV.  ``transfer_model`` prices each migration;
    ``scheduler_config`` applies to both tiers.
    ``decode_draft_sources`` optionally attaches one
    :class:`~repro.serving.speculative.DraftSource` per **decode** replica
    (prefill replicas finish at the first token, so speculation only ever
    runs on the decode tier); byte-exact verification plus deterministic
    draft sources keep pipeline restarts after a replica failure
    byte-identical.

    This *is* a :class:`~repro.serving.cluster.ServingCluster` — topology,
    lifecycle, ``submit`` / ``replay`` / ``drain`` / ``shutdown``, handles,
    quarantine, resubmission and gauges are inherited — whose replicas carry
    a ``"prefill"`` or ``"decode"`` role and whose per-request pump is the
    prefill→migrate→decode pipeline instead of a single stream.  Failure
    containment therefore carries over unchanged: a dead replica (either
    tier) is quarantined and its in-flight requests restart the whole
    pipeline on survivors, with already-delivered tokens deduplicated so
    streams stay byte-identical.
    """

    def __init__(
        self,
        prefill_backends: list[InferenceBackend],
        decode_backends: list[InferenceBackend],
        *,
        transfer_model: TransferCostModel | None = None,
        scheduler_config: SchedulerConfig | None = None,
        decode_draft_sources: list[object | None] | None = None,
    ) -> None:
        prefill_backends = list(prefill_backends)
        decode_backends = list(decode_backends)
        if not prefill_backends or not decode_backends:
            raise ValueError("disaggregation needs at least one replica per tier")
        if decode_draft_sources is None:
            decode_draft_sources = [None] * len(decode_backends)
        decode_draft_sources = list(decode_draft_sources)
        if len(decode_draft_sources) != len(decode_backends):
            raise ValueError(
                f"{len(decode_draft_sources)} decode_draft_sources for "
                f"{len(decode_backends)} decode backends"
            )
        self.transfer_model = transfer_model or TransferCostModel()
        self._routing = {"prefill": RoundRobinPolicy(), "decode": LeastKVPolicy()}
        prefill_replicas = [
            Replica(
                f"prefill-{i}", AsyncServingEngine(backend, scheduler_config), role="prefill"
            )
            for i, backend in enumerate(prefill_backends)
        ]
        decode_replicas = [
            Replica(
                f"decode-{i}",
                AsyncServingEngine(backend, scheduler_config, draft_source=draft),
                role="decode",
            )
            for i, (backend, draft) in enumerate(zip(decode_backends, decode_draft_sources))
        ]
        self._init_fleet(prefill_replicas + decode_replicas)
        #: Completed KV migrations (one per request that reached the decode tier).
        self.migrations_total = 0
        #: Physical pages moved across all migrations.
        self.migrated_pages_total = 0
        #: Modeled transfer seconds charged across all migrations.
        self.transfer_seconds_total = 0.0
        #: Requests that ended cancelled because the pipeline itself failed
        #: (the decode tier refused the adoption, a pool emptied under the
        #: request), by id.
        self.request_failures: dict[str, BaseException] = {}

    def tier_of(self) -> dict[str, str]:
        """Tier name per replica id (the label set for metrics)."""
        return {r.replica_id: r.role for r in self._replicas}

    # -- the pipeline ------------------------------------------------------------
    def _pool(self, role: str) -> list[Replica]:
        pool = [r for r in self.healthy_replicas if r.role == role]
        if not pool:
            raise RuntimeError(
                f"no healthy {role} replicas remain; "
                f"quarantined: {sorted(self.failures)}"
            )
        return pool

    def _route(self, request: Request, role: str = "prefill") -> Replica:
        return self._routing[role].choose(request, self._pool(role))

    def _dispatch(self, handle: ClusterRequestHandle, *, arrive_now: bool) -> None:
        # What submit() can refuse, it refuses here: no prefill replica left,
        # no decode replica left for a request that will need one (its
        # prefill would be spent and then aborted at migration), or a
        # request the prefill tier could never serve (a pool shares one
        # scheduler config and one model, so any member answers for all).
        # Routing and admission wait for the pump task, for reasons the code
        # does not show.  Submissions come in synchronous bursts (replay() of
        # an idle fleet never yields) and are admitted by their tasks later,
        # so only a policy consulted from the task sees the requests ahead of
        # it; consulted here, least_kv sends a whole burst to one replica.
        # And replay() paces the trace on the replicas' has_work: admitting
        # here, as the flat cluster does, makes it wait on the prefill tier
        # and moves every modeled latency (bench_disaggregation's chat p99
        # TPOT 0.0323 s -> 0.0443 s, flipping its headline check).
        self._pool("prefill")[0].engine.engine.validate(handle.request)
        if handle.request.max_new_tokens > 1:
            self._pool("decode")
        self._spawn(self._pump(handle, arrive_now=arrive_now), handle)

    async def _pump(self, handle: ClusterRequestHandle, *, arrive_now: bool) -> None:
        """One prefill→migrate→decode attempt; a replica failure resubmits it."""
        try:
            # -- prefill tier: compute the prompt KV, emit the first token ----
            prefill_replica = self._route(handle.request)
            try:
                rep_handle = prefill_replica.engine.submit(
                    replace(handle.request, max_new_tokens=1), arrive_now=arrive_now
                )
            except RuntimeError as exc:
                self._quarantine(prefill_replica, exc)
                self._resubmit(handle)
                return
            # Keep the prompt KV alive past retirement so it can be exported.
            prefill_replica.engine.engine.retain_kv_on_finish(handle.request_id)
            handle._attach(prefill_replica, rep_handle)
            if not await self._relay(handle, prefill_replica, rep_handle):
                return
            migrated = self._migrate(handle, prefill_replica, rep_handle)
            # -- decode tier: stream the rest of the generation ---------------
            if migrated is not None and await self._relay(handle, *migrated):
                self._retire(handle, cancelled=False)
        except Exception as exc:
            # A pipeline step itself failed (the decode tier refused the
            # adoption, a pool emptied under the request, ...).  Never strand
            # the consumer on a stream that will not end: record the failure
            # and end the handle.
            self.request_failures[handle.request_id] = exc
            self._retire(handle, cancelled=True)

    def _migrate(
        self,
        handle: ClusterRequestHandle,
        prefill_replica: Replica,
        rep_handle: AsyncRequestHandle,
    ) -> tuple[Replica, AsyncRequestHandle] | None:
        """Move a prefilled request's KV to a decode replica and adopt it there.

        Returns the decode replica and its stream handle, or ``None`` when
        the handle was settled here instead: nothing left to decode, or the
        chosen decode replica died (quarantine + resubmit).
        """
        sync = rep_handle._sync  # kept alive by the async handle after pruning
        first_tokens = list(sync.output_tokens)
        prefill_finish_s = sync.state.prefill_finish_time_s
        if prefill_finish_s is None:
            prefill_finish_s = prefill_replica.engine.engine.clock_s
        prefill_backend = prefill_replica.engine.engine.backend
        stopped = getattr(prefill_backend, "produces_logits", False) and (
            handle.request.sampling.is_stop(first_tokens[-1])
        )
        if handle._cancel_requested or handle.request.max_new_tokens == 1 or stopped:
            # Nothing left to decode (or the caller bailed): the retained KV
            # is released here instead of migrating.
            prefill_backend.release(handle.request_id)
            self._retire(handle, cancelled=handle._cancel_requested)
            return None

        # Export from the prefill pool and price the transfer.
        handoff = prefill_backend.handoff_out(handle.request_id)
        delay_s = handoff.transfer_latency_s(self.transfer_model)
        decode_replica = self._route(handle.request, "decode")
        decode_backend = decode_replica.engine.engine.backend
        try:
            decode_backend.handoff_in(handle.request_id, handoff)
            try:
                decode_handle = decode_replica.engine.adopt(
                    handle.request,
                    output_tokens=first_tokens,
                    rng=sync._rng,
                    prefill_finish_time_s=prefill_finish_s,
                    ready_time_s=prefill_finish_s + delay_s,
                    transfer_ms=delay_s * 1e3,
                    migrated_pages=handoff.n_pages,
                )
            except Exception:
                # The pages are attached but nothing will ever decode or
                # retire them: give them back before the error travels on.
                decode_backend.release(handle.request_id)
                raise
        except RuntimeError as exc:
            self._quarantine(decode_replica, exc)
            self._resubmit(handle)
            return None
        self.migrations_total += 1
        self.migrated_pages_total += handoff.n_pages
        self.transfer_seconds_total += delay_s
        handle._attach(decode_replica, decode_handle)
        return decode_replica, decode_handle

    # -- observability -----------------------------------------------------------
    @property
    def metrics(self) -> DisaggMetrics:
        """Per-replica + tier-aware fleet metrics (see :class:`DisaggMetrics`)."""
        return DisaggMetrics(
            per_replica={r.replica_id: r.engine.metrics for r in self._replicas},
            tier_of=self.tier_of(),
        )

    def prometheus_metrics(self) -> str:
        """The ``/metrics`` body: fleet + per-tier + per-replica series.

        Per-replica series carry ``{replica="...",tier="..."}`` labels and
        each tier gets merged ``repro_tier_*`` gauges; the migration
        counters (``repro_cluster_migrations_total``,
        ``repro_cluster_migrated_pages_total``,
        ``repro_cluster_transfer_seconds_total``) are appended.
        """
        body = render_cluster_prometheus(
            self.per_replica_gauges(),
            healthy=self.replica_health(),
            tiers=self.tier_of(),
        ).rstrip("\n")
        counters = [
            ("repro_cluster_migrations_total", self.migrations_total),
            ("repro_cluster_migrated_pages_total", self.migrated_pages_total),
            ("repro_cluster_transfer_seconds_total", self.transfer_seconds_total),
        ]
        lines = [body]
        for name, value in counters:
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {render_gauge_value(value)}")
        return "\n".join(lines) + "\n"
