"""The serving cluster: a KV/prefix-aware router over N engine replicas.

:class:`ServingCluster` scales the single-engine front end horizontally:
each replica is an independent :class:`~repro.serving.frontend.AsyncServingEngine`
over its **own** :class:`~repro.serving.backend.InferenceBackend` (its own KV
pool, prefix cache, scheduler, and virtual clock), and a pluggable
:class:`~repro.serving.cluster.router.RoutingPolicy` decides which replica
serves each submission.  The cluster adds *placement and containment*, not
execution semantics — a request, once routed, is served exactly as the
single-engine front end would serve it, so per-request outputs remain
byte-identical to a one-replica run of the same request.

Failure containment: a replica whose drive loop dies (backend bug,
unservable pool) is **quarantined** — removed from routing, its failure
recorded — and every request that was in flight on it is **resubmitted** to
a surviving replica.  Backends are deterministic (seeded sampling), so the
replacement regenerates the same token sequence; the cluster skips the
tokens it already delivered and streams the rest, keeping the consumer's
stream byte-identical to an undisturbed run.  Consumers never observe the
failure beyond added latency.

Typical use::

    backends = [SimulatedBackend(latency) for _ in range(4)]
    async with ServingCluster(backends, routing="least_kv") as cluster:
        handle = cluster.submit(request)
        async for token in handle.stream():
            ...
    # or, for a workload trace in virtual time:
    handles = await cluster.replay(requests)
    metrics = await cluster.drain()          # ClusterMetrics

See ``docs/cluster.md`` for the architecture diagram, the routing-policy
decision table, and the failure lifecycle.
"""

from __future__ import annotations

import asyncio

from repro.serving.backend import InferenceBackend
from repro.serving.cluster.metrics import (
    ClusterMetrics,
    merge_live_gauges,
    render_cluster_prometheus,
)
from repro.serving.cluster.router import RoutingPolicy, make_routing_policy
from repro.serving.frontend import AsyncRequestHandle, AsyncServingEngine, RequestAborted
from repro.serving.metrics import LiveGauges
from repro.serving.request import Request
from repro.serving.sampling import SamplingParams
from repro.serving.scheduler import SchedulerConfig

__all__ = ["Replica", "ClusterRequestHandle", "ServingCluster"]

#: Stream sentinel: pushed into a handle's queue when no more tokens will come.
_DONE = object()


class Replica:
    """One engine replica inside a :class:`ServingCluster`.

    Routing policies receive these: ``replica_id`` identifies the replica,
    ``live_gauges()`` snapshots its load.  ``healthy`` flips to ``False``
    when the replica is quarantined; ``failure`` then records why.  ``role``
    names the replica's serving tier — ``"colocated"`` (the default: prefill
    and decode on the same replica) or ``"prefill"`` / ``"decode"`` in a
    disaggregated deployment.
    """

    def __init__(
        self, replica_id: str, engine: AsyncServingEngine, role: str = "colocated"
    ) -> None:
        self.replica_id = replica_id
        self.engine = engine
        self.role = role
        self.healthy = True
        self.failure: BaseException | None = None

    def live_gauges(self) -> LiveGauges:
        """The replica engine's instantaneous queue/batch/KV gauges."""
        return self.engine.live_gauges()


class ClusterRequestHandle:
    """Async view of one cluster request: stream, await, or cancel it.

    Mirrors :class:`~repro.serving.frontend.AsyncRequestHandle` — same
    ``stream()`` / ``result()`` / ``cancel()`` contract, one consumer per
    handle — but survives replica failure: when the serving replica dies the
    handle is transparently re-pumped from the replacement replica's stream,
    with already-delivered tokens deduplicated, so the consumer-visible
    token sequence is unaffected.  ``resubmissions`` counts the migrations.
    """

    def __init__(self, request: Request, cluster: "ServingCluster") -> None:
        self._request = request
        self._cluster = cluster
        self._queue: asyncio.Queue = asyncio.Queue()
        self._done = asyncio.Event()
        self._tokens: list[int] = []
        self._cancel_requested = False
        self._cancelled = False
        self._replica: Replica | None = None
        self._rep_handle: AsyncRequestHandle | None = None
        # Replay dedupe: tokens the consumer already has that a replacement
        # replica will regenerate first (set by ServingCluster._resubmit).
        self._skip = 0
        #: Times this request was migrated to a new replica after a failure.
        self.resubmissions = 0

    @property
    def request_id(self) -> str:
        """The request's unique id."""
        return self._request.request_id

    @property
    def request(self) -> Request:
        """The immutable request this handle tracks."""
        return self._request

    @property
    def replica_id(self) -> str | None:
        """Id of the replica currently (or last) serving this request."""
        return self._replica.replica_id if self._replica is not None else None

    @property
    def output_tokens(self) -> list[int]:
        """Tokens delivered so far (a snapshot copy)."""
        return list(self._tokens)

    @property
    def finished(self) -> bool:
        """Whether the request is terminal (completed or cancelled)."""
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        """Whether the request ended without completing (cancel or total failure)."""
        return self._cancelled

    async def stream(self):
        """Async-iterate tokens as the fleet emits them (first yield == TTFT).

        Replica failures are invisible here beyond latency: the iterator
        continues from the replacement replica without repeating or dropping
        a token.  Ends after the last token, or early (without error) when
        the request is cancelled or no healthy replica remains.
        """
        while True:
            token = await self._queue.get()
            if token is _DONE:
                return
            yield token

    async def result(self) -> list[int]:
        """Await completion and return the full output token list.

        Raises :class:`~repro.serving.frontend.RequestAborted` (carrying the
        partial tokens) when the request was cancelled or every replica that
        could serve it failed.
        """
        await self._done.wait()
        if self._cancelled:
            raise RequestAborted(self.request_id, self.output_tokens)
        return self.output_tokens

    def cancel(self) -> bool:
        """Abort the request (idempotent); returns ``True`` if it was live.

        The serving replica releases the request's KV through the same path
        preemption uses; a cancellation that races a replica failure wins —
        the request is not resubmitted.
        """
        if self.finished:
            return False
        self._cancel_requested = True
        if self._rep_handle is not None and not self._rep_handle.finished:
            self._rep_handle.cancel()
        return True

    # -- cluster-side delivery ---------------------------------------------------
    def _attach(self, replica: Replica, rep_handle: AsyncRequestHandle) -> None:
        self._replica = replica
        self._rep_handle = rep_handle
        if self._cancel_requested:
            # cancel() ran while no replica stream was attached (a two-pool
            # fleet admits in the pump task, after submit() has returned the
            # handle); it must still reach this one.
            rep_handle.cancel()

    def _push(self, token: int) -> None:
        if self._skip:
            self._skip -= 1
            return
        self._tokens.append(token)
        self._queue.put_nowait(token)

    def _finish(self, cancelled: bool) -> None:
        if not self._done.is_set():
            self._cancelled = cancelled
            self._queue.put_nowait(_DONE)
            self._done.set()


class ServingCluster:
    """Route requests across N independent engine replicas (see module docstring).

    ``backends`` supplies one :class:`InferenceBackend` **per replica** —
    replicas never share KV state; build each backend separately.
    ``routing`` is a registry name (``"round_robin"`` / ``"least_kv"`` /
    ``"prefix_affinity"``) or a :class:`RoutingPolicy` instance.
    ``scheduler_config`` and ``default_sampling`` apply to every replica.
    ``draft_sources`` optionally attaches one
    :class:`~repro.serving.speculative.DraftSource` **per replica** (draft
    sources may hold per-request state, so replicas must not share one);
    requests opting in via ``SamplingParams.speculation_k`` then decode
    speculatively, and — because verification is byte-exact and draft
    sources are deterministic — a resubmission after replica failure
    replays identically on the surviving replica.

    Use as an async context manager (``async with ServingCluster(...)``), or
    call :meth:`start` / :meth:`shutdown` yourself.  Like the single-engine
    front end, everything runs on one event loop; a cluster is a set of
    cooperating tasks, not threads.
    """

    def __init__(
        self,
        backends: list[InferenceBackend],
        scheduler_config: SchedulerConfig | None = None,
        routing: str | RoutingPolicy = "round_robin",
        default_sampling: SamplingParams | None = None,
        replica_ids: list[str] | None = None,
        draft_sources: list[object | None] | None = None,
    ) -> None:
        backends = list(backends)
        if not backends:
            raise ValueError("a cluster needs at least one backend replica")
        if draft_sources is None:
            draft_sources = [None] * len(backends)
        draft_sources = list(draft_sources)
        if len(draft_sources) != len(backends):
            raise ValueError(
                f"{len(draft_sources)} draft_sources for {len(backends)} backends"
            )
        if replica_ids is None:
            replica_ids = [f"replica-{i}" for i in range(len(backends))]
        if len(replica_ids) != len(backends):
            raise ValueError(
                f"{len(replica_ids)} replica_ids for {len(backends)} backends"
            )
        self.routing = make_routing_policy(routing)
        self._init_fleet(
            [
                Replica(
                    rid,
                    AsyncServingEngine(
                        backend, scheduler_config, default_sampling, draft_source=draft
                    ),
                )
                for rid, backend, draft in zip(replica_ids, backends, draft_sources)
            ]
        )

    def _init_fleet(self, replicas: list[Replica]) -> None:
        """The constructor tail every fleet shape shares: check, then own, the replicas."""
        ids = [r.replica_id for r in replicas]
        if len(set(ids)) != len(ids):
            raise ValueError("replica ids must be unique")
        if len({id(r.engine.engine.backend) for r in replicas}) != len(replicas):
            raise ValueError(
                "replicas must not share a backend instance; each replica owns "
                "its KV pool — construct one backend per replica"
            )
        self._replicas = replicas
        self._handles: dict[str, ClusterRequestHandle] = {}
        self._pumps: set[asyncio.Task] = set()
        self._draining = False
        #: Total request migrations performed after replica failures.
        self.total_resubmissions = 0

    @classmethod
    def build(
        cls,
        backend_factory,
        n_replicas: int,
        scheduler_config: SchedulerConfig | None = None,
        routing: str | RoutingPolicy = "round_robin",
        default_sampling: SamplingParams | None = None,
        draft_source_factory=None,
    ) -> "ServingCluster":
        """Construct a cluster of ``n_replicas`` backends from a factory.

        ``backend_factory()`` is called once per replica so every replica
        gets its own KV state; ``draft_source_factory()`` (optional) is
        likewise called once per replica so stateful draft sources are
        never shared.
        """
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        return cls(
            [backend_factory() for _ in range(n_replicas)],
            scheduler_config,
            routing,
            default_sampling,
            draft_sources=(
                None
                if draft_source_factory is None
                else [draft_source_factory() for _ in range(n_replicas)]
            ),
        )

    # -- topology ----------------------------------------------------------------
    @property
    def replicas(self) -> list[Replica]:
        """Every replica (healthy and quarantined), in creation order."""
        return list(self._replicas)

    @property
    def healthy_replicas(self) -> list[Replica]:
        """Replicas currently eligible for routing."""
        return [r for r in self._replicas if r.healthy]

    @property
    def num_replicas(self) -> int:
        """Total replica count (healthy and quarantined)."""
        return len(self._replicas)

    def replica_health(self) -> dict[str, bool]:
        """Health flag per replica id (``False`` = quarantined)."""
        return {r.replica_id: r.healthy for r in self._replicas}

    def pools(self) -> dict[str, list[str]]:
        """Replica ids grouped by serving role (tier), in creation order.

        A homogeneous cluster reports one ``"colocated"`` pool;
        :class:`~repro.serving.cluster.disagg.DisaggregatedCluster` reports
        its ``"prefill"`` / ``"decode"`` pools.  Surfaced by the
        HTTP front end's ``GET /healthz``.
        """
        pools: dict[str, list[str]] = {}
        for replica in self._replicas:
            pools.setdefault(replica.role, []).append(replica.replica_id)
        return pools

    @property
    def failures(self) -> dict[str, BaseException]:
        """The exception that killed each quarantined replica, by id."""
        return {
            r.replica_id: r.failure
            for r in self._replicas
            if not r.healthy and r.failure is not None
        }

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start every healthy replica's drive loop (idempotent; needs a loop)."""
        if self._draining:
            raise RuntimeError("cluster is draining or shut down; create a new one")
        for replica in self.healthy_replicas:
            if replica.engine.failure is not None:
                # Its drive loop died and the pumps relaying from it have not
                # run yet; starting it would raise for whoever called us (an
                # unrelated submit).  Those pumps resubmit their own requests.
                self._quarantine(replica, replica.engine.failure)
            else:
                replica.engine.start()

    async def __aenter__(self) -> "ServingCluster":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    async def drain(self) -> ClusterMetrics:
        """Serve everything in flight to completion, refusing new submissions.

        In-flight requests finish first (replica failures during the drain
        still resubmit — replicas are only wound down once nothing is in
        flight anywhere), then every healthy replica's drive loop is
        stopped.  Returns the fleet's :class:`ClusterMetrics`.
        """
        self._draining = True
        await self._await_pumps()
        for replica in self._replicas:
            if replica.healthy:
                await replica.engine.drain()
        return self.metrics

    async def shutdown(self) -> None:
        """Abort everything still in flight and stop every replica."""
        self._draining = True
        for handle in list(self._handles.values()):
            handle.cancel()
        await self._await_pumps()
        for replica in self._replicas:
            if replica.healthy:
                await replica.engine.shutdown()

    async def _await_pumps(self) -> None:
        # Resubmission spawns new pumps, so drain the set to a fixed point.
        while self._pumps:
            await asyncio.gather(*list(self._pumps))

    # -- submission --------------------------------------------------------------
    def submit(self, request: Request, *, arrive_now: bool = False) -> ClusterRequestHandle:
        """Route a request to a replica and return its cluster-level handle.

        ``arrive_now`` has the replica stamp the request's arrival with its
        current virtual clock (live-traffic semantics, what the HTTP front
        end uses); leave it off when replaying a trace whose arrival times
        are the experiment.  Raises ``RuntimeError`` when the cluster is
        draining or no healthy replica remains, ``ValueError`` for a
        duplicate in-flight request id or a request the replica refuses at
        its door (out-of-range token ids, a footprint over its KV budget);
        a refused request leaves no handle behind.
        """
        if self._draining:
            raise RuntimeError("cluster is draining or shut down; submission refused")
        if request.request_id in self._handles:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self.start()
        handle = ClusterRequestHandle(request, self)
        self._handles[request.request_id] = handle
        try:
            self._dispatch(handle, arrive_now=arrive_now)
        except (RuntimeError, ValueError):
            # Refused at the door — no healthy replica, or a request the
            # replica could never serve: it was never in flight here.
            del self._handles[request.request_id]
            raise
        return handle

    async def replay(self, requests: list[Request]) -> list[ClusterRequestHandle]:
        """Submit a workload trace in virtual-time order across the fleet.

        Requests are routed in arrival order, and each submission waits until
        every busy replica's virtual clock has reached the request's
        ``arrival_time_s`` — so routing decisions see the gauges each replica
        would actually show at that arrival (a replica that is already past
        the arrival time admits the request immediately and the wait counts
        as queueing delay, exactly like a late arrival on one engine).
        Returns the handles in submission order; callers typically
        ``await cluster.drain()`` afterwards.
        """
        self.start()
        handles = []
        for request in sorted(requests, key=lambda r: r.arrival_time_s):
            await self._advance_clocks_to(request.arrival_time_s)
            handles.append(self.submit(request))
        return handles

    async def _advance_clocks_to(self, arrival_time_s: float) -> None:
        while any(
            r.healthy
            and r.engine.engine.has_work
            and r.engine.engine.clock_s < arrival_time_s
            for r in self._replicas
        ):
            await asyncio.sleep(0)

    def handle(self, request_id: str) -> ClusterRequestHandle:
        """Look up the handle of an *in-flight* request (pruned when terminal)."""
        return self._handles[request_id]

    def abort(self, request_id: str) -> bool:
        """Abort an in-flight request by id; ``False`` if it is not in flight."""
        handle = self._handles.get(request_id)
        if handle is None:
            return False
        return handle.cancel()

    # -- routing + containment ---------------------------------------------------
    def _route(self, request: Request) -> Replica:
        candidates = self.healthy_replicas
        if not candidates:
            raise RuntimeError(
                "no healthy replicas remain; "
                f"quarantined: {sorted(self.failures)}"
            )
        return self.routing.choose(request, candidates)

    def _dispatch(self, handle: ClusterRequestHandle, *, arrive_now: bool) -> None:
        """Route the request and start serving it (``RuntimeError``: nowhere to)."""
        replica = self._route(handle.request)
        try:
            rep_handle = replica.engine.submit(handle.request, arrive_now=arrive_now)
        except RuntimeError as exc:
            # The replica died (or began failing) between routing and submit.
            self._quarantine(replica, exc)
            self._resubmit(handle)
            return
        handle._attach(replica, rep_handle)
        self._spawn(self._pump(handle, replica, rep_handle), handle)

    def _spawn(self, pump, handle: ClusterRequestHandle) -> None:
        task = asyncio.get_running_loop().create_task(
            pump, name=f"cluster-pump-{handle.request_id}"
        )
        self._pumps.add(task)
        task.add_done_callback(self._pumps.discard)

    async def _pump(
        self,
        handle: ClusterRequestHandle,
        replica: Replica,
        rep_handle: AsyncRequestHandle,
    ) -> None:
        """Serve the request from the one replica stream it was admitted to."""
        if await self._relay(handle, replica, rep_handle):
            self._retire(handle, cancelled=False)

    async def _relay(
        self,
        handle: ClusterRequestHandle,
        replica: Replica,
        rep_handle: AsyncRequestHandle,
    ) -> bool:
        """Forward one replica stream into the cluster handle; ``True`` if it completed.

        Otherwise the handle is settled here — retired as cancelled, or, when
        the replica died, resubmitted to a survivor — and the caller is done
        with it.
        """
        async for token in rep_handle.stream():
            handle._push(token)
        # Only "finished and not cancelled" is a successful completion.  A
        # stream that ended with the request in any other state (cancelled,
        # or stuck non-terminal because the dying replica's cleanup itself
        # raised) must never be retired as success — that would hand the
        # consumer a silently truncated output.
        if rep_handle.finished and not rep_handle.cancelled:
            return True
        if replica.engine.failure is not None:
            # A dead replica leaves routing even when the consumer cancelled
            # first; left healthy, drain() and shutdown() would re-raise its
            # failure.  _resubmit retires a cancelled handle.
            self._quarantine(replica, replica.engine.failure)
            self._resubmit(handle)
        else:
            # Cancelled, through the cluster or on the replica engine directly.
            self._retire(handle, cancelled=True)
        return False

    def _retire(self, handle: ClusterRequestHandle, *, cancelled: bool) -> None:
        handle._finish(cancelled)
        self._handles.pop(handle.request_id, None)

    def _quarantine(self, replica: Replica, failure: BaseException) -> None:
        if not replica.healthy:
            return
        replica.healthy = False
        replica.failure = failure

    def _resubmit(self, handle: ClusterRequestHandle) -> None:
        """Migrate a failed replica's request to a surviving replica.

        The request arrives "now" on the replacement (its latency accounting
        restarts there — replica clocks are independent).  With no survivors,
        or when a cancellation raced the failure, the handle ends cancelled.

        The replacement regenerates from scratch; backends are deterministic,
        so its first ``len(handle._tokens)`` tokens replay what the consumer
        already received and are dropped, keeping the delivered stream
        byte-identical.
        """
        if handle._cancel_requested:
            self._retire(handle, cancelled=True)
            return
        handle._skip = len(handle._tokens)
        try:
            self._dispatch(handle, arrive_now=True)
        except RuntimeError:
            self._retire(handle, cancelled=True)
            return
        handle.resubmissions += 1
        self.total_resubmissions += 1

    # -- observability -----------------------------------------------------------
    @property
    def metrics(self) -> ClusterMetrics:
        """Per-replica + fleet-wide completed-request metrics.

        Quarantined replicas' completed records are included — requests they
        finished before dying completed normally.
        """
        return ClusterMetrics(
            per_replica={r.replica_id: r.engine.metrics for r in self._replicas}
        )

    @property
    def default_sampling(self) -> SamplingParams:
        """The fleet-wide sampling default (same on every replica)."""
        return self._replicas[0].engine.default_sampling

    def live_gauges(self) -> LiveGauges:
        """Fleet-wide gauge snapshot (per-replica gauges merged by summation)."""
        return merge_live_gauges([r.live_gauges() for r in self._replicas])

    def per_replica_gauges(self) -> dict[str, LiveGauges]:
        """Gauge snapshot per replica id, in creation order."""
        return {r.replica_id: r.live_gauges() for r in self._replicas}

    def prometheus_metrics(self) -> str:
        """The combined ``/metrics`` body: fleet aggregates + labelled replicas."""
        return render_cluster_prometheus(
            self.per_replica_gauges(), healthy=self.replica_health()
        )
