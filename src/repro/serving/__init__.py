"""Serving framework: one backend API, one front door, one metrics path.

The package is organised around the :class:`~repro.serving.backend.InferenceBackend`
protocol — ``prefill(seq_id, tokens)``, ``decode_batch(seq_ids, token_ids)``,
``release(seq_id)`` plus uniform :class:`~repro.serving.backend.BackendWork`
accounting.  Two implementations exist:

* :class:`~repro.serving.backend.LServeBackend` — the real
  :class:`~repro.core.engine.LServeEngine` with multi-sequence batched decode;
  tokens actually flow through the sparse-attention model.
* :class:`~repro.serving.backend.SimulatedBackend` — the GPU cost model on a
  virtual clock, for scheduler-level experiments at paper scale.

:class:`~repro.serving.engine.ServingEngine` is the front door on top:
``submit(Request) -> RequestHandle``, ``step()``, ``run_until_complete()``,
and a ``generate()`` convenience with :class:`~repro.serving.sampling.SamplingParams`
(greedy / temperature / top-k, EOS and stop-token handling).  Scheduling is
policy-driven and preemptive: the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` admits requests
under a pluggable policy (FCFS / shortest-prompt-first / priority classes)
with best-effort high/low-watermark KV admission, and evicts running requests
under KV pressure (recompute-style preemption, replayed byte-identically on
resume).  Prefix sharing threads through the whole stack: backends report
``StepResult.prefix_hit_tokens`` for prompts attached from the KV prefix
cache, watermarks charge each request only for its *unique* KV, and a
backend-reported page exhaustion
(:class:`~repro.core.engine.DecodeOutOfPagesError`) preempts exactly the
failed sequences.  With a cold KV tier configured
(:class:`~repro.kvcache.tiering.KVTieringConfig` on either backend), pressure
victims are *demoted* instead — their KV pages move, bit-exact, to a
simulated host tier and re-admission pays a modeled
:class:`~repro.gpu.cost_model.TransferCostModel` restore instead of a full
recompute; see ``docs/kv_tiering.md``.  :mod:`repro.serving.workload`
generates seeded
Poisson/bursty request traces from scenario presets (including the
``"shared_prefix"`` multi-tenant/multi-turn regime), and TTFT / per-token
latency / throughput / SLO attainment are reported through the same
:class:`~repro.serving.metrics.ServingMetrics` records for every backend and
policy.

**Speculative decoding** (:mod:`repro.serving.speculative`) rides on the same
front door: attach a :class:`~repro.serving.speculative.DraftSource` to the
engine and opt requests in with ``SamplingParams.speculation_k`` — each decode
step then verifies up to ``k`` drafted tokens in one amortized chunk written
into the sequence's own pages, rewinds the sequence, and commits the longest
byte-exact prefix by advancing its token count; rejected rows stay past the
count until the next append overwrites them.  The chunks of
all batch members speculating in the same step — one or many — verify in one
*fused* call
(:meth:`~repro.core.engine.LServeEngine.decode_speculative_batch`), keeping
cross-request GEMM amortization at saturation.  Outputs are byte-identical to
a non-speculative run at any acceptance rate; acceptance rate and effective
tokens per step surface through :class:`~repro.serving.metrics.LiveGauges`,
per-request records, and Prometheus.  See ``docs/speculative.md``.

On top of the synchronous front door sits the **async serving layer**
(:mod:`repro.serving.frontend`): :class:`~repro.serving.frontend.AsyncServingEngine`
drives the step loop from a background asyncio task, accepts live submissions
mid-run, streams tokens per request (``async for token in handle.stream()``),
and supports cancellation and graceful drain/shutdown.
:class:`~repro.serving.http.CompletionServer` exposes it over dependency-free
HTTP (OpenAI-style ``POST /v1/completions`` with SSE streaming, plus
``/healthz`` and ``/metrics`` live gauges), and :mod:`repro.serving.client`
provides the matching async client and the open-loop trace load generator.

Horizontal scale-out lives in :mod:`repro.serving.cluster`:
:class:`~repro.serving.cluster.ServingCluster` routes requests across N
independent engine replicas under pluggable routing policies
(``round_robin`` / ``least_kv`` / ``prefix_affinity``), quarantines failed
replicas and resubmits their in-flight requests with byte-identical streams,
and merges per-replica metrics into fleet-wide
:class:`~repro.serving.cluster.ClusterMetrics` — servable over the same
HTTP front end.  :class:`~repro.serving.cluster.DisaggregatedCluster`
splits the fleet into prefill and decode tiers with modeled KV hand-off
(``backend.handoff_out`` → :class:`~repro.serving.backend.KVHandoff` →
``backend.handoff_in``, priced by
:class:`~repro.gpu.cost_model.TransferCostModel`), isolating decode latency
from long-prefill interference.
"""

from repro.serving.backend import (
    BackendWork,
    InferenceBackend,
    KVHandoff,
    LServeBackend,
    SimulatedBackend,
    SpecBatchResult,
    SpecStepResult,
    StepResult,
)
from repro.serving.client import CompletionClient, CompletionResult, replay_trace
from repro.serving.cluster import (
    ROUTING_POLICIES,
    ClusterMetrics,
    ClusterRequestHandle,
    DisaggMetrics,
    DisaggregatedCluster,
    LeastKVPolicy,
    PrefixAffinityPolicy,
    Replica,
    RoundRobinPolicy,
    RoutingPolicy,
    ServingCluster,
    make_routing_policy,
    merge_live_gauges,
    render_cluster_prometheus,
)
from repro.kvcache.tiering import (
    ColdTierError,
    ColdTierStore,
    KVTieringConfig,
)
from repro.serving.engine import RequestHandle, ServingEngine, StepOutcome
from repro.serving.frontend import (
    AsyncRequestHandle,
    AsyncServingEngine,
    RequestAborted,
)
from repro.serving.http import CompletionServer
from repro.serving.metrics import LiveGauges, RequestRecord, ServingMetrics
from repro.serving.request import Request, RequestState, RequestStatus
from repro.serving.sampling import SamplingParams, sample_token
from repro.serving.speculative import (
    DraftSource,
    ModeledDraft,
    NGramDraft,
    PrerecordedDraft,
)
from repro.serving.scheduler import (
    POLICIES,
    ContinuousBatchingScheduler,
    FCFSPolicy,
    PriorityPolicy,
    SchedulerConfig,
    SchedulingPolicy,
    ShortestPromptFirstPolicy,
    make_policy,
)
from repro.serving.workload import (
    SCENARIOS,
    RequestClass,
    WorkloadGenerator,
    WorkloadSpec,
    arrival_offsets,
    scenario,
)

__all__ = [
    "BackendWork",
    "InferenceBackend",
    "KVHandoff",
    "LServeBackend",
    "SimulatedBackend",
    "StepResult",
    "SpecStepResult",
    "SpecBatchResult",
    "DraftSource",
    "NGramDraft",
    "ModeledDraft",
    "PrerecordedDraft",
    "KVTieringConfig",
    "ColdTierStore",
    "ColdTierError",
    "RequestHandle",
    "ServingEngine",
    "StepOutcome",
    "AsyncRequestHandle",
    "AsyncServingEngine",
    "RequestAborted",
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
    "CompletionServer",
    "CompletionClient",
    "CompletionResult",
    "replay_trace",
    "LiveGauges",
    "Request",
    "RequestState",
    "RequestStatus",
    "ContinuousBatchingScheduler",
    "SchedulerConfig",
    "SchedulingPolicy",
    "FCFSPolicy",
    "ShortestPromptFirstPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "SamplingParams",
    "sample_token",
    "ServingMetrics",
    "RequestRecord",
    "WorkloadSpec",
    "RequestClass",
    "WorkloadGenerator",
    "SCENARIOS",
    "scenario",
    "arrival_offsets",
]
