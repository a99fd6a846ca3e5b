"""The serving front door: submit requests, step the system, collect metrics.

:class:`ServingEngine` is the single entry point for serving under continuous
batching.  It owns the policy-driven preemptive scheduler, a virtual clock,
and an :class:`~repro.serving.backend.InferenceBackend` that does the work —
the real :class:`~repro.serving.backend.LServeBackend` or the cost-model
:class:`~repro.serving.backend.SimulatedBackend`.  Token ids flow through the
backend on every scheduler decision, so TTFT / throughput metrics, scheduler
decisions, and engine work statistics all come from the *same* run.

Preemption is **recompute-style**: when the scheduler evicts a running
request under KV pressure the engine releases its backend KV; on
re-admission it re-prefills the prompt and *replays* the already-generated
tokens through the backend (billing the recompute time) so the rebuilt KV
state — and therefore every subsequent token — is byte-identical to an
uninterrupted run.

Typical use::

    engine = ServingEngine(backend)
    handle = engine.submit(Request.from_prompt("req-0", prompt_ids, max_new_tokens=64))
    metrics = engine.run_until_complete()
    print(handle.output_tokens, metrics.mean_ttft_s())
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import DecodeOutOfPagesError
from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.tiering import ColdTierStore
from repro.serving.backend import InferenceBackend, KVHandoff
from repro.serving.metrics import LiveGauges, RequestRecord, ServingMetrics
from repro.serving.request import Request, RequestState, RequestStatus
from repro.serving.sampling import SamplingParams, sample_token
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig

__all__ = ["RequestHandle", "StepOutcome", "ServingEngine"]

#: Token id fed through content-free backends (no logits to sample from).
PLACEHOLDER_TOKEN = 0


@dataclass
class RequestHandle:
    """Live view of one submitted request.

    ``transfer_ms`` / ``migrated_pages`` carry the modeled KV hand-off cost
    for requests adopted from another serving tier (see
    :meth:`ServingEngine.adopt`); both are zero for ordinary submissions.
    ``retain_kv`` marks a request whose backend KV must survive retirement
    because a disaggregated cluster will hand it off to a decode tier
    (:meth:`ServingEngine.retain_kv_on_finish`).  ``restored_pages`` /
    ``restore_ms`` accumulate the request's cold-KV-tier restore traffic
    (sequence restores plus cold prefix pages re-attached at prefill).
    ``draft_tokens_proposed`` / ``draft_tokens_accepted`` /
    ``spec_decode_steps`` accumulate the request's speculative-decoding
    activity (all zero without a draft source).
    """

    request: Request
    state: RequestState
    output_tokens: list[int] = field(default_factory=list)
    record: RequestRecord | None = None
    transfer_ms: float = 0.0
    migrated_pages: int = 0
    retain_kv: bool = False
    restored_pages: int = 0
    restore_ms: float = 0.0
    draft_tokens_proposed: int = 0
    draft_tokens_accepted: int = 0
    spec_decode_steps: int = 0
    _rng: np.random.Generator | None = None
    #: Resolved sampling parameters (request override or engine default),
    #: computed once at submission so the per-token decode loop never
    #: re-resolves them.
    _params: SamplingParams | None = None

    @property
    def request_id(self) -> str:
        """The request's unique id."""
        return self.request.request_id

    @property
    def finished(self) -> bool:
        """Whether the request is terminal (all tokens produced, or aborted)."""
        return self.state.is_terminal

    @property
    def cancelled(self) -> bool:
        """Whether the request was aborted before finishing."""
        return self.state.is_cancelled

    @property
    def seq_id(self) -> str:
        """The backend sequence id this request's KV lives under."""
        return self.request.request_id


@dataclass(frozen=True)
class StepOutcome:
    """What one call to :meth:`ServingEngine.step` did.

    ``kind`` is ``"prefill"`` (a fresh request was admitted and prefilled),
    ``"resume"`` (a preempted request was re-admitted and its KV recomputed),
    ``"restore"`` (a demoted request's KV was transferred back from the cold
    tier), ``"decode"`` (one decode iteration over the running batch),
    ``"attach"`` (an adopted request's migrated KV joined the decode batch,
    see :meth:`ServingEngine.adopt`), or ``"idle"`` (the clock jumped to the
    next arrival).  ``preempted_ids`` lists requests evicted under KV
    pressure immediately before a decode iteration (KV released, recompute on
    re-admission); ``demoted_ids`` lists requests whose KV was instead parked
    in the cold tier (transfer-restore on re-admission).

    ``emitted_tokens`` reports every token the step produced, in order, as
    ``(request_id, token_id)`` pairs — one pair for a prefill (the first
    token), one *or more* per batch member for a decode (a speculative
    request emits its verified token plus every accepted draft), none for
    resume/idle steps (recompute replays previously emitted tokens; it never
    re-emits them).  This is what streaming front ends consume: each step's
    emissions can be delivered to per-request streams the moment the step
    returns.

    ``draft_proposed`` / ``draft_accepted`` count the step's speculative
    draft tokens (both 0 on non-speculative steps) — the per-step acceptance
    bookkeeping behind the engine's lifetime gauges.
    """

    kind: str  # "prefill" | "resume" | "restore" | "decode" | "attach" | "idle"
    clock_s: float
    elapsed_s: float
    request_ids: tuple[str, ...] = ()
    finished_ids: tuple[str, ...] = ()
    preempted_ids: tuple[str, ...] = ()
    demoted_ids: tuple[str, ...] = ()
    emitted_tokens: tuple[tuple[str, int], ...] = ()
    draft_proposed: int = 0
    draft_accepted: int = 0


class ServingEngine:
    """Continuous-batching serving loop over any :class:`InferenceBackend`."""

    def __init__(
        self,
        backend: InferenceBackend,
        scheduler_config: SchedulerConfig | None = None,
        default_sampling: SamplingParams | None = None,
        draft_source=None,
        adaptive_k=None,
    ) -> None:
        """``draft_source`` enables speculative decoding.

        Any :class:`~repro.serving.speculative.DraftSource`; requests opt in
        per-request via ``SamplingParams.speculation_k > 0``.  Speculation
        needs a backend exposing ``decode_speculative_batch`` /
        ``commit_speculative`` — without them the draft source is ignored
        and every request decodes plainly.  Each step verifies the chunks of
        all its speculating members, one or many, in one fused call.

        ``adaptive_k`` is an optional
        :class:`~repro.serving.speculative.AdaptiveKPolicy`: each request's
        effective speculation depth follows its rolling acceptance rate
        instead of staying pinned at ``SamplingParams.speculation_k``.  The
        policy only reshapes *scheduling* (chunk sizes); emitted tokens stay
        byte-identical because verification samples from the request's own
        rng either way.
        """
        self.backend = backend
        self.scheduler = ContinuousBatchingScheduler(scheduler_config or SchedulerConfig())
        self.default_sampling = default_sampling or SamplingParams()
        self.draft_source = draft_source
        self.adaptive_k = adaptive_k
        #: Lifetime speculative-decoding counters (live-gauge support).
        self.draft_tokens_proposed = 0
        self.draft_tokens_accepted = 0
        self.spec_decode_steps = 0
        self._backend_spec_batch = getattr(backend, "decode_speculative_batch", None)
        self._backend_commit = getattr(backend, "commit_speculative", None)
        #: Last effective speculation k per live speculating request — the
        #: source for the ``speculation_k`` live-gauge series.
        self._spec_k_last: dict[str, int] = {}
        self.clock_s = 0.0
        self.metrics = ServingMetrics()
        #: Scheduler decision trace ("prefill:<id>" / "resume:<id>" /
        #: "preempt:<id>" / "decode:<id>,<id>,..."), identical across backends
        #: for the same request trace.
        self.decision_log: list[str] = []
        #: Tokens re-prefilled / re-decoded to rebuild preempted requests' KV.
        #: Replay calls are real backend work and are counted in
        #: ``backend.work`` like any other prefill/decode call; these counters
        #: let analyses separate recompute overhead from first-pass serving
        #: work (e.g. ``work.decode_tokens - recompute_decode_tokens``).
        self.recompute_prefill_tokens = 0
        self.recompute_decode_tokens = 0
        #: Ids of requests withdrawn via :meth:`abort`, in abort order.
        self.aborted_ids: list[str] = []
        self._handles: dict[str, RequestHandle] = {}
        # Optional backend gauge accessor, resolved once (the backend is
        # fixed for the engine's lifetime; live_gauges runs per step).
        self._backend_kv_gauge = getattr(backend, "kv_tokens_in_use", None)
        #: The cold KV tier (``None`` when the backend carries no
        #: ``tiering``): a demotion is a ``backend.handoff_out`` parked here,
        #: a restore hands it back in through ``backend.handoff_in``.
        self._tiering = getattr(backend, "tiering", None)
        self.cold_store = (
            ColdTierStore(self._tiering.max_cold_pages) if self._tiering is not None else None
        )
        self._arrivals: list[Request] = []  # sorted by arrival time (FCFS ties stable)
        #: Ids adopted via :meth:`adopt` whose migrated KV is materialised on
        #: the backend but not yet attached to the decode batch.
        self._adopted_ready: set[str] = set()

    # -- submission ---------------------------------------------------------------
    def validate(self, request: Request) -> None:
        """Raise ``ValueError`` if this engine could never serve ``request``.

        The door check :meth:`submit` and :meth:`adopt` both run — token
        content the backend cannot serve, a footprint the scheduler's KV
        budget cannot hold — callable on its own by a front end that has to
        refuse a request before it takes it on.
        """
        self._validate_token_content(request)
        self.scheduler.config.validate_request_fits(request)

    def submit(self, request: Request) -> RequestHandle:
        """Register a request; it is admitted once the clock reaches its arrival."""
        if request.request_id in self._handles:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self.validate(request)
        handle = RequestHandle(request=request, state=RequestState(request=request))
        params = request.sampling or self.default_sampling
        handle._params = params
        handle._rng = np.random.default_rng(params.seed)
        self._handles[request.request_id] = handle
        insort(self._arrivals, request, key=lambda r: r.arrival_time_s)
        return handle

    def adopt(
        self,
        request: Request,
        *,
        output_tokens: list[int],
        rng: np.random.Generator | None = None,
        prefill_finish_time_s: float,
        ready_time_s: float,
        transfer_ms: float = 0.0,
        migrated_pages: int = 0,
    ) -> RequestHandle:
        """Take over a request whose prompt KV was migrated from another tier.

        The disaggregated-serving hand-off path: a *prefill* replica computed
        the prompt KV and the first token(s); the pages were imported into
        this engine's backend (``backend.handoff_in``) and this engine now
        owns the decode phase.  ``output_tokens`` are the tokens already
        produced (at least the prefill token), ``rng`` is the request's
        sampling generator carried over so later sampled tokens match a
        single-replica run, ``prefill_finish_time_s`` preserves the true
        first-token timestamp, and ``ready_time_s`` is when the migrated KV
        becomes usable here (prefill finish + modeled transfer latency) — the
        request joins the decode batch no earlier than that, so the transfer
        delay is realised on this engine's virtual clock.

        The returned handle keeps the *original* request (true arrival time),
        so its eventual :class:`~repro.serving.metrics.RequestRecord` reports
        end-to-end TTFT/TPOT across both tiers plus ``transfer_ms`` /
        ``migrated_pages``.  The backend KV must already exist under the
        request id; it is accounted by the scheduler once the request attaches
        (a one-step accounting gap that mirrors in-flight transfers).
        """
        if request.request_id in self._handles:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        if not output_tokens:
            raise ValueError("adopt() requires at least the prefill token")
        if len(output_tokens) >= request.max_new_tokens:
            raise ValueError(
                f"request {request.request_id!r} already produced all "
                f"{request.max_new_tokens} tokens; nothing to decode"
            )
        self.validate(request)
        state = RequestState(request=request)
        state.generated_tokens = len(output_tokens)
        state.prefill_finish_time_s = prefill_finish_time_s
        handle = RequestHandle(
            request=request,
            state=state,
            output_tokens=[int(t) for t in output_tokens],
            transfer_ms=float(transfer_ms),
            migrated_pages=int(migrated_pages),
        )
        handle._params = request.sampling or self.default_sampling
        if rng is None:
            rng = np.random.default_rng(handle._params.seed)
        handle._rng = rng
        self._handles[request.request_id] = handle
        self._adopted_ready.add(request.request_id)
        shadow = replace(request, arrival_time_s=max(0.0, ready_time_s))
        insort(self._arrivals, shadow, key=lambda r: r.arrival_time_s)
        return handle

    def retain_kv_on_finish(self, request_id: str) -> None:
        """Keep the request's backend KV alive when it retires.

        Used by disaggregated clusters on the *prefill* tier: the request
        finishes there after its first token, but its KV pages must survive
        retirement so ``backend.handoff_out`` can export them to a decode
        replica.  The caller owns the eventual release (hand-off or explicit
        ``backend.release``).  Unknown ids raise ``KeyError``.
        """
        self._handles[request_id].retain_kv = True

    def handle(self, request_id: str) -> RequestHandle:
        """Look up the live handle of a submitted request."""
        return self._handles[request_id]

    def clear_finished(self) -> int:
        """Drop handles of finished requests; returns how many were evicted.

        A long-lived engine keeps every handle (with its output tokens) so
        callers can read results after a run; call this between runs to bound
        memory and allow request-id reuse.  Completed ``ServingMetrics``
        records are kept.
        """
        done = [rid for rid, h in self._handles.items() if h.finished]
        for rid in done:
            del self._handles[rid]
        return len(done)

    @property
    def has_work(self) -> bool:
        """Whether any submitted request has not yet finished."""
        return bool(self._arrivals) or self.scheduler.has_work

    def abort(self, request_id: str) -> bool:
        """Withdraw a request, releasing its backend KV if any is materialised.

        Works from any non-terminal point in the lifecycle: still on the
        arrivals list, waiting for admission, preempted, or mid-decode (the
        KV pages it holds are released through the same path preemption uses,
        so shared prefix pages are decref'd, never pulled out from under a
        sibling).  Tokens generated so far stay on the handle; no
        :class:`~repro.serving.metrics.RequestRecord` is emitted (aggregate
        metrics describe *completed* requests).  Returns ``True`` if the
        request was live, ``False`` if it had already finished (abort after
        completion is a no-op, not an error).  Unknown ids raise ``KeyError``.
        """
        handle = self._handles[request_id]
        state = handle.state
        if state.is_terminal:
            return False
        for i, pending in enumerate(self._arrivals):
            if pending.request_id == request_id:
                del self._arrivals[i]
                break
        else:
            was_running = self.scheduler.remove(state)
            if was_running and state.status is RequestStatus.DECODING:
                self.backend.release(handle.seq_id)
            elif state.status is RequestStatus.DEMOTED:
                # The KV lives in the cold tier, not on the backend.
                self.cold_store.discard(handle.seq_id)
        if request_id in self._adopted_ready:
            # Adopted-but-unattached: the migrated KV is already materialised
            # on the backend even though the state never left WAITING.
            self._adopted_ready.discard(request_id)
            self.backend.release(handle.seq_id)
        state.mark_cancelled(self.clock_s)
        self.aborted_ids.append(request_id)
        self._release_draft(request_id)
        self.decision_log.append(f"abort:{request_id}")
        return True

    def live_gauges(self) -> LiveGauges:
        """Snapshot the engine's instantaneous state (queue/batch/KV gauges)."""
        backend_kv = self._backend_kv_gauge
        cold = self.cold_store
        kv_in_use = self.scheduler.kv_tokens_in_use()
        spec_ks = list(self._spec_k_last.values())
        return LiveGauges(
            clock_s=self.clock_s,
            queue_depth=self.scheduler.waiting_count,
            pending_arrivals=len(self._arrivals),
            running=len(self.scheduler.running),
            kv_tokens_in_use=kv_in_use,
            kv_token_capacity=self.scheduler.config.kv_token_capacity,
            backend_kv_tokens=backend_kv() if backend_kv is not None else -1,
            completed=len(self.metrics),
            aborted=len(self.aborted_ids),
            preemptions=self.scheduler.total_preemptions,
            kv_tokens_demand=kv_in_use
            + self.scheduler.kv_tokens_waiting()
            + sum(r.prompt_tokens for r in self._arrivals),
            kv_tokens_cold=cold.num_tokens if cold is not None else 0,
            cold_pages=cold.num_pages if cold is not None else 0,
            demotions=self.scheduler.total_demotions,
            restores=cold.total_restores if cold is not None else 0,
            draft_tokens_proposed=self.draft_tokens_proposed,
            draft_tokens_accepted=self.draft_tokens_accepted,
            spec_decode_steps=self.spec_decode_steps,
            speculation_k_min=min(spec_ks) if spec_ks else 0,
            speculation_k_mean=sum(spec_ks) / len(spec_ks) if spec_ks else 0.0,
            speculation_k_max=max(spec_ks) if spec_ks else 0,
        )

    # -- the serving loop ---------------------------------------------------------
    def step(self) -> StepOutcome | None:
        """Run one scheduler iteration; returns ``None`` when nothing is left.

        Mirrors vLLM-style iteration-level scheduling: admit arrived requests
        (fresh prefill, or recompute-resume for preempted ones), otherwise
        preempt under KV pressure and run one decode iteration over the
        surviving batch, otherwise jump the clock to the next arrival.
        Preemption and the subsequent decode happen in the same step, so
        every pressure event is immediately followed by forward progress.
        """
        self._admit_arrived()

        state = self.scheduler.schedule_prefill()
        if state is not None:
            if state.request.request_id in self._adopted_ready:
                return self._step_attach(state)
            if state.status is RequestStatus.DEMOTED:
                return self._step_restore(state)
            if state.status is RequestStatus.PREEMPTED:
                return self._step_resume(state)
            return self._step_prefill(state)

        preempted, demoted = self._preempt_for_pressure()
        batch = self.scheduler.decode_batch()
        if batch:
            return self._step_decode(batch, preempted, demoted)

        if self._arrivals:
            next_arrival = self._arrivals[0].arrival_time_s
            elapsed = max(0.0, next_arrival - self.clock_s)
            self.clock_s = max(self.clock_s, next_arrival)
            return StepOutcome(kind="idle", clock_s=self.clock_s, elapsed_s=elapsed)
        return None

    def run_until_complete(self) -> ServingMetrics:
        """Drive :meth:`step` until every submitted request has finished."""
        while self.step() is not None:
            pass
        return self.metrics

    def run(self, requests: list[Request]) -> ServingMetrics:
        """Serve a batch of requests to completion (submit + run)."""
        if not requests:
            raise ValueError("at least one request is required")
        for request in requests:
            self.submit(request)
        return self.run_until_complete()

    def generate(
        self,
        prompt_ids,
        max_new_tokens: int,
        sampling: SamplingParams | None = None,
        request_id: str | None = None,
    ) -> list[int]:
        """Single-prompt convenience: serve one request, return its tokens.

        Requires a backend that produces real logits; cost-model backends have
        no token content to return — use :meth:`run` / :meth:`submit` and read
        the timing metrics instead.
        """
        if not getattr(self.backend, "produces_logits", False):
            raise ValueError(
                "generate() needs a backend that produces real logits; "
                f"{type(self.backend).__name__} is content-free — use run()/submit() "
                "and read ServingMetrics instead"
            )
        if request_id is None:
            request_id = f"generate-{len(self._handles)}"
        handle = self.submit(
            Request.from_prompt(
                request_id,
                prompt_ids,
                max_new_tokens=max_new_tokens,
                arrival_time_s=self.clock_s,
                sampling=sampling,
            )
        )
        self.run_until_complete()
        return list(handle.output_tokens)

    # -- internals ----------------------------------------------------------------
    def _validate_token_content(self, request: Request) -> None:
        """Reject token content the backend cannot serve, at the door.

        Length-only requests on backends that need real token ids, and ids
        outside the backend's vocabulary: the embedding lookup would fault on
        those inside ``step()`` (failing every client's drive loop, with the
        sequence and its pages already reserved) or, for negative ids, wrap
        around and answer from a different prompt.
        """
        if request.prompt_token_ids is not None:
            vocab = getattr(self.backend, "vocab_size", None)
            ids = request.prompt_token_ids
            if vocab is not None and not 0 <= min(ids) <= max(ids) < vocab:
                raise ValueError(
                    f"request {request.request_id!r}: prompt token ids must be in [0, {vocab})"
                )
            return
        if getattr(self.backend, "produces_logits", False):
            raise ValueError(
                f"request {request.request_id!r} carries no prompt_token_ids but the "
                "backend produces real logits; a length-only request would silently "
                "generate from a placeholder prompt. Build it with Request.from_prompt()."
            )
        if getattr(self.backend, "requires_token_content", False):
            raise ValueError(
                f"request {request.request_id!r} carries no prompt_token_ids but the "
                "backend's prefix-cache model matches on token content; length-only "
                "requests all share the placeholder prompt and would spuriously hit. "
                "Generate the trace with with_token_ids=True."
            )

    def _admit_arrived(self) -> None:
        while self._arrivals and self._arrivals[0].arrival_time_s <= self.clock_s:
            self.scheduler.submit_state(
                self._handles[self._arrivals.pop(0).request_id].state
            )

    def _step_prefill(self, state: RequestState) -> StepOutcome:
        handle = self._handles[state.request.request_id]
        state.record_scheduled(self.clock_s)
        token_ids = self._prompt_ids(handle.request)
        result = self.backend.prefill(handle.seq_id, token_ids)
        self.clock_s += result.elapsed_s
        self.decision_log.append(f"prefill:{handle.request_id}")
        state.shared_prefix_tokens = result.prefix_hit_tokens
        handle.restored_pages += result.restored_pages
        handle.restore_ms += result.restore_s * 1e3
        state.record_prefill(self.clock_s)
        # Prefill yields the first generated token.
        self._record_token(handle, result.logits)
        finished = self._retire()
        return StepOutcome(
            kind="prefill",
            clock_s=self.clock_s,
            elapsed_s=result.elapsed_s,
            request_ids=(handle.request_id,),
            finished_ids=finished,
            emitted_tokens=((handle.request_id, handle.output_tokens[-1]),),
        )

    def _step_attach(self, state: RequestState) -> StepOutcome:
        """Attach an adopted request's migrated KV to the decode batch.

        The KV pages already live on this backend (imported by
        ``backend.handoff_in`` before :meth:`adopt`), so no backend work runs
        and no time elapses; the step flips the request to ``DECODING`` while
        *preserving* the prefill-tier first-token timestamp — calling
        ``record_prefill`` here would restamp TTFT with the attach time.  No
        token is emitted: everything in ``output_tokens`` was already
        delivered by the prefill tier.
        """
        handle = self._handles[state.request.request_id]
        state.record_scheduled(self.clock_s)
        self._adopted_ready.discard(state.request.request_id)
        state.status = RequestStatus.DECODING
        self.decision_log.append(f"attach:{handle.request_id}")
        return StepOutcome(
            kind="attach",
            clock_s=self.clock_s,
            elapsed_s=0.0,
            request_ids=(handle.request_id,),
        )

    def _step_resume(self, state: RequestState) -> StepOutcome:
        """Recompute a preempted request's KV: re-prefill, then replay its tokens.

        The prompt is prefilled from scratch and every already-generated token
        except the last is fed back through single-sequence decode calls —
        exactly the calls an uninterrupted run made — so the rebuilt KV (and
        any selector state) is bit-identical and the next sampled token matches
        the no-preemption run.  No new token is recorded and the sampling rng
        is untouched; the whole recompute is billed on the serving clock.
        """
        handle = self._handles[state.request.request_id]
        result = self.backend.prefill(handle.seq_id, self._prompt_ids(handle.request))
        elapsed = result.elapsed_s
        state.shared_prefix_tokens = result.prefix_hit_tokens
        handle.restored_pages += result.restored_pages
        handle.restore_ms += result.restore_s * 1e3
        self.recompute_prefill_tokens += handle.request.prompt_tokens - result.prefix_hit_tokens
        for token in handle.output_tokens[:-1]:
            replay = self.backend.decode_batch([handle.seq_id], [token])
            elapsed += replay.elapsed_s
            self.recompute_decode_tokens += 1
        self.clock_s += elapsed
        self.decision_log.append(f"resume:{handle.request_id}")
        state.record_resume(self.clock_s)
        return StepOutcome(
            kind="resume",
            clock_s=self.clock_s,
            elapsed_s=elapsed,
            request_ids=(handle.request_id,),
        )

    def _step_restore(self, state: RequestState) -> StepOutcome:
        """Transfer a demoted request's KV back from the cold tier.

        The parked hand-off goes back in through ``backend.handoff_in``
        (bit-exact pages, or the modeled context for the simulated backend)
        and its modeled transfer is billed on the serving clock at the width
        it was parked at — no recompute runs and no token is emitted.  The
        entry leaves the tier only once the hand-off is in.  When the hot
        pool cannot actually hold the pages
        (:class:`~repro.kvcache.allocator.OutOfPagesError` — the watermark
        admitted on token estimates, the allocator is ground truth), the
        entry is dropped and the request falls back to recompute-resume,
        recounted as a preemption.
        """
        handle = self._handles[state.request.request_id]
        handoff: KVHandoff = self.cold_store.get(handle.seq_id).payload
        try:
            self.backend.handoff_in(handle.seq_id, handoff)
        except OutOfPagesError:
            # Rebuild by recompute instead (the prefill path can evict prefix pages).
            self.cold_store.discard(handle.seq_id)
            self.scheduler.reclassify_demotion_as_preemption()
            state.demote_to_preempt()
            return self._step_resume(state)
        self.cold_store.pop(handle.seq_id)
        elapsed = handoff.transfer_latency_s(self._tiering.restore_cost)
        self.clock_s += elapsed
        self.decision_log.append(f"restore:{handle.request_id}")
        handle.restored_pages += handoff.n_pages
        handle.restore_ms += elapsed * 1e3
        state.record_restore(self.clock_s)
        return StepOutcome(
            kind="restore",
            clock_s=self.clock_s,
            elapsed_s=elapsed,
            request_ids=(handle.request_id,),
        )

    def _demotion_victim_order(self):
        """LRU victim ranking for demotion, or ``None`` for the policy default.

        Asks the backend to rank the decoding batch least-recently-attended
        first (via its eviction policy / attend stamps); sequences the policy
        filters out (e.g. holders of pinned prefix pages) are appended in the
        scheduler policy's own victim order, so they remain preemptable.
        """
        order_fn = getattr(self.backend, "demotion_order", None)
        if order_fn is None:
            return None

        def victim_order(decoding: list[RequestState]) -> list[RequestState]:
            by_seq = {
                self._handles[s.request.request_id].seq_id: s for s in decoding
            }
            ranked = [by_seq[sid] for sid in order_fn(list(by_seq)) if sid in by_seq]
            seen = set(id(s) for s in ranked)
            rest = [
                s
                for s in self.scheduler.policy.victim_order(decoding)
                if id(s) not in seen
            ]
            return ranked + rest

        return victim_order

    def _evict_states(
        self, victims: list[RequestState]
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Demote-or-preempt each victim the scheduler evicted.

        With a cold tier each victim's KV is handed out of the backend
        (re-quantized at ``cold_kv_bits`` in ``"quantized"`` mode) and parked
        in :attr:`cold_store`.  When the tier cannot take its pages — checked
        before the sequence is touched — that victim falls back to the
        classic release-and-recompute preemption and the scheduler's
        wholesale demotion count is corrected.
        """
        cold, tiering = self.cold_store, self._tiering
        kv_bits = tiering.cold_kv_bits if cold is not None and tiering.mode == "quantized" else None
        preempted: list[str] = []
        demoted: list[str] = []
        for state in victims:
            handle = self._handles[state.request.request_id]
            if cold is not None:
                if cold.can_accept(self.backend.handoff_pages(handle.seq_id)):
                    handoff = self.backend.handoff_out(handle.seq_id, kv_bits=kv_bits)
                    cold.put(handle.seq_id, handoff, handoff.n_pages, handoff.n_tokens)
                    state.record_demote(self.clock_s)
                    self.decision_log.append(f"demote:{handle.request_id}")
                    demoted.append(handle.request_id)
                    continue
                self.scheduler.reclassify_demotion_as_preemption()
            state.record_preempt(self.clock_s)
            self.backend.release(handle.seq_id)
            self.decision_log.append(f"preempt:{handle.request_id}")
            preempted.append(handle.request_id)
        return tuple(preempted), tuple(demoted)

    def _preempt_for_pressure(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Evict running requests under KV pressure; returns (preempted, demoted) ids."""
        demote = self.cold_store is not None
        victims = self.scheduler.preempt_for_pressure(
            victim_order=self._demotion_victim_order() if demote else None,
            demote=demote,
        )
        return self._evict_states(victims)

    def _drafts_for(self, handle: RequestHandle) -> list[int]:
        """Candidate tokens to speculate for one decode-batch member (may be [])."""
        if (
            self.draft_source is None
            or self._backend_spec_batch is None
            or self._backend_commit is None
        ):
            return []
        params = handle._params or self.default_sampling
        if params.speculation_k <= 0 or not handle.output_tokens:
            return []
        k_requested = params.speculation_k
        if self.adaptive_k is not None:
            k_requested = self.adaptive_k.effective_k(handle.request_id, k_requested)
        self._spec_k_last[handle.request_id] = k_requested
        # Keep at least one position for the verified token itself: the
        # pending token plus k drafts emit at most k + 1 tokens.
        remaining = handle.request.max_new_tokens - handle.state.generated_tokens
        k = min(k_requested, remaining - 1)
        if k <= 0:
            return []
        drafts = self.draft_source.propose(
            handle.request_id,
            handle.request.prompt_token_ids,
            handle.output_tokens,
            k,
        )
        return [int(t) for t in drafts[:k]]

    def _verify_tokens(
        self,
        handle: RequestHandle,
        fed: list[int],
        logits_rows: np.ndarray | None,
    ) -> list[int]:
        """Accept the longest matching prefix of a verified chunk.

        Row ``j`` of ``logits_rows`` is the real next-token distribution
        after consuming ``fed[:j+1]``; sampling it with the request's own
        rng draws exactly the draw a non-speculative step would have made,
        so the emitted stream — and the rng stream — are byte-identical at
        any acceptance rate.  Verification advances to row ``j+1`` only
        while the sampled token equals the draft that was fed there.
        """
        params = handle._params or self.default_sampling
        budget = handle.request.max_new_tokens - handle.state.generated_tokens
        sampled: list[int] = []
        for j in range(len(fed)):
            if logits_rows is None:
                token = PLACEHOLDER_TOKEN
            else:
                token = sample_token(logits_rows[j], params, handle._rng)
            sampled.append(token)
            if len(sampled) >= budget:
                break
            if logits_rows is not None and params.is_stop(token):
                break
            if j + 1 >= len(fed) or fed[j + 1] != token:
                break
        return sampled

    def _evict_one_for_oom(
        self, state: RequestState
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Evict one request the allocator refused pages for; (preempted, demoted)."""
        self.scheduler.force_preempt([state], demote=self.cold_store is not None)
        return self._evict_states([state])

    def _spec_fallback_plain(
        self,
        state: RequestState,
        handle: RequestHandle,
        emitted: list[tuple[str, int]],
        request_ids: list[str],
    ) -> tuple[float, tuple[tuple[str, ...], tuple[str, ...]]]:
        """Verify-OOM fallback: one plain token at minimal footprint.

        The speculative chunk's m positions did not fit, and the verify
        raised before reserving or writing anything, so a plain single-token
        decode keeps byte-identity and forward progress.  Returns the fallback's
        elapsed time plus ``(preempted, demoted)`` ids when even the single
        token does not fit and the request is evicted instead.
        """
        pending = handle.output_tokens[-1]
        try:
            fallback = self.backend.decode_batch([handle.seq_id], [pending])
        except DecodeOutOfPagesError:
            return 0.0, self._evict_one_for_oom(state)
        self.clock_s += fallback.elapsed_s
        logits = None if fallback.logits is None else fallback.logits[0]
        self._record_token(handle, logits)
        emitted.append((handle.request_id, handle.output_tokens[-1]))
        request_ids.append(handle.request_id)
        return fallback.elapsed_s, ((), ())

    def _finish_spec_member(
        self,
        state: RequestState,
        handle: RequestHandle,
        drafts: list[int],
        fed: list[int],
        logits_rows: np.ndarray | None,
        chunk,
        emitted: list[tuple[str, int]],
        request_ids: list[str],
    ) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], tuple[int, int]]:
        """Verify, commit, and emit one speculating member's chunk.

        The caller has already billed the verify call's elapsed time.  Returns
        ``((preempted, demoted), (proposed, accepted))`` — eviction ids when
        the commit OOMs (nothing emitted, rng rewound), counters otherwise.
        """
        # Snapshot the rng before sampling: if the commit below OOMs,
        # nothing may be emitted, and the rng must rewind so the replay
        # after preemption re-draws the same stream.
        rng_state = (
            handle._rng.bit_generator.state if handle._rng is not None else None
        )
        sampled = self._verify_tokens(handle, fed, logits_rows)
        try:
            self._backend_commit(handle.seq_id, chunk, len(sampled))
        except DecodeOutOfPagesError:
            if rng_state is not None:
                handle._rng.bit_generator.state = rng_state
            return self._evict_one_for_oom(state), (0, 0)
        has_logits = logits_rows is not None
        for token in sampled:
            self._emit_token(handle, token, has_logits)
            emitted.append((handle.request_id, token))
        accepted = len(sampled) - 1
        handle.draft_tokens_proposed += len(drafts)
        handle.draft_tokens_accepted += accepted
        handle.spec_decode_steps += 1
        self.draft_tokens_proposed += len(drafts)
        self.draft_tokens_accepted += accepted
        self.spec_decode_steps += 1
        if self.adaptive_k is not None:
            self.adaptive_k.observe(handle.request_id, len(drafts), accepted)
        request_ids.append(handle.request_id)
        self.decision_log.append(f"spec:{handle.request_id}:+{len(sampled)}")
        return ((), ()), (len(drafts), accepted)

    def _step_decode(
        self,
        batch: list[RequestState],
        preempted: tuple[str, ...] = (),
        demoted: tuple[str, ...] = (),
    ) -> StepOutcome:
        # Partition the batch: members with draft proposals run speculative
        # verify chunks, the rest run the plain batched decode.  The plain
        # group goes FIRST — its OOM handler retries the *whole* batch
        # recursively, which is only safe while no speculative chunk has
        # advanced any sequence or rng this step.
        plain: list[RequestState] = []
        spec: list[tuple[RequestState, list[int]]] = []
        for s in batch:
            drafts = self._drafts_for(self._handles[s.request.request_id])
            if drafts:
                spec.append((s, drafts))
            else:
                plain.append(s)

        elapsed = 0.0
        emitted: list[tuple[str, int]] = []
        request_ids: list[str] = []
        step_proposed = 0
        step_accepted = 0

        if plain:
            handles = []
            seq_ids = []
            tokens = []
            for s in plain:
                h = self._handles[s.request.request_id]
                handles.append(h)
                seq_ids.append(h.seq_id)
                tokens.append(h.output_tokens[-1] if h.output_tokens else PLACEHOLDER_TOKEN)
            try:
                result = self.backend.decode_batch(seq_ids, tokens)
            except DecodeOutOfPagesError as exc:
                return self._step_decode_oom(batch, preempted, demoted, exc)
            self.clock_s += result.elapsed_s
            elapsed += result.elapsed_s
            for i, handle in enumerate(handles):
                logits = None if result.logits is None else result.logits[i]
                self._record_token(handle, logits)
                emitted.append((handle.request_id, handle.output_tokens[-1]))
                request_ids.append(handle.request_id)

        # All speculating members verify their chunks in one grouped backend
        # call, each in its own pages, rewound before it returns.  A
        # verify-OOM fails atomically (the backend raises before mutating
        # anything), naming exactly the members whose m positions did not
        # fit; those fall back to a plain single-token step (byte-identity
        # and forward progress at minimal footprint) and the survivors retry.
        while spec:
            feds = [
                [self._handles[s.request.request_id].output_tokens[-1], *drafts]
                for s, drafts in spec
            ]
            requests = [
                (self._handles[s.request.request_id].seq_id, fed)
                for (s, _), fed in zip(spec, feds)
            ]
            try:
                batch_result = self._backend_spec_batch(requests)
            except DecodeOutOfPagesError as exc:
                failed_ids = {str(sid) for sid in exc.failed_seq_ids}
                failed = [m for m in spec if m[0].request.request_id in failed_ids]
                spec = [m for m in spec if m[0].request.request_id not in failed_ids]
                if not failed:
                    raise
                for s, _ in failed:
                    handle = self._handles[s.request.request_id]
                    fb_elapsed, (p2, d2) = self._spec_fallback_plain(
                        s, handle, emitted, request_ids
                    )
                    elapsed += fb_elapsed
                    preempted += p2
                    demoted += d2
                continue
            self.clock_s += batch_result.elapsed_s
            elapsed += batch_result.elapsed_s
            for i, (s, drafts) in enumerate(spec):
                handle = self._handles[s.request.request_id]
                (p2, d2), (prop, acc) = self._finish_spec_member(
                    s,
                    handle,
                    drafts,
                    feds[i],
                    batch_result.logits[i],
                    batch_result.chunks[i],
                    emitted,
                    request_ids,
                )
                preempted += p2
                demoted += d2
                step_proposed += prop
                step_accepted += acc
            break

        if request_ids:
            self.decision_log.append("decode:" + ",".join(request_ids))
        finished = self._retire()
        return StepOutcome(
            kind="decode",
            clock_s=self.clock_s,
            elapsed_s=elapsed,
            request_ids=tuple(request_ids),
            finished_ids=finished,
            preempted_ids=preempted,
            demoted_ids=demoted,
            emitted_tokens=tuple(emitted),
            draft_proposed=step_proposed,
            draft_accepted=step_accepted,
        )

    def _step_decode_oom(
        self,
        batch: list[RequestState],
        preempted: tuple[str, ...],
        demoted: tuple[str, ...],
        exc: DecodeOutOfPagesError,
    ) -> StepOutcome:
        """Evict exactly the sequences the backend could not reserve pages for.

        The backend raised *before* mutating any KV state, so the failed
        sequences can be evicted (demoted to the cold tier when tiering is
        active, recompute-preempted otherwise — like watermark victims) and
        the surviving batch retried within the same step.  If every sequence
        failed, nothing can make progress — the pool is genuinely too small
        for one request — and the error propagates.
        """
        failed_ids = {str(s) for s in exc.failed_seq_ids}
        victims = [s for s in batch if s.request.request_id in failed_ids]
        survivors = [s for s in batch if s.request.request_id not in failed_ids]
        if not victims or not survivors:
            raise exc
        self.scheduler.force_preempt(victims, demote=self.cold_store is not None)
        newly_preempted, newly_demoted = self._evict_states(victims)
        return self._step_decode(
            survivors, preempted + newly_preempted, demoted + newly_demoted
        )

    def _prompt_ids(self, request: Request) -> np.ndarray:
        if request.prompt_token_ids is not None:
            return np.asarray(request.prompt_token_ids, dtype=np.int64)
        # Length-only request (cost-model backends ignore token content).
        return np.full(request.prompt_tokens, PLACEHOLDER_TOKEN, dtype=np.int64)

    def _record_token(self, handle: RequestHandle, logits: np.ndarray | None) -> None:
        params = handle._params or self.default_sampling
        if logits is None:
            token = PLACEHOLDER_TOKEN
        else:
            token = sample_token(logits, params, handle._rng)
        self._emit_token(handle, token, has_logits=logits is not None)

    def _emit_token(self, handle: RequestHandle, token: int, has_logits: bool) -> None:
        """Append one already-sampled token to the handle (shared by both paths)."""
        handle.output_tokens.append(int(token))
        handle.state.record_decode_token(self.clock_s)
        # Stop-token handling only applies to real content, not placeholders.
        params = handle._params or self.default_sampling
        if has_logits and not handle.state.is_finished and params.is_stop(token):
            handle.state.mark_finished(self.clock_s)

    def _retire(self) -> tuple[str, ...]:
        finished_ids = []
        for state in self.scheduler.retire_finished():
            handle = self._handles[state.request.request_id]
            if not handle.retain_kv:
                self.backend.release(handle.seq_id)
            handle.record = RequestRecord(
                request_id=handle.request_id,
                arrival_time_s=handle.request.arrival_time_s,
                prefill_finish_time_s=state.prefill_finish_time_s or self.clock_s,
                finish_time_s=state.finish_time_s or self.clock_s,
                prompt_tokens=handle.request.prompt_tokens,
                generated_tokens=state.generated_tokens,
                priority=handle.request.priority,
                preemptions=state.preemptions,
                scheduled_time_s=state.scheduled_time_s,
                preempted_stall_s=state.preempted_stall_s,
                transfer_ms=handle.transfer_ms,
                migrated_pages=handle.migrated_pages,
                demotions=state.demotions,
                demoted_stall_s=state.demoted_stall_s,
                restored_pages=handle.restored_pages,
                restore_ms=handle.restore_ms,
                draft_tokens_proposed=handle.draft_tokens_proposed,
                draft_tokens_accepted=handle.draft_tokens_accepted,
                spec_decode_steps=handle.spec_decode_steps,
            )
            self.metrics.add(handle.record)
            self._release_draft(handle.request_id)
            finished_ids.append(handle.request_id)
        return tuple(finished_ids)

    def _release_draft(self, request_id: str) -> None:
        """Drop the draft source's (and adaptive-k policy's) per-request state."""
        if self.draft_source is not None:
            self.draft_source.release(request_id)
        if self.adaptive_k is not None:
            self.adaptive_k.release(request_id)
        self._spec_k_last.pop(request_id, None)
