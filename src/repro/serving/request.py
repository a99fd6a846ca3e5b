"""Request and per-sequence state for the serving engine.

A :class:`Request` is the immutable description of one unit of work (prompt,
generation budget, arrival time, priority class); a :class:`RequestState` is
its mutable serving-side lifecycle, which the scheduler moves through
:class:`RequestStatus`:

``WAITING -> DECODING -> FINISHED`` in the simple case, with a
``DECODING -> PREEMPTED -> DECODING`` detour every time the scheduler evicts
the request under KV pressure (recompute-style preemption: the KV cache is
released and rebuilt on re-admission, see
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`).  With a cold
KV tier enabled the cheaper ``DECODING -> DEMOTED -> DECODING`` detour is
taken instead: the KV pages move to the host tier and are *restored* (a
modeled transfer, not a recompute) on re-admission.  Any
non-terminal state can transition to ``CANCELLED`` when the caller aborts the
request (:meth:`~repro.serving.engine.ServingEngine.abort`); cancelled
requests keep whatever tokens they had already generated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.serving.sampling import SamplingParams

__all__ = ["Request", "RequestStatus", "RequestState"]


class RequestStatus(enum.Enum):
    """Lifecycle of a request inside the serving system."""

    WAITING = "waiting"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    DEMOTED = "demoted"
    FINISHED = "finished"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class Request:
    """An inference request: a prompt and a generation budget.

    ``prompt_token_ids`` carries the actual prompt for real-compute backends;
    cost-model backends only need ``prompt_tokens`` (the length), so the ids
    are optional.  ``sampling`` is the request's :class:`SamplingParams`; a
    request built without one samples with ``SamplingParams()`` (greedy), set
    here and nowhere else.  ``priority`` is the request's
    scheduling class — **lower values are more urgent** (0 = interactive
    default); it is consulted by the ``"priority"`` scheduler policy and
    carried into per-class :class:`~repro.serving.metrics.ServingMetrics`.
    """

    request_id: str
    prompt_tokens: int
    max_new_tokens: int
    arrival_time_s: float = 0.0
    prompt_token_ids: tuple[int, ...] | None = None
    sampling: SamplingParams | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.arrival_time_s < 0:
            raise ValueError("arrival_time_s must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative (0 = most urgent)")
        if self.sampling is None:
            object.__setattr__(self, "sampling", SamplingParams())
        if self.prompt_token_ids is not None:
            ids = tuple(int(t) for t in self.prompt_token_ids)
            if len(ids) != self.prompt_tokens:
                raise ValueError(
                    f"prompt_token_ids has {len(ids)} tokens but prompt_tokens is "
                    f"{self.prompt_tokens}"
                )
            object.__setattr__(self, "prompt_token_ids", ids)

    @classmethod
    def from_prompt(
        cls,
        request_id: str,
        token_ids,
        max_new_tokens: int,
        arrival_time_s: float = 0.0,
        sampling: SamplingParams | None = None,
        priority: int = 0,
    ) -> "Request":
        """Build a request straight from a prompt token sequence."""
        ids = tuple(int(t) for t in token_ids)
        return cls(
            request_id=request_id,
            prompt_tokens=len(ids),
            max_new_tokens=max_new_tokens,
            arrival_time_s=arrival_time_s,
            prompt_token_ids=ids,
            sampling=sampling,
            priority=priority,
        )


@dataclass
class RequestState:
    """Mutable serving state of one request.

    ``submit_seq`` is the scheduler's monotonically increasing submission
    number (assigned on first enqueue) used for FCFS ordering and tie-breaks;
    it is preserved across preemptions so a preempted request keeps its place
    relative to later arrivals.  ``preemptions`` counts how many times this
    request was evicted under KV pressure and ``preempted_stall_s`` the total
    virtual seconds it spent evicted (preempt to resume).  ``scheduled_time_s``
    is the virtual clock (seconds) at which the request was *first* admitted
    for prefill — ``scheduled_time_s - request.arrival_time_s`` is the
    queueing delay.
    """

    request: Request
    status: RequestStatus = RequestStatus.WAITING
    generated_tokens: int = 0
    prefill_finish_time_s: float | None = None
    finish_time_s: float | None = None
    scheduled_time_s: float | None = None
    submit_seq: int | None = None
    preemptions: int = 0
    preempted_stall_s: float = 0.0
    last_preempt_time_s: float | None = None
    #: Cold-tier evictions: times this request's KV was demoted to the host
    #: tier (cheaper than a preemption — restore is a transfer, not a
    #: recompute) and the total virtual seconds spent demoted.
    demotions: int = 0
    demoted_stall_s: float = 0.0
    last_demote_time_s: float | None = None
    #: Prompt tokens whose KV is shared with a cached prefix (set after each
    #: prefill/resume from the backend's ``StepResult.prefix_hit_tokens``).
    #: Shared pages are physical storage once, so they are excluded from this
    #: request's KV accounting — admission and preemption watermarks charge
    #: each request only for its *unique* pages.
    shared_prefix_tokens: int = 0

    @property
    def context_length(self) -> int:
        """Unique KV tokens currently materialised for this request.

        ``0`` while the request is waiting, preempted, or demoted (preempted
        KV pages were released; demoted pages live in the cold tier, and the
        watermarks count only the hot tier).  Tokens attached from a shared
        prefix are not charged to this request.
        """
        if self.status in (
            RequestStatus.WAITING,
            RequestStatus.PREEMPTED,
            RequestStatus.DEMOTED,
        ):
            return 0
        return max(
            0,
            self.request.prompt_tokens + self.generated_tokens - self.shared_prefix_tokens,
        )

    @property
    def resume_kv_tokens(self) -> int:
        """KV tokens (re-)admission will materialise: prompt + generated so far.

        Deliberately conservative: whether a prefix hit will shrink the
        *unique* footprint is only known after the prefill runs, so admission
        budgets the full size and the watermark accounting tightens once
        ``shared_prefix_tokens`` is known.
        """
        return self.request.prompt_tokens + self.generated_tokens

    @property
    def is_finished(self) -> bool:
        """Whether the request has produced its last token."""
        return self.status is RequestStatus.FINISHED

    @property
    def is_cancelled(self) -> bool:
        """Whether the request was aborted before producing its last token."""
        return self.status is RequestStatus.CANCELLED

    @property
    def is_terminal(self) -> bool:
        """Whether the request will never produce another token (done or aborted)."""
        return self.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED)

    def record_scheduled(self, now_s: float) -> None:
        """Stamp the first admission time (idempotent across preemptions)."""
        if self.scheduled_time_s is None:
            self.scheduled_time_s = now_s

    def record_prefill(self, now_s: float) -> None:
        """Transition ``WAITING -> DECODING`` once the prompt has been prefilled."""
        if self.status is not RequestStatus.WAITING:
            raise ValueError(f"cannot prefill request in status {self.status}")
        self.status = RequestStatus.DECODING
        self.prefill_finish_time_s = now_s

    def record_decode_token(self, now_s: float) -> None:
        """Account one generated token; finishes when the budget is exhausted."""
        if self.status is not RequestStatus.DECODING:
            raise ValueError(f"cannot decode request in status {self.status}")
        self.generated_tokens += 1
        if self.generated_tokens >= self.request.max_new_tokens:
            self.status = RequestStatus.FINISHED
            self.finish_time_s = now_s

    def record_preempt(self, now_s: float) -> None:
        """Transition ``DECODING -> PREEMPTED`` (KV released, back to the queue).

        Generated tokens are kept — on re-admission the engine re-prefills the
        prompt and replays them so generation continues byte-identically.
        """
        if self.status is not RequestStatus.DECODING:
            raise ValueError(f"cannot preempt request in status {self.status}")
        self.status = RequestStatus.PREEMPTED
        self.preemptions += 1
        self.last_preempt_time_s = now_s

    def record_resume(self, now_s: float) -> None:
        """Transition ``PREEMPTED -> DECODING`` after recompute (re-prefill + replay).

        Accumulates the evicted interval into ``preempted_stall_s``.
        """
        if self.status is not RequestStatus.PREEMPTED:
            raise ValueError(f"cannot resume request in status {self.status}")
        self.status = RequestStatus.DECODING
        if self.last_preempt_time_s is not None:
            self.preempted_stall_s += now_s - self.last_preempt_time_s
            self.last_preempt_time_s = None

    def record_demote(self, now_s: float) -> None:
        """Transition ``DECODING -> DEMOTED`` (KV parked in the cold tier).

        Unlike :meth:`record_preempt`, nothing is recomputed later: the
        backend keeps a restorable snapshot, so re-admission pays only a
        modeled transfer (:meth:`record_restore`).
        """
        if self.status is not RequestStatus.DECODING:
            raise ValueError(f"cannot demote request in status {self.status}")
        self.status = RequestStatus.DEMOTED
        self.demotions += 1
        self.last_demote_time_s = now_s

    def demote_to_preempt(self) -> None:
        """Reclassify an in-flight demotion as a preemption (restore fell through).

        Taken when a demoted request's cold snapshot cannot be re-attached
        (e.g. the page pool cannot hold it) and the engine falls back to
        recompute: the request's history must then read as one preemption,
        not a demotion, and the pending stall interval carries over.
        """
        if self.status is not RequestStatus.DEMOTED:
            raise ValueError(f"cannot reclassify request in status {self.status}")
        self.status = RequestStatus.PREEMPTED
        self.demotions -= 1
        self.preemptions += 1
        self.last_preempt_time_s = self.last_demote_time_s
        self.last_demote_time_s = None

    def record_restore(self, now_s: float) -> None:
        """Transition ``DEMOTED -> DECODING`` after the cold-tier restore.

        Accumulates the demoted interval into ``demoted_stall_s``.
        """
        if self.status is not RequestStatus.DEMOTED:
            raise ValueError(f"cannot restore request in status {self.status}")
        self.status = RequestStatus.DECODING
        if self.last_demote_time_s is not None:
            self.demoted_stall_s += now_s - self.last_demote_time_s
            self.last_demote_time_s = None

    def mark_finished(self, now_s: float) -> None:
        """Terminate generation early (EOS / stop token) before the budget."""
        if self.status is not RequestStatus.DECODING:
            raise ValueError(f"cannot finish request in status {self.status}")
        self.status = RequestStatus.FINISHED
        self.finish_time_s = now_s

    def mark_cancelled(self, now_s: float) -> None:
        """Abort the request from any non-terminal state (caller cancellation).

        Unlike preemption, cancellation is terminal: the request never re-enters
        the waiting queue and its generated-so-far tokens are simply what the
        caller keeps.  The engine owns releasing any backend KV first.
        """
        if self.is_terminal:
            raise ValueError(f"cannot cancel request in status {self.status}")
        self.status = RequestStatus.CANCELLED
        self.finish_time_s = now_s
