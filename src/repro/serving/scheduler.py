"""Policy-driven preemptive continuous-batching scheduler.

Models the iteration-level scheduling behaviour of vLLM / Orca / LServe with
three orthogonal knobs:

* **Admission policy** — which waiting request is admitted next.  Pluggable
  via :class:`SchedulingPolicy`: FCFS (arrival order, no overtaking),
  shortest-prompt-first (SJF on the prompt length), and priority classes
  (:attr:`~repro.serving.request.Request.priority`, lower = more urgent).
* **Best-effort KV admission with watermarks** — instead of reserving
  ``prompt + max_new_tokens`` up front (whole-budget reservation, which lets
  one long-context request starve the pool), admission only requires the
  request's *materialised* KV (prompt, plus already-generated tokens when
  resuming) to fit under :attr:`SchedulerConfig.kv_high_watermark`.
  Generation growth is not reserved, so the pool can overcommit.
* **Preemption under KV pressure** — when the next decode iteration would not
  fit in ``kv_token_capacity``, running requests are evicted (recompute style:
  their KV is released and rebuilt on re-admission) until the iteration fits
  *and* usage has drained to :attr:`SchedulerConfig.kv_low_watermark`.  The
  low watermark is hysteresis: draining below the trigger point keeps the
  next few iterations from immediately re-triggering a preemption storm.

The scheduler only moves requests between queues; the
:class:`~repro.serving.engine.ServingEngine` owns the status transitions and
the backend KV release/rebuild that make preemption real.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.request import Request, RequestState, RequestStatus

__all__ = [
    "SchedulerConfig",
    "SchedulingPolicy",
    "FCFSPolicy",
    "ShortestPromptFirstPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "ContinuousBatchingScheduler",
]


class SchedulingPolicy:
    """Order of admission (and of preemption victims) for waiting requests.

    A policy is a pure ordering: :meth:`admission_key` ranks waiting requests
    (smallest key is admitted first) and :meth:`victim_order` ranks running
    requests for eviction under KV pressure.  The default victim order is the
    reverse of the admission order — the request the policy values least is
    preempted first; policies may override it (SJF evicts by materialised KV
    instead).
    """

    #: Registry name of the policy (the ``SchedulerConfig.policy`` string).
    name: str = "abstract"

    def admission_key(self, state: RequestState) -> tuple:
        """Sort key for the waiting queue; the smallest key is admitted next."""
        raise NotImplementedError

    def victim_order(self, states: list[RequestState]) -> list[RequestState]:
        """Running requests ordered most-evictable first (reverse admission order)."""
        return sorted(states, key=self.admission_key, reverse=True)


class FCFSPolicy(SchedulingPolicy):
    """First-come-first-served: strict submission order, no overtaking.

    A preempted request keeps its original submission number, so it re-enters
    ahead of every later arrival.  Victims are chosen newest-first.
    """

    name = "fcfs"

    def admission_key(self, state: RequestState) -> tuple:
        """Order by submission sequence number (arrival order)."""
        return (state.submit_seq,)


class ShortestPromptFirstPolicy(SchedulingPolicy):
    """Shortest-prompt-first (SJF on prompt length, FCFS tie-break).

    Short requests overtake long ones at admission, so a long-context request
    at the head of the queue cannot head-of-line-block short interactive
    traffic.  The flip side is that a *continuous* stream of short requests
    can starve a long one indefinitely — this policy deliberately does not
    age requests; use ``"fcfs"`` or ``"priority"`` when long-job liveness
    matters more than short-job latency.  Victims are largest-materialised-KV
    first (prompt plus generated tokens), so each eviction frees the most
    pages.
    """

    name = "sjf"

    def admission_key(self, state: RequestState) -> tuple:
        """Order by prompt length, then submission order."""
        return (state.request.prompt_tokens, state.submit_seq)

    def victim_order(self, states: list[RequestState]) -> list[RequestState]:
        """Largest materialised KV first: each eviction frees the most pages."""
        return sorted(
            states, key=lambda s: (s.resume_kv_tokens, s.submit_seq), reverse=True
        )


class PriorityPolicy(SchedulingPolicy):
    """Priority classes: lower :attr:`Request.priority` values admit first.

    Within a class, order is FCFS.  Victims are lowest-importance-first
    (numerically highest priority, newest submission breaks ties), so when
    KV pressure forces an eviction, background traffic is preempted before
    interactive traffic and never the reverse.  Note that preemption is only
    ever *triggered* by KV pressure — a newly arrived urgent request does not
    evict a running background one; it merely goes to the head of the queue.
    """

    name = "priority"

    def admission_key(self, state: RequestState) -> tuple:
        """Order by priority class (lower = more urgent), then submission order."""
        return (state.request.priority, state.submit_seq)


#: Registry of built-in policies, keyed by :attr:`SchedulingPolicy.name`.
POLICIES: dict[str, type[SchedulingPolicy]] = {
    cls.name: cls for cls in (FCFSPolicy, ShortestPromptFirstPolicy, PriorityPolicy)
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a registered scheduling policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r}; known policies: {known}") from None


@dataclass(frozen=True)
class SchedulerConfig:
    """Static limits and knobs of the scheduler.

    ``max_batch_size`` caps the number of concurrently running requests.
    ``kv_token_capacity`` is the KV page pool, in tokens.

    Admission is **best-effort**: a request is admitted when its materialised
    KV (prompt tokens, plus already-generated tokens when resuming from
    preemption) fits under ``kv_high_watermark`` tokens — the generation
    budget is *not* reserved up front, so concurrent decode growth can
    overcommit the pool and trigger preemption.  (Before the watermark
    design, admission reserved the whole ``prompt + max_new_tokens`` budget;
    that reservation no longer exists.)  When the next decode iteration would
    exceed ``kv_token_capacity``, running requests are preempted until usage
    drains to ``kv_low_watermark`` tokens.

    Watermark invariant (validated): ``0 <= kv_low_watermark <
    kv_high_watermark <= kv_token_capacity``.  Defaults are 50% / 90% of
    capacity.  Keep ``kv_token_capacity - kv_high_watermark`` at least
    ``max_batch_size`` tokens so a freshly admitted batch can always run one
    decode iteration before any preemption triggers.

    ``policy`` selects the admission policy by registry name
    (``"fcfs"``, ``"sjf"``, ``"priority"`` — see :data:`POLICIES`).
    """

    max_batch_size: int = 8
    kv_token_capacity: int = 1_048_576
    policy: str = "fcfs"
    kv_high_watermark: int | None = None
    kv_low_watermark: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.kv_token_capacity <= 0:
            raise ValueError("kv_token_capacity must be positive")
        make_policy(self.policy)  # validates the policy name
        if self.kv_high_watermark is None:
            object.__setattr__(
                self, "kv_high_watermark", max(1, int(0.9 * self.kv_token_capacity))
            )
        if self.kv_high_watermark <= 0:
            raise ValueError(
                f"kv_high_watermark ({self.kv_high_watermark}) must be positive"
            )
        if self.kv_low_watermark is None:
            object.__setattr__(
                self,
                "kv_low_watermark",
                min(int(0.5 * self.kv_token_capacity), self.kv_high_watermark - 1),
            )
        if self.kv_low_watermark < 0:
            raise ValueError(
                f"kv_low_watermark ({self.kv_low_watermark}) must be non-negative"
            )
        if self.kv_low_watermark >= self.kv_high_watermark:
            raise ValueError(
                f"kv_low_watermark ({self.kv_low_watermark}) must be strictly below "
                f"kv_high_watermark ({self.kv_high_watermark}); the gap is the "
                "hysteresis band that stops admission/preemption thrashing"
            )
        if self.kv_high_watermark > self.kv_token_capacity:
            raise ValueError(
                f"kv_high_watermark ({self.kv_high_watermark}) must not exceed "
                f"kv_token_capacity ({self.kv_token_capacity})"
            )

    def make_policy(self) -> SchedulingPolicy:
        """Instantiate this config's admission policy."""
        return make_policy(self.policy)

    def validate_request_fits(self, request: Request) -> None:
        """Reject a request whose worst-case KV could never fit the pool.

        ``prompt + max_new_tokens <= kv_token_capacity`` is the bound every
        capacity-safety argument in the scheduler leans on; both the serving
        engine (at submit) and the scheduler (at enqueue) enforce it through
        this single check.
        """
        need = request.prompt_tokens + request.max_new_tokens
        if need > self.kv_token_capacity:
            raise ValueError(
                f"request {request.request_id!r} needs {need} KV tokens but "
                f"kv_token_capacity is {self.kv_token_capacity}; it could "
                "never be admitted"
            )


class ContinuousBatchingScheduler:
    """Preemptive continuous batching under a pluggable admission policy.

    Requests live in two pools: *waiting* (not yet admitted, or preempted
    and awaiting re-admission — ordered by the policy) and *running*
    (admitted; their KV is materialised once prefilled).  Retired requests
    leave the scheduler: it keeps no reference to them.  The scheduler
    decides admission (:meth:`schedule_prefill`) and eviction
    (:meth:`preempt_for_pressure`); the serving engine performs the backend
    work those decisions imply.
    """

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config
        self.policy = config.make_policy()
        self._waiting: list[RequestState] = []
        self._running: list[RequestState] = []
        self._submit_counter = 0
        self._total_preemptions = 0
        self._total_demotions = 0

    # -- queue management -------------------------------------------------------
    def submit(self, request: Request) -> RequestState:
        """Wrap a request in a fresh state and enqueue it."""
        return self.submit_state(RequestState(request=request))

    def submit_state(self, state: RequestState) -> RequestState:
        """Enqueue an externally owned request state.

        First-time submissions must satisfy ``prompt + max_new_tokens <=
        kv_token_capacity`` (anything larger could never run even alone —
        every capacity-safety argument below leans on this bound) and are
        stamped with a monotonically increasing submission number (the FCFS
        order); re-submissions of preempted states keep their original number
        so they cannot lose their place to later arrivals.
        """
        if state.submit_seq is None:
            self.config.validate_request_fits(state.request)
            state.submit_seq = self._submit_counter
            self._submit_counter += 1
        self._waiting.append(state)
        return state

    @property
    def waiting(self) -> list[RequestState]:
        """Waiting (and preempted) requests in the policy's admission order."""
        return sorted(self._waiting, key=self.policy.admission_key)

    @property
    def waiting_count(self) -> int:
        """Number of waiting (and preempted) requests, without sorting a copy.

        Gauge/observability paths should use this instead of
        ``len(scheduler.waiting)`` — the :attr:`waiting` property sorts the
        whole queue for its admission-order contract.
        """
        return len(self._waiting)

    @property
    def running(self) -> list[RequestState]:
        """Requests currently admitted to the running batch."""
        return list(self._running)

    @property
    def has_work(self) -> bool:
        """Whether any request is still waiting or running."""
        return bool(self._waiting or self._running)

    @property
    def total_preemptions(self) -> int:
        """Preemption events since this scheduler was created."""
        return self._total_preemptions

    @property
    def total_demotions(self) -> int:
        """Cold-tier demotion events since this scheduler was created.

        Demotions are evictions whose KV moved to the cold tier instead of
        being released for recompute; they are counted separately from
        :attr:`total_preemptions` because their cost on re-admission is a
        transfer, not a recompute.
        """
        return self._total_demotions

    def reclassify_demotion_as_preemption(self, n: int = 1) -> None:
        """Recount ``n`` demotions as preemptions.

        The engine calls this when a victim taken with ``demote=True`` could
        not actually be demoted (cold tier full) and fell back to the classic
        release-and-recompute eviction.
        """
        if n < 0 or n > self._total_demotions:
            raise ValueError(f"cannot reclassify {n} of {self._total_demotions} demotions")
        self._total_demotions -= n
        self._total_preemptions += n

    def kv_tokens_in_use(self) -> int:
        """KV tokens currently materialised by running requests."""
        return sum(s.context_length for s in self._running)

    def kv_tokens_waiting(self) -> int:
        """KV tokens the waiting (and preempted) requests will materialise.

        The admission-time footprint of everything queued — prompt plus
        already-generated tokens for preempted requests.  Together with
        :meth:`kv_tokens_in_use` this is the scheduler's outstanding KV
        demand, the size-aware load signal
        :class:`~repro.serving.metrics.LiveGauges` exports for routing.
        """
        return sum(s.resume_kv_tokens for s in self._waiting)

    # -- admission --------------------------------------------------------------
    def schedule_prefill(self) -> RequestState | None:
        """Pop the next admissible waiting request (to be prefilled), if any.

        The policy chooses the head of the queue; the head is admitted when
        its materialised KV fits under the high watermark.  When nothing is
        running the head is admitted unconditionally — anything that passed
        the submit-time ``prompt + max_new_tokens <= kv_token_capacity`` check
        can always run alone, which rules out deadlock.  Policies do not skip
        over an oversized head (no bypass), so FCFS keeps its no-overtaking
        guarantee.
        """
        if not self._waiting or len(self._running) >= self.config.max_batch_size:
            return None
        head = min(self._waiting, key=self.policy.admission_key)
        if self._running:
            projected = self.kv_tokens_in_use() + head.resume_kv_tokens
            if projected > self.config.kv_high_watermark:
                return None
        self._waiting.remove(head)
        self._running.append(head)
        return head

    # -- decode + preemption -----------------------------------------------------
    def decode_batch(self) -> list[RequestState]:
        """The requests that take part in the next decode iteration."""
        return [s for s in self._running if s.status is RequestStatus.DECODING]

    def preempt_for_pressure(
        self, victim_order=None, demote: bool = False
    ) -> list[RequestState]:
        """Evict running requests so the next decode iteration fits; may be empty.

        A decode iteration appends one KV token per decoding request.  If
        ``kv_tokens_in_use() + batch`` would exceed ``kv_token_capacity``,
        victims are taken in the policy's :meth:`~SchedulingPolicy.victim_order`
        until the iteration fits *and* usage has drained to the low watermark
        (hysteresis).  At least one decoding request always survives, which —
        together with the submit-time capacity check — guarantees forward
        progress.  Victims are moved back to the waiting queue; the caller
        (the serving engine) must release their backend KV and mark the
        states preempted.

        ``victim_order`` overrides the policy's ranking (a callable from a
        list of decoding states to the same states most-evictable first) —
        the tiering-enabled engine passes the backend's LRU-by-last-attended
        order.  With ``demote=True`` the evictions count as demotions rather
        than preemptions (the caller parks the KV in the cold tier instead of
        releasing it).
        """
        decoding = self.decode_batch()
        in_use = self.kv_tokens_in_use()
        incoming = len(decoding)
        if in_use + incoming <= self.config.kv_token_capacity:
            return []
        ordered = (
            victim_order(decoding) if victim_order is not None
            else self.policy.victim_order(decoding)
        )
        victims: list[RequestState] = []
        for victim in ordered:
            if len(decoding) - len(victims) <= 1:
                break
            victims.append(victim)
            in_use -= victim.context_length
            incoming -= 1
            if (
                in_use + incoming <= self.config.kv_token_capacity
                and in_use <= self.config.kv_low_watermark
            ):
                break
        for victim in victims:
            self._running.remove(victim)
            self._waiting.append(victim)
        if demote:
            self._total_demotions += len(victims)
        else:
            self._total_preemptions += len(victims)
        return victims

    def force_preempt(self, states: list[RequestState], demote: bool = False) -> None:
        """Evict specific running requests (backend-reported KV exhaustion).

        Token-level watermarks are an *estimate* of page-pool pressure; the
        backend's page allocator is the ground truth.  When a decode
        iteration reports that specific sequences could not reserve their
        pages, the serving engine evicts exactly those — the caller releases
        their backend KV and marks the states preempted, as with
        :meth:`preempt_for_pressure` victims.  ``demote=True`` counts the
        evictions as cold-tier demotions instead of preemptions.
        """
        for state in states:
            self._running.remove(state)
            self._waiting.append(state)
        if demote:
            self._total_demotions += len(states)
        else:
            self._total_preemptions += len(states)

    def remove(self, state: RequestState) -> bool:
        """Withdraw a request from the scheduler entirely (caller abort).

        Unlike preemption the state does not re-enter the waiting queue —
        it simply stops being the scheduler's problem.  Returns ``True`` when
        the request was running (the caller must then release its backend KV)
        and ``False`` when it was only waiting/preempted (no KV materialised).
        Raises ``ValueError`` for a request the scheduler does not hold.
        """
        if state in self._waiting:
            self._waiting.remove(state)
            return False
        if state in self._running:
            self._running.remove(state)
            return True
        raise ValueError(
            f"request {state.request.request_id!r} is not waiting or running"
        )

    def retire_finished(self) -> list[RequestState]:
        """Drop finished requests from the running batch and hand them back; the caller frees their KV."""
        done = [s for s in self._running if s.is_finished]
        self._running = [s for s in self._running if not s.is_finished]
        return done
