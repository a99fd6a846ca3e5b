"""Asyncio serving front end: live submission, per-token streaming, cancellation.

:class:`AsyncServingEngine` turns the synchronous
:class:`~repro.serving.engine.ServingEngine` step loop into a *live* service:
a background asyncio task drives ``step()`` whenever there is work, and every
token a step emits (:attr:`~repro.serving.engine.StepOutcome.emitted_tokens`)
is delivered to its request's stream the moment the step returns.  Callers
get continuous batching for free — requests submitted while others are
mid-decode join the very next scheduler iteration — and observe TTFT at the
first ``async for`` yield rather than after the whole generation finishes.

The engine, scheduler, backend, and metrics are exactly the synchronous ones;
this module adds *delivery*, not policy.  Everything runs on one event loop
(the step loop is cooperative, yielding between iterations), so there are no
threads and no locks — the same determinism guarantees as the batch API hold,
including byte-identical outputs through preemption.  An HTTP server that
fronts the engine attaches an *admission probe*
(:meth:`AsyncServingEngine.attach_admission_probe`): while the server is
accepting or reading a request, the loop yields a few more times before its
next step, so admission does not wait one step per event-loop hop.

Typical use::

    async with AsyncServingEngine(backend) as server:
        handle = server.submit(Request.from_prompt("r0", prompt, max_new_tokens=64))
        async for token in handle.stream():   # first yield == TTFT
            print(token)

Lifecycle contract (see ``docs/async_serving.md``):

* ``submit()`` — register a request; the drive loop wakes and serves it.
* ``handle.stream()`` — async-iterate tokens as they are emitted.
* ``await handle.result()`` — await completion, get the full token list.
* ``handle.cancel()`` — abort mid-flight; backend KV is released through the
  same decref path preemption uses, the stream ends early.
* ``await drain()`` — refuse new submissions, serve everything in flight.
* ``await shutdown()`` — abort everything still in flight, stop the loop.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.serving.backend import InferenceBackend
from repro.serving.engine import RequestHandle, ServingEngine, StepOutcome
from repro.serving.metrics import LiveGauges, ServingMetrics
from repro.serving.request import Request

__all__ = ["RequestAborted", "TokenStream", "AsyncRequestHandle", "AsyncServingEngine"]

#: Stream sentinel: pushed into a handle's queue when no more tokens will come.
_DONE = object()

#: Most extra yields the drive loop makes to admission work between two steps.
_MAX_ADMISSION_YIELDS = 8


class RequestAborted(Exception):
    """Raised by :meth:`AsyncRequestHandle.result` when the request was cancelled.

    Carries the tokens generated before the abort in :attr:`partial_tokens`.
    """

    def __init__(self, request_id: str, partial_tokens: list[int]) -> None:
        super().__init__(
            f"request {request_id!r} was aborted after {len(partial_tokens)} token(s)"
        )
        self.request_id = request_id
        self.partial_tokens = partial_tokens


class TokenStream:
    """The delivery half every streaming request handle shares.

    A queue of tokens fed by whoever serves the request (the engine's drive
    loop, or a cluster pump), :meth:`stream` / :meth:`result` over it, and
    the finish step that ends both.  One consumer per handle: ``stream()``
    and ``result()`` may be combined (stream first, then await the result),
    but two concurrent ``stream()`` iterations would steal tokens from each
    other.  A subclass says where the request, its tokens and its
    ``cancelled`` flag come from, and how ``cancel()`` reaches the engine.
    """

    def __init__(self, request: Request, tokens: list[int]) -> None:
        self._request = request
        #: The tokens :attr:`output_tokens` reports (a live list the feeder appends to).
        self._tokens = tokens
        self._queue: asyncio.Queue = asyncio.Queue()
        self._done = asyncio.Event()

    @property
    def request_id(self) -> str:
        """The request's unique id."""
        return self._request.request_id

    @property
    def request(self) -> Request:
        """The immutable request this handle tracks."""
        return self._request

    @property
    def output_tokens(self) -> list[int]:
        """Tokens generated so far (a snapshot copy)."""
        return list(self._tokens)

    async def stream(self):
        """Async-iterate tokens as they are emitted.

        The first yield is the request's first token — time-to-first-token is
        observable here, long before the generation finishes.  The iterator
        ends after the last token, or early (without error) when the request
        is cancelled; check :attr:`cancelled` afterwards to tell the two
        apart.  Tokens emitted before ``stream()`` was called are not lost —
        delivery is queued from submission.
        """
        while True:
            token = await self._queue.get()
            if token is _DONE:
                return
            yield token

    async def result(self) -> list[int]:
        """Await completion and return the full output token list.

        Raises :class:`RequestAborted` (carrying the partial tokens) when the
        request was cancelled before finishing.
        """
        await self._done.wait()
        if self.cancelled:
            raise RequestAborted(self.request_id, self.output_tokens)
        return self.output_tokens

    # -- feeder-side delivery ---------------------------------------------------
    def _push(self, token: int) -> None:
        self._queue.put_nowait(token)

    def _finish(self) -> None:
        if not self._done.is_set():
            self._queue.put_nowait(_DONE)
            self._done.set()


class AsyncRequestHandle(TokenStream):
    """Async view of one in-flight request: stream, await, or cancel it.

    Wraps the synchronous :class:`~repro.serving.engine.RequestHandle` (which
    keeps accumulating ``output_tokens``) with the asyncio delivery queue of
    :class:`TokenStream`, fed by the engine's drive loop.
    """

    def __init__(self, sync_handle: RequestHandle, engine: "AsyncServingEngine") -> None:
        super().__init__(sync_handle.request, sync_handle.output_tokens)
        self._sync = sync_handle
        self._engine = engine

    @property
    def finished(self) -> bool:
        """Whether the request is terminal (completed or cancelled)."""
        return self._sync.finished

    @property
    def cancelled(self) -> bool:
        """Whether the request was aborted before completing."""
        return self._sync.cancelled

    def cancel(self) -> bool:
        """Abort the request (idempotent); returns ``True`` if it was live.

        Mid-decode, the request's backend KV is released immediately through
        the same path preemption uses; any active ``stream()`` ends at the
        next iteration and ``result()`` raises :class:`RequestAborted`.
        """
        if self.finished:
            return False
        return self._engine.abort(self.request_id)


class AsyncServingEngine:
    """Continuous-batching serving with live arrivals and streamed delivery.

    Wraps a synchronous :class:`~repro.serving.engine.ServingEngine` (same
    backend/scheduler/metrics semantics — see that class for the policy
    story) in a background *drive loop*: an asyncio task that calls
    ``step()`` while there is work and sleeps on an event otherwise.  The
    loop yields to the event loop between steps, so submissions, stream
    consumers, and HTTP handlers interleave with the serving iterations of a
    single thread.  While an attached admission probe reports a request on
    its way in (:meth:`attach_admission_probe`, which
    :class:`~repro.serving.http.CompletionServer` calls), it yields again
    before the next step, as long as each yield moves the admission on.

    Use as an async context manager (``async with AsyncServingEngine(...)``),
    or call :meth:`start` / :meth:`shutdown` yourself.  All methods must be
    called from the event loop that runs the engine — the front end is
    single-loop by design (no cross-thread synchronisation, same determinism
    as the batch API).
    """

    def __init__(
        self,
        backend: InferenceBackend,
        scheduler_config=None,
        draft_source=None,
    ) -> None:
        self.engine = ServingEngine(backend, scheduler_config, draft_source=draft_source)
        self._handles: dict[str, AsyncRequestHandle] = {}
        self._wake = asyncio.Event()
        self._drive_task: asyncio.Task | None = None
        self._admission_probe = None
        self._draining = False
        #: Exception that killed the drive loop, if any; re-raised by
        #: drain()/shutdown() and blocks further submissions.
        self._failure: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start the background drive loop (idempotent; needs a running loop)."""
        if self._draining:
            raise RuntimeError("engine is draining or shut down; create a new one")
        if self._drive_task is None or self._drive_task.done():
            self._drive_task = asyncio.get_running_loop().create_task(
                self._drive(), name="serving-drive-loop"
            )

    async def __aenter__(self) -> "AsyncServingEngine":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    async def drain(self) -> ServingMetrics:
        """Serve everything in flight to completion, refusing new submissions.

        Returns the engine's aggregate metrics once the last request retires.
        After ``drain()`` the engine is stopped; a new engine must be created
        to serve again.  If the drive loop died on a backend/scheduler
        exception, that exception is re-raised here.
        """
        self._draining = True
        self._wake.set()
        if self._drive_task is not None:
            await self._drive_task
        if self._failure is not None:
            raise RuntimeError("the serving drive loop failed") from self._failure
        # Streams of already-finished requests are flushed by the drive loop;
        # nothing else to wait for.
        return self.engine.metrics

    async def shutdown(self) -> None:
        """Abort everything still in flight and stop the drive loop.

        Re-raises the drive loop's exception if it died on one.
        """
        self._draining = True
        for request_id, handle in list(self._handles.items()):
            if not handle.finished:
                self.abort(request_id)
        self._wake.set()
        if self._drive_task is not None:
            await self._drive_task
            self._drive_task = None
        if self._failure is not None:
            raise RuntimeError("the serving drive loop failed") from self._failure

    def attach_admission_probe(self, probe) -> None:
        """Let the drive loop yield to the admission work ``probe`` reports.

        ``probe()`` returns ``None`` while nothing is being admitted, and
        otherwise a counter that grows with every admission event (an accept,
        a byte read, a submit).  Between two steps the loop yields while the
        probe reports work and the previous yield moved the counter, at most
        ``_MAX_ADMISSION_YIELDS`` times, so a stalled client costs one
        yield per step.  ``None`` detaches (the plain loop: one yield per step).
        """
        self._admission_probe = probe

    # -- submission --------------------------------------------------------------
    def submit(self, request: Request, *, arrive_now: bool = False) -> AsyncRequestHandle:
        """Register a request and wake the drive loop; returns a stream handle.

        With ``arrive_now=True`` the request's ``arrival_time_s`` is replaced
        by the engine's current virtual clock — the right stamp for *live*
        traffic (an HTTP request "arrives" when it is submitted, so queueing
        delay and TTFT are measured from now).  Leave it ``False`` when
        replaying a trace whose arrival times are the experiment: the virtual
        clock then reproduces exactly the schedule the batch API would run.
        """
        if self._failure is not None:
            raise RuntimeError(
                "the serving drive loop failed; submission refused"
            ) from self._failure
        if self._draining:
            raise RuntimeError("engine is draining or shut down; submission refused")
        if arrive_now:
            request = dataclasses.replace(
                request, arrival_time_s=max(request.arrival_time_s, self.engine.clock_s)
            )
        sync_handle = self.engine.submit(request)
        handle = AsyncRequestHandle(sync_handle, self)
        self._handles[request.request_id] = handle
        self.start()
        self._wake.set()
        return handle

    def adopt(self, request: Request, **kwargs) -> AsyncRequestHandle:
        """Adopt a request whose KV was migrated here from another tier.

        Async wrapper over :meth:`ServingEngine.adopt` (same keyword
        arguments): registers a stream handle, wakes the drive loop, and
        returns the handle.  Only tokens generated *on this tier* are
        delivered through :meth:`AsyncRequestHandle.stream` — the prefill
        tier already delivered the earlier ones — while ``output_tokens`` /
        ``result()`` report the complete sequence.
        """
        if self._failure is not None:
            raise RuntimeError(
                "the serving drive loop failed; adoption refused"
            ) from self._failure
        if self._draining:
            raise RuntimeError("engine is draining or shut down; adoption refused")
        sync_handle = self.engine.adopt(request, **kwargs)
        handle = AsyncRequestHandle(sync_handle, self)
        self._handles[request.request_id] = handle
        self.start()
        self._wake.set()
        return handle

    def handle(self, request_id: str) -> AsyncRequestHandle:
        """Look up the async handle of an *in-flight* request.

        Terminal requests are pruned from the engine's maps the moment their
        last token is delivered (a long-lived server must not accumulate one
        handle per request forever), so look-ups are only valid while the
        request is live — keep the handle ``submit()`` returned to read
        results afterwards.
        """
        return self._handles[request_id]

    def abort(self, request_id: str) -> bool:
        """Abort an in-flight request by id; ``False`` if it is not in flight.

        Also terminates the request's stream (the async iterator ends early).
        Unlike :meth:`ServingEngine.abort`, an unknown id returns ``False``
        rather than raising: terminal requests are pruned from the live maps,
        so "finished just now" and "never existed" are indistinguishable here.
        """
        handle = self._handles.pop(request_id, None)
        if handle is None:
            return False
        aborted = self.engine.abort(request_id)
        self.engine.clear_finished()
        handle._finish()
        return aborted

    # -- observability -----------------------------------------------------------
    @property
    def metrics(self) -> ServingMetrics:
        """Aggregate metrics over completed requests (same as the batch API)."""
        return self.engine.metrics

    @property
    def failure(self) -> BaseException | None:
        """The exception that killed the drive loop, or ``None`` while healthy.

        A failed engine has terminated every live stream and refuses new
        submissions; ``drain()``/``shutdown()`` re-raise this exception.  A
        :class:`~repro.serving.cluster.ServingCluster` uses it to tell a
        replica failure apart from an ordinary cancellation.
        """
        return self._failure

    def live_gauges(self) -> LiveGauges:
        """Instantaneous queue/batch/KV gauges (see :class:`LiveGauges`)."""
        return self.engine.live_gauges()

    def prometheus_metrics(self) -> str:
        """The live gauges in Prometheus text format (the ``/metrics`` body)."""
        return self.live_gauges().to_prometheus()

    # -- the drive loop ----------------------------------------------------------
    async def _drive(self) -> None:
        """Step the sync engine while work exists; sleep on the wake event otherwise.

        Exactly one drive loop runs per engine.  Each iteration performs one
        scheduler step (one prefill, one resume, or one batched decode), then
        yields control so submissions and stream consumers run; when the
        engine goes idle the loop parks on the wake event until the next
        ``submit()`` (or ``drain()``/``shutdown()``, which let it exit).
        With an admission probe attached, the loop then yields again while
        the probe reports admission work that the last yield moved on
        (:meth:`_yield_to_admission`): a connection the server is accepting
        or reading reaches ``submit()`` within a step, not one step per hop.

        A step exception (backend bug, genuinely unservable pool, ...) must
        not strand consumers on streams that will never end: the loop records
        the failure, terminates every live stream, and stops accepting work;
        ``drain()``/``shutdown()`` re-raise the failure to the caller.
        """
        try:
            while True:
                if self.engine.has_work:
                    outcome = self.engine.step()
                    if outcome is not None:
                        self._publish(outcome)
                    await asyncio.sleep(0)
                    if self._admission_probe is not None:
                        await self._yield_to_admission(self._admission_probe)
                    continue
                if self._draining:
                    break
                self._wake.clear()
                # Re-check after clearing: a submit() between the has_work
                # check and clear() would otherwise be missed.
                if self.engine.has_work or self._draining:
                    continue
                await self._wake.wait()
        except Exception as exc:
            self._failure = exc
            self._draining = True
            for request_id, handle in list(self._handles.items()):
                if not handle.finished:
                    try:
                        self.engine.abort(request_id)
                    except Exception:
                        # The engine may be mid-step inconsistent; ending the
                        # stream is what matters now.
                        pass
                handle._finish()

    @staticmethod
    async def _yield_to_admission(probe) -> None:
        """Yield while ``probe`` reports admission work and each yield moves it on.

        Stops at the first yield after which the probe's counter has not
        moved (a stalled or idle connection), and after
        ``_MAX_ADMISSION_YIELDS`` yields: admission never holds decoding
        back by more than a few event-loop iterations.
        """
        seen = None
        for _ in range(_MAX_ADMISSION_YIELDS):
            progress = probe()
            if progress is None or progress == seen:
                return
            seen = progress
            await asyncio.sleep(0)

    def _publish(self, outcome: StepOutcome) -> None:
        """Deliver one step's emissions, then prune the finished requests.

        Pruning bounds memory in a long-lived server: the engine-side maps
        (this front end's and the sync engine's, each holding the full output
        token list) drop a request as soon as its last token is delivered.
        The ``AsyncRequestHandle`` returned by ``submit()`` keeps working —
        it owns its queue and its reference to the tokens.
        """
        for request_id, token in outcome.emitted_tokens:
            handle = self._handles.get(request_id)
            if handle is not None:
                handle._push(token)
        for request_id in outcome.finished_ids:
            handle = self._handles.pop(request_id, None)
            if handle is not None:
                handle._finish()
        if outcome.finished_ids:
            self.engine.clear_finished()
