"""Async HTTP client and open-loop load generator for the serving front end.

:class:`CompletionClient` speaks the :class:`~repro.serving.http.CompletionServer`
protocol over raw ``asyncio`` connections (one connection per request, like
the server expects): non-streaming and SSE-streaming completions, plus the
``/healthz`` and ``/metrics`` probes.  Streaming completions measure
**wall-clock** time-to-first-token at the first SSE event — the client-side
observable the whole streaming front end exists for.

:func:`replay_trace` is the open-loop load generator: it replays a
:mod:`repro.serving.workload` trace against a server, submitting each request
at its (scaled) arrival offset *regardless of whether earlier requests have
completed* — the arrival process, not the server, controls the load.  Compare
with a closed-loop driver (a fixed number of workers, next request only after
the previous finishes), which self-throttles under saturation and therefore
underestimates queueing delay; ``benchmarks/bench_async_serving.py`` sweeps
both against the same engine.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.serving.request import Request
from repro.serving.workload import arrival_offsets

__all__ = ["CompletionResult", "CompletionClient", "replay_trace"]


@dataclass
class CompletionResult:
    """One completed (or failed) completion call, with wall-clock timings.

    ``wall_ttft_s`` is only measured for streaming calls (first SSE event);
    non-streaming calls observe nothing before the full body arrives.
    ``error`` carries the server's error message for non-200 responses, in
    which case the token fields are empty.
    """

    request_id: str
    status: int
    token_ids: list[int] = field(default_factory=list)
    text: str | None = None
    finish_reason: str | None = None
    wall_ttft_s: float | None = None
    wall_latency_s: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the server answered 200."""
        return self.status == 200


class CompletionClient:
    """Minimal async client for the completion server (one connection per call)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    # -- plumbing ----------------------------------------------------------------
    async def _open(self, method: str, path: str, body: bytes = b""):
        """Send one request; return ``(status, reader, writer)`` with body unread."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split()
        status = int(parts[1]) if len(parts) > 1 else 0
        while True:  # drain response headers; Connection: close delimits the body
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return status, reader, writer

    async def _call(self, method: str, path: str, body: bytes = b""):
        """One full request/response cycle; returns ``(status, body_bytes)``."""
        status, reader, writer = await self._open(method, path, body)
        try:
            payload = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        return status, payload

    # -- probes ------------------------------------------------------------------
    async def healthz(self) -> dict:
        """``GET /healthz`` as a dict (raises for non-200)."""
        status, body = await self._call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz returned {status}")
        return json.loads(body)

    async def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition."""
        status, body = await self._call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return body.decode()

    # -- completions -------------------------------------------------------------
    def _payload(self, prompt, max_tokens: int, stream: bool, **sampling) -> bytes:
        body: dict = {"prompt": prompt, "max_tokens": max_tokens, "stream": stream}
        for key in ("temperature", "top_k", "seed", "stop", "speculation_k", "priority"):
            if sampling.get(key) is not None:
                body[key] = sampling[key]
        return json.dumps(body).encode()

    async def complete(
        self, prompt, max_tokens: int = 16, stream: bool = False, **sampling
    ) -> CompletionResult:
        """Run one completion; ``stream=True`` consumes SSE and measures TTFT.

        ``prompt`` is a list of token ids (or a string against a
        tokenizer-equipped server).  ``sampling`` accepts ``temperature``,
        ``top_k``, ``seed``, ``stop`` (stop token id list), ``speculation_k``
        and ``priority``.
        """
        if stream:
            return await self._complete_streaming(prompt, max_tokens, **sampling)
        start = time.perf_counter()
        status, body = await self._call(
            "POST", "/v1/completions", self._payload(prompt, max_tokens, False, **sampling)
        )
        elapsed = time.perf_counter() - start
        payload = json.loads(body) if body else {}
        if status != 200:
            message = payload.get("error", {}).get("message", body.decode(errors="replace"))
            return CompletionResult(
                request_id="", status=status, wall_latency_s=elapsed, error=message
            )
        choice = payload["choices"][0]
        return CompletionResult(
            request_id=payload["id"],
            status=status,
            token_ids=list(choice["token_ids"]),
            text=choice.get("text"),
            finish_reason=choice.get("finish_reason"),
            wall_latency_s=elapsed,
        )

    async def _complete_streaming(
        self, prompt, max_tokens: int, **sampling
    ) -> CompletionResult:
        start = time.perf_counter()
        status, reader, writer = await self._open(
            "POST", "/v1/completions", self._payload(prompt, max_tokens, True, **sampling)
        )
        try:
            if status != 200:
                body = await reader.read()
                payload = json.loads(body) if body else {}
                return CompletionResult(
                    request_id="",
                    status=status,
                    wall_latency_s=time.perf_counter() - start,
                    error=payload.get("error", {}).get("message", "stream refused"),
                )
            result = CompletionResult(request_id="", status=status)
            text_parts: list[str] = []
            async for event in self._sse_events(reader):
                result.request_id = event["id"]
                choice = event["choices"][0]
                if "token" not in choice:
                    # Terminal chunk: carries the finish reason only.
                    result.finish_reason = choice.get("finish_reason")
                    continue
                if result.wall_ttft_s is None:
                    result.wall_ttft_s = time.perf_counter() - start
                result.token_ids.append(choice["token"])
                if "text" in choice:
                    text_parts.append(choice["text"])
            result.wall_latency_s = time.perf_counter() - start
            if text_parts:
                result.text = "".join(text_parts)
            return result
        finally:
            writer.close()
            await writer.wait_closed()

    @staticmethod
    async def _sse_events(reader: asyncio.StreamReader):
        """Yield parsed ``data:`` events until ``[DONE]`` or connection close."""
        while True:
            line = await reader.readline()
            if not line:
                return
            line = line.strip()
            if not line.startswith(b"data:"):
                continue
            data = line[len(b"data:"):].strip()
            if data == b"[DONE]":
                return
            yield json.loads(data)


async def replay_trace(
    client: CompletionClient,
    requests: list[Request],
    time_scale: float = 1.0,
    stream: bool = True,
) -> list[CompletionResult]:
    """Open-loop replay of a workload trace against a completion server.

    Each request is submitted at ``time_scale x`` its arrival offset within
    the trace (``time_scale=0`` submits everything at once), on its own
    connection, without waiting for earlier requests — the defining property
    of open-loop load.  Requests must carry ``prompt_token_ids`` (generate the
    trace with ``with_token_ids=True``).  Results come back in trace order.
    """
    offsets = arrival_offsets(requests, time_scale=time_scale)

    async def fire(request: Request, offset: float) -> CompletionResult:
        if request.prompt_token_ids is None:
            raise ValueError(
                f"request {request.request_id!r} carries no prompt_token_ids; "
                "generate the trace with with_token_ids=True"
            )
        if offset > 0:
            await asyncio.sleep(offset)
        sampling = request.sampling
        return await client.complete(
            list(request.prompt_token_ids),
            max_tokens=request.max_new_tokens,
            stream=stream,
            temperature=sampling.temperature,
            top_k=sampling.top_k,
            seed=sampling.seed,
            stop=list(sampling.stop_token_ids),
            speculation_k=sampling.speculation_k,
            priority=request.priority or None,
        )

    return list(
        await asyncio.gather(*(fire(r, o) for r, o in zip(requests, offsets)))
    )
