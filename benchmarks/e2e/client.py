"""The benchmark's own load client: one SSE completion, every event timestamped.

Kept here and not taken from ``repro.serving.client`` on purpose: that client
records only TTFT and total latency, and being under ``src/`` it could differ
between the two commits a comparison runs on.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field


@dataclass
class Served:
    """What the client saw of one request (all times are ``time.perf_counter()``)."""

    sent_at: float
    status: int = 0
    request_id: str = ""
    tokens: list[int] = field(default_factory=list)
    token_times: list[float] = field(default_factory=list)
    done_at: float = 0.0
    #: The stream ended with its terminal event (finish reason, then ``[DONE]``).
    terminated: bool = False


async def sse_completion(host: str, port: int, prompt: tuple[int, ...], max_tokens: int) -> Served:
    """POST one streaming completion and read its events to the end."""
    body = json.dumps({"prompt": list(prompt), "max_tokens": max_tokens, "stream": True}).encode()
    head = (
        f"POST /v1/completions HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()
    served = Served(sent_at=time.perf_counter())
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + body)
        await writer.drain()
        status_line = (await reader.readline()).split()
        served.status = int(status_line[1]) if len(status_line) > 1 else 0
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass  # response headers
        finished = False
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.startswith(b"data: "):
                continue
            payload = line[6:].strip()
            if payload == b"[DONE]":
                served.terminated = finished
                break
            event = json.loads(payload)
            served.request_id = event.get("id", served.request_id)
            choice = event["choices"][0]
            if "token" in choice:
                served.tokens.append(choice["token"])
                served.token_times.append(time.perf_counter())
            elif "finish_reason" in choice:
                finished = choice["finish_reason"] in ("length", "stop")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    served.done_at = time.perf_counter()
    return served


async def inproc_completion(frontend, request) -> Served:
    """Submit ``request`` straight to the ``AsyncServingEngine`` and consume its stream."""
    served = Served(sent_at=time.perf_counter(), status=200, request_id=request.request_id)
    handle = frontend.submit(request, arrive_now=True)
    async for token in handle.stream():
        served.tokens.append(token)
        served.token_times.append(time.perf_counter())
    served.terminated = handle.finished and not handle.cancelled
    served.done_at = time.perf_counter()
    return served
