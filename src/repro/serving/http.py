"""Dependency-free HTTP front end: OpenAI-style completions over asyncio streams.

:class:`CompletionServer` exposes an :class:`~repro.serving.frontend.AsyncServingEngine`
over plain HTTP/1.1 built on ``loop.create_server`` and asyncio streams — no
web framework, no third-party packages.  Endpoints:

* ``POST /v1/completions`` — OpenAI-style completion.  JSON body fields:
  ``prompt`` (a list of token ids, or a string when the server was built with
  a tokenizer), ``max_tokens``, ``stream`` (Server-Sent Events when true),
  ``temperature``, ``top_k``, ``seed``, ``stop`` (stop token ids),
  ``speculation_k`` (draft depth; 0 decodes plainly) and ``priority``
  (scheduling class).  Non-streaming responses return the full
  completion; streaming responses deliver one SSE ``data:`` event per token
  (TTFT is observable at the first event) and end with ``data: [DONE]``.
* ``GET /healthz`` — liveness probe with in-flight/clock gauges (JSON).
* ``GET /metrics`` — the engine's :class:`~repro.serving.metrics.LiveGauges`
  in the Prometheus text exposition format.

The server speaks to anything with the async-engine surface —
``start()`` / ``submit(request, arrive_now=True)`` / ``live_gauges()`` /
``prometheus_metrics()`` — which today means a single
:class:`AsyncServingEngine` or a whole
:class:`~repro.serving.cluster.ServingCluster`.  Serving a cluster adds
per-replica labelled series to ``/metrics`` and a ``replicas`` health map to
``/healthz``; completions are routed by the cluster's policy, invisibly to
the client.

Every connection serves one request and closes (``Connection: close``) —
open-loop load generators should open one connection per request, which is
what :mod:`repro.serving.client` does.  A client that disconnects before its
completion is delivered **aborts** its request: the engine releases the
request's KV through the cancellation path, so abandoned requests cannot
leak pool pages.  A streaming request notices at its next failed write; a
non-streaming one watches its connection for end-of-file while it waits (so a
client that half-closes its side after sending the request counts as gone).

While a request is on its way in — a connection waits on the listening
socket, or an accepted connection has not yet been submitted, refused or
closed — the server reports it to the engine's drive loop through an
admission probe, and the loop yields to it before its next step
(:meth:`~repro.serving.frontend.AsyncServingEngine.attach_admission_probe`).
"""

from __future__ import annotations

import asyncio
import json
import selectors
import time

from repro.serving.frontend import AsyncRequestHandle, AsyncServingEngine
from repro.serving.request import Request
from repro.serving.sampling import SamplingParams

__all__ = ["CompletionServer"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Read size while a non-streaming completion watches its connection for EOF.
_READ_CHUNK = 64 * 1024
#: Header lines a request head may carry (``http.client``'s limit).
_MAX_HEADERS = 100


def _is_int(value) -> bool:
    """A JSON integer and not a boolean (``True`` is an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(payload: dict, name: str, default: int) -> int:
    """``payload[name]`` when it is a JSON integer (not a float, ``Infinity`` or boolean)."""
    value = payload.get(name, default)
    if not _is_int(value):
        raise _BadRequest(f"'{name}' must be an integer")
    return value


class _BadRequest(Exception):
    """Maps to a 400 response; the message is returned to the client."""


class _Connection(asyncio.StreamReaderProtocol):
    """One accepted connection: a stream protocol that reports admission progress.

    The server's protocol factory builds it, and from then until its request
    has been read (and so submitted or refused) or the connection closes it
    is admission work.  Every event on the way — the factory call, the
    connection made, bytes received — moves the server's progress counter.
    """

    def __init__(self, server: "CompletionServer") -> None:
        super().__init__(asyncio.StreamReader(), self._serve)
        self._owner = server
        server._admitting.add(self)
        server._admission_events += 1

    def connection_made(self, transport) -> None:
        self._owner._admission_events += 1
        super().connection_made(transport)

    def data_received(self, data: bytes) -> None:
        self._owner._admission_events += 1
        super().data_received(data)

    def connection_lost(self, exc) -> None:
        self.admitted()
        super().connection_lost(exc)

    def admitted(self) -> None:
        """The request is read (or the connection is gone): no longer admission work."""
        if self in self._owner._admitting:
            self._owner._admitting.discard(self)
            self._owner._admission_events += 1

    async def _serve(self, reader, writer) -> None:
        await self._owner._handle(self, reader, writer)


class CompletionServer:
    """Serve an :class:`AsyncServingEngine` or a cluster over HTTP (see module docstring).

    ``port=0`` binds an ephemeral port; read :attr:`port` after :meth:`start`.
    ``tokenizer`` (optional, e.g. :class:`~repro.model.tokenizer.ToyTokenizer`)
    enables string prompts and attaches decoded ``text`` to responses; without
    one, prompts must be token-id lists and responses carry ids only.

    Use as an async context manager, or call :meth:`start` / :meth:`close`.
    The server does not own the engine's lifecycle — shut the engine down
    separately (typically: close the server, then ``await engine.drain()``).
    """

    def __init__(
        self,
        engine: AsyncServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        tokenizer=None,
        model_name: str = "repro-lserve",
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.tokenizer = tokenizer
        self.model_name = model_name
        self._server: asyncio.AbstractServer | None = None
        self._request_counter = 0
        # Admission bookkeeping read by the engine's drive loop (_admission).
        self._listening: selectors.BaseSelector | None = None
        self._accepting = False
        self._admitting: set[_Connection] = set()
        self._admission_events = 0

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> "CompletionServer":
        """Bind and start accepting connections; resolves the ephemeral port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.engine.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._listening = selectors.DefaultSelector()
        for sock in self._server.sockets:
            self._listening.register(sock.fileno(), selectors.EVENT_READ)
        self.engine.attach_admission_probe(self._admission)
        return self

    async def close(self) -> None:
        """Stop accepting connections (in-flight engine requests keep running)."""
        if self._server is not None:
            self.engine.attach_admission_probe(None)
            self._listening.close()
            self._listening = None
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "CompletionServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def address(self) -> str:
        """The server's ``host:port`` (valid after :meth:`start`)."""
        return f"{self.host}:{self.port}"

    # -- admission -----------------------------------------------------------------
    def _admission(self) -> int | None:
        """The engine's admission probe: ``None`` when no request is on its way in.

        Otherwise the count of admission events so far.  Work is a connection
        waiting on a listening socket (a non-blocking readiness check), one
        accepted since the previous look whose protocol is not built yet, or
        an accepted connection whose request is not yet read.
        """
        if self._listening is None:
            return None
        ready = bool(self._listening.select(0))
        accepted = self._accepting and not ready
        self._accepting = ready
        if accepted:
            self._admission_events += 1
        if ready or accepted or self._admitting:
            return self._admission_events
        return None

    # -- connection handling ------------------------------------------------------
    async def _handle(
        self,
        connection: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            finally:
                # Read (or failed): what follows — submit or refuse — runs
                # without another hop, so admission is over here.
                connection.admitted()
            if parsed is None:
                return
            method, path, body = parsed
            if path == "/healthz" and method == "GET":
                health = self._healthz()
                # Probes key on the status code: a fleet that cannot serve
                # (every replica quarantined) must fail the check, not 200.
                await self._respond_json(
                    writer, 200 if health["status"] == "ok" else 503, health
                )
            elif path == "/metrics" and method == "GET":
                await self._respond(
                    writer,
                    200,
                    "text/plain; version=0.0.4",
                    self.engine.prometheus_metrics().encode(),
                )
            elif path == "/v1/completions" and method == "POST":
                await self._completions(reader, writer, body)
            elif path in ("/healthz", "/metrics", "/v1/completions"):
                await self._respond_error(writer, 405, f"method {method} not allowed")
            else:
                await self._respond_error(writer, 404, f"unknown path {path}")
        except _BadRequest as exc:
            await self._respond_error(writer, 400, str(exc))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; completions handle their own abort
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One line of the request head; ``_BadRequest`` past the reader's limit (64 KiB)."""
        try:
            return await reader.readline()
        except ValueError:  # ``readline`` reports an overrun limit as a ValueError
            raise _BadRequest("request line or header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request head + body; ``None`` on empty connection."""
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest("malformed request line")
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {_MAX_HEADERS} header lines")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            raise _BadRequest(f"invalid Content-Length {raw_length!r}")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    # -- endpoints ----------------------------------------------------------------
    def _healthz(self) -> dict:
        gauges = self.engine.live_gauges()
        body = {
            "status": "ok",
            "in_flight": gauges.in_flight,
            "running": gauges.running,
            "queue_depth": gauges.queue_depth,
            "kv_occupancy": gauges.kv_occupancy,
            "clock_s": gauges.clock_s,
        }
        # Cluster engines expose per-replica health; a fleet with quarantined
        # replicas still answers "ok" as long as it can serve.
        replica_health = getattr(self.engine, "replica_health", None)
        if replica_health is not None:
            replicas = replica_health()
            body["replicas"] = replicas
            if not any(replicas.values()):
                body["status"] = "unhealthy"
        # Clusters also report pool membership (one pool, or a disaggregated pair).
        pools = getattr(self.engine, "pools", None)
        if pools is not None:
            body["pools"] = pools()
        return body

    async def _completions(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        request, stream = self._parse_completion(body)
        try:
            handle = self.engine.submit(request, arrive_now=True)
        except RuntimeError as exc:  # draining / shut down
            await self._respond_error(writer, 503, str(exc))
            return
        except ValueError as exc:  # oversized request, duplicate id, ...
            await self._respond_error(writer, 400, str(exc))
            return
        if stream:
            await self._stream_completion(writer, handle)
            return
        watcher = asyncio.ensure_future(self._cancel_at_eof(reader, handle))
        try:
            tokens = [t async for t in handle.stream()]
        finally:
            gone = watcher.done()
            watcher.cancel()
        if not gone:
            await self._respond_json(
                writer, 200, self._completion_body(handle, tokens)
            )

    @staticmethod
    async def _cancel_at_eof(
        reader: asyncio.StreamReader, handle: AsyncRequestHandle
    ) -> None:
        """Cancel ``handle`` once the client's side of the connection ends.

        A non-streaming completion writes nothing until it is done, so a
        client that leaves is seen only on the read side; without this its
        request would decode to ``max_tokens`` and hold its KV pages.
        """
        try:
            while await reader.read(_READ_CHUNK):
                pass  # nothing more belongs to this request; discard it
        except OSError:  # reset by the peer: gone all the same
            pass
        handle.cancel()

    def _parse_completion(self, body: bytes):
        """Validate the JSON body into a ``Request``; raises ``_BadRequest``."""
        try:
            payload = json.loads(body.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        prompt = payload.get("prompt")
        if isinstance(prompt, str):
            if self.tokenizer is None:
                raise _BadRequest(
                    "string prompts need a server-side tokenizer; "
                    "send a list of token ids instead"
                )
            token_ids = self.tokenizer.encode(prompt)
        elif isinstance(prompt, list) and prompt and all(
            _is_int(t) for t in prompt
        ):
            token_ids = prompt
        else:
            raise _BadRequest("'prompt' must be a non-empty list of token ids or a string")
        max_tokens = _int_field(payload, "max_tokens", 16)
        if max_tokens < 1:
            raise _BadRequest("'max_tokens' must be a positive integer")
        priority = _int_field(payload, "priority", 0)
        sampling = None
        if any(k in payload for k in ("temperature", "top_k", "seed", "stop", "speculation_k")):
            top_k = payload.get("top_k")
            if top_k is not None and not _is_int(top_k):
                raise _BadRequest("'top_k' must be an integer")
            # Only a missing key or null means no stop: 0, false, "" and {} are refused.
            stop = payload.get("stop")
            if stop is None:
                stop = ()
            elif not isinstance(stop, list) or not all(_is_int(t) for t in stop):
                raise _BadRequest("'stop' must be a list of token ids")
            temperature = payload.get("temperature", 0.0)
            if not isinstance(temperature, (int, float)) or isinstance(temperature, bool):
                raise _BadRequest("'temperature' must be a number")
            seed = _int_field(payload, "seed", 0)
            speculation_k = _int_field(payload, "speculation_k", 0)
            try:
                sampling = SamplingParams(
                    temperature=float(temperature),
                    top_k=top_k,
                    seed=seed,
                    stop_token_ids=tuple(stop),
                    speculation_k=speculation_k,
                )
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"invalid sampling parameters: {exc}") from None
        self._request_counter += 1
        request_id = f"cmpl-{self._request_counter}"
        try:
            request = Request.from_prompt(
                request_id,
                token_ids,
                max_new_tokens=max_tokens,
                sampling=sampling,
                priority=priority,
            )
        except (TypeError, ValueError) as exc:
            raise _BadRequest(str(exc)) from None
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise _BadRequest("'stream' must be a JSON boolean")
        return request, stream

    def _finish_reason(self, handle: AsyncRequestHandle, tokens: list[int]) -> str:
        """``"aborted"`` | ``"stop"`` | ``"length"`` for a delivered request.

        Stop tokens resolve the way the engine samples them: by the request's
        own ``SamplingParams``.
        """
        if handle.cancelled:
            return "aborted"
        if tokens and handle.request.sampling.is_stop(tokens[-1]):
            return "stop"
        return "length"

    def _completion_body(self, handle: AsyncRequestHandle, tokens: list[int]) -> dict:
        choice = {
            "index": 0,
            "token_ids": tokens,
            "finish_reason": self._finish_reason(handle, tokens),
        }
        if self.tokenizer is not None:
            choice["text"] = self.tokenizer.decode(tokens)
        prompt_tokens = handle.request.prompt_tokens
        return {
            "id": handle.request_id,
            "object": "text_completion",
            "created": int(time.time()),
            "model": self.model_name,
            "choices": [choice],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": len(tokens),
                "total_tokens": prompt_tokens + len(tokens),
            },
        }

    async def _stream_completion(
        self, writer: asyncio.StreamWriter, handle: AsyncRequestHandle
    ) -> None:
        """Send one SSE event per token; abort the request if the client leaves."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            await writer.drain()
            tokens: list[int] = []
            async for token in handle.stream():
                tokens.append(token)
                event = {
                    "id": handle.request_id,
                    "object": "text_completion.chunk",
                    "model": self.model_name,
                    "choices": [{"index": 0, "token": token}],
                }
                if self.tokenizer is not None:
                    event["choices"][0]["text"] = self.tokenizer.decode([token])
                writer.write(f"data: {json.dumps(event)}\n\n".encode())
                await writer.drain()
            # A terminal event before [DONE] carries the finish reason, so a
            # client can tell a server-side abort from a completed generation
            # (the stream itself just ends early on cancellation).
            final = {
                "id": handle.request_id,
                "object": "text_completion.chunk",
                "model": self.model_name,
                "choices": [
                    {"index": 0, "finish_reason": self._finish_reason(handle, tokens)}
                ],
            }
            writer.write(f"data: {json.dumps(final)}\n\ndata: [DONE]\n\n".encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The consumer is gone: withdraw the request so its KV frees now
            # instead of decoding tokens nobody will read.
            handle.cancel()

    # -- response plumbing --------------------------------------------------------
    _STATUS_TEXT = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        503: "Service Unavailable",
    }

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, content_type: str, body: bytes
    ) -> None:
        reason = self._STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        await self._respond(
            writer, status, "application/json", json.dumps(payload).encode()
        )

    async def _respond_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._respond_json(
            writer, status, {"error": {"message": message, "code": status}}
        )
