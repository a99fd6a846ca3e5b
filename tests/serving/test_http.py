"""Tests for the HTTP front end and async client: endpoints, SSE, load replay.

The acceptance-critical property: tokens collected via the HTTP SSE endpoint
are byte-identical to a ``ServingEngine.run`` batch run on the same trace,
with preemption enabled.  Also covered: the OpenAI-style response shapes,
string prompts through a tokenizer, error statuses, the live-gauge endpoints,
open-loop trace replay, the disconnect-aborts-the-request contract, and the
admission policy (the drive loop yields to a request on its way in; counted in
engine steps and event-loop iterations, never in time).

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.tokenizer import ToyTokenizer
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    CompletionClient,
    CompletionServer,
    LServeBackend,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
    replay_trace,
)

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def make_backend(model, num_pages=512) -> LServeBackend:
    return LServeBackend(
        LServeEngine(
            model,
            LServeConfig(
                streaming_head_ratio=0.5,
                dynamic_sparsity_enabled=True,
                kv_bits=16,
                physical_page_size=16,
                logical_page_size=4,
                sink_tokens=16,
                local_tokens=32,
                q_block_size=16,
                token_budget=64,
                reuse_interval=4,
            ),
            streaming_kv_heads=STREAMING_MASK,
            num_cache_pages=num_pages,
        )
    )


def prompt(model, seed: int, n: int = 48) -> list[int]:
    return [int(t) for t in (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size]


#: Same tight pool as test_frontend: decode growth forces preemption mid-run.
TIGHT = SchedulerConfig(
    max_batch_size=4, kv_token_capacity=256, kv_high_watermark=230, kv_low_watermark=128
)


def serve(model, coro_factory, scheduler_config=None, tokenizer=None, draft_source=None):
    """Run ``coro_factory(server, client, engine)`` against a live server."""

    async def main():
        async with AsyncServingEngine(
            make_backend(model), scheduler_config, draft_source=draft_source
        ) as engine:
            async with CompletionServer(engine, port=0, tokenizer=tokenizer) as server:
                client = CompletionClient(server.host, server.port)
                return await coro_factory(server, client, engine)

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz(self, model):
        async def scenario(server, client, engine):
            return await client.healthz()

        health = serve(model, scenario)
        assert health["status"] == "ok"
        assert health["in_flight"] == 0

    def test_metrics_prometheus_exposition(self, model):
        async def scenario(server, client, engine):
            await client.complete(prompt(model, 0), max_tokens=4)
            return await client.metrics()

        text = serve(model, scenario)
        assert "# TYPE repro_serving_kv_occupancy gauge" in text
        assert "repro_serving_completed 1" in text

    def test_unknown_path_404_and_wrong_method_405(self, model):
        async def scenario(server, client, engine):
            status_404, _ = await client._call("GET", "/v2/nothing")
            status_405, _ = await client._call("POST", "/healthz")
            return status_404, status_405

        assert serve(model, scenario) == (404, 405)

    def test_bad_json_and_bad_fields_400(self, model):
        async def scenario(server, client, engine):
            s1, _ = await client._call("POST", "/v1/completions", b"{not json")
            s2, b2 = await client._call("POST", "/v1/completions", b'{"prompt": []}')
            s3, _ = await client._call(
                "POST", "/v1/completions",
                json.dumps({"prompt": [1, 2], "max_tokens": 0}).encode(),
            )
            s4, b4 = await client._call(
                "POST", "/v1/completions",
                json.dumps(
                    {"prompt": [1, 2], "temperature": 1.0, "top_k": 2.5}
                ).encode(),
            )
            s5, _ = await client._call(
                "POST", "/v1/completions",
                json.dumps({"prompt": [True, False]}).encode(),  # bools != token ids
            )
            # Python's json reads and writes NaN/Infinity; none of them, nor a
            # boolean count, may reach the engine (a NaN temperature killed
            # the drive loop; an infinite seed or priority closed the
            # connection unanswered).
            hostile = []
            for field, value in (
                ("temperature", float("nan")),
                ("temperature", float("inf")),
                ("temperature", "1.0"),
                ("seed", float("inf")),
                ("seed", 1.5),
                ("priority", float("inf")),
                ("priority", True),
                ("max_tokens", True),
                ("speculation_k", -1),
                ("speculation_k", True),
                ("speculation_k", "4"),
                ("speculation_k", 1.5),
                # Only a missing key or null means no stop.
                ("stop", 0),
                ("stop", False),
                ("stop", ""),
                ("stop", {}),
            ):
                body = json.dumps({"prompt": [1, 2], "max_tokens": 2, field: value}).encode()
                status, answer = await client._call("POST", "/v1/completions", body)
                hostile.append((field, status, json.loads(answer)["error"]["message"]))
            # A temperature whose scale overflows float64 samples in the T -> 0 limit.
            tiny = await client._call(
                "POST", "/v1/completions",
                json.dumps({"prompt": prompt(model, 0), "max_tokens": 4, "temperature": 1e-320}).encode(),
            )
            healthy = await client.complete(prompt(model, 1), max_tokens=4)
            return s1, s2, json.loads(b2)["error"]["message"], s3, s4, json.loads(b4), s5, hostile, tiny, healthy

        s1, s2, message, s3, s4, b4, s5, hostile, tiny, healthy = serve(model, scenario)
        assert (s1, s2, s3, s4, s5) == (400, 400, 400, 400, 400)
        assert "token ids" in message
        assert "top_k" in b4["error"]["message"]
        for field, status, error in hostile:
            assert status == 400 and field in error, (field, status, error)
        assert tiny[0] == 200
        assert len(json.loads(tiny[1])["choices"][0]["token_ids"]) == 4
        assert healthy.status == 200 and len(healthy.token_ids) == 4

    @pytest.mark.parametrize("stop", ["missing", None, []], ids=["missing", "null", "empty_list"])
    def test_missing_null_or_empty_stop_is_no_stop(self, model, stop):
        """The forms that mean "no stop token" are served like a body without
        the key, token for token."""

        async def scenario(server, client, engine):
            plain = {"prompt": prompt(model, 0), "max_tokens": 4, "temperature": 0.8, "seed": 3}
            body = plain if stop == "missing" else {**plain, "stop": stop}
            status, answer = await client._call("POST", "/v1/completions", json.dumps(body).encode())
            reference = await client.complete(prompt(model, 0), max_tokens=4, temperature=0.8, seed=3)
            return status, json.loads(answer), reference

        status, answer, reference = serve(model, scenario)
        assert status == 200 and reference.status == 200
        assert answer["choices"][0]["token_ids"] == reference.token_ids
        assert len(reference.token_ids) == 4

    def test_out_of_vocab_token_ids_400_and_server_survives(self, model):
        """Ids outside [0, vocab) are refused at the door — not discovered by
        the embedding lookup inside step(), which killed the drive loop (or,
        for negative ids, silently answered from the wrong prompt)."""
        vocab = model.config.vocab_size

        async def scenario(server, client, engine):
            too_big = await client.complete([1, vocab], max_tokens=2)
            negative = await client.complete([-1], max_tokens=2)
            healthy = await client.complete(prompt(model, 0), max_tokens=4)
            return too_big, negative, healthy

        too_big, negative, healthy = serve(model, scenario)
        assert (too_big.status, negative.status) == (400, 400)
        assert f"[0, {vocab})" in too_big.error
        assert healthy.status == 200
        assert len(healthy.token_ids) == 4

    def test_bad_content_length_400(self, model):
        async def scenario(server, client, engine):
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(
                b"POST /v1/completions HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return int(status_line.split()[1])

        assert serve(model, scenario) == 400

    def test_overlong_head_lines_400_and_server_survives(self, model):
        """A request or header line past the stream reader's 64 KiB limit is
        answered 400 (it made ``readline`` raise past the handler, and the
        connection closed with no response)."""
        long = b"x" * (70 * 1024)

        async def scenario(server, client, engine):
            statuses = []
            for head in (
                b"GET /" + long + b" HTTP/1.1\r\n\r\n",
                b"GET /healthz HTTP/1.1\r\nX-Padding: " + long + b"\r\n\r\n",
            ):
                reader, writer = await asyncio.open_connection(client.host, client.port)
                writer.write(head)
                await writer.drain()
                statuses.append(int((await reader.readline()).split()[1]))
                writer.close()
                await writer.wait_closed()
            healthy = await client.complete(prompt(model, 1), max_tokens=3)
            return statuses, healthy

        statuses, healthy = serve(model, scenario)
        assert statuses == [400, 400]
        assert healthy.status == 200 and len(healthy.token_ids) == 3

    def test_too_many_header_lines_400_and_server_survives(self, model):
        """A head of 20 000 header lines (about 2 MB) is refused at the 101st
        line, as ``http.client`` refuses it; it used to be buffered whole and
        answered 200.  The connection after it is served."""
        head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-Filler-%05d: %s\r\n" % (i, b"x" * 82) for i in range(20_000)  # 100 bytes a line
        ) + b"\r\n"

        async def scenario(server, client, engine):
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(head)  # the transport keeps sending while the answer is read
            status_line = await reader.readline()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # the server stopped reading the head it refused
            return int(status_line.split()[1]), await client.healthz()

        status, health = serve(model, scenario)
        assert len(head) > 2_000_000
        assert status == 400
        assert health["status"] == "ok"

    def test_stream_must_be_a_json_boolean(self, model):
        """``"stream": "no"`` is not false by ``bool()`` — it was read as true and streamed SSE."""

        async def scenario(server, client, engine):
            answers = []
            for value in ("no", "false", 0, None, [False]):
                body = json.dumps({"prompt": prompt(model, 2), "max_tokens": 2, "stream": value}).encode()
                status, answer = await client._call("POST", "/v1/completions", body)
                answers.append((status, json.loads(answer)["error"]["message"]))
            healthy = await client.complete(prompt(model, 1), max_tokens=3)
            return answers, healthy

        answers, healthy = serve(model, scenario)
        for status, message in answers:
            assert status == 400 and "'stream'" in message, (status, message)
        assert healthy.status == 200 and len(healthy.token_ids) == 3

    def test_oversized_request_rejected_not_crashing(self, model):
        async def scenario(server, client, engine):
            result = await client.complete(prompt(model, 0), max_tokens=10_000_000)
            return result

        result = serve(model, scenario)
        assert result.status == 400
        assert "never be admitted" in result.error

    def test_a_prompt_the_pool_cannot_hold_is_refused_and_the_server_survives(self, model):
        """A prompt larger than the whole page pool is refused at the door with the
        reason; the drive loop lives on and the next request is served as a solo run
        serves it."""
        solo = ServingEngine(make_backend(model)).generate(
            np.array(prompt(model, 0)), max_new_tokens=4
        )

        async def main():
            async with AsyncServingEngine(make_backend(model, num_pages=8)) as engine:
                async with CompletionServer(engine, port=0) as server:
                    client = CompletionClient(server.host, server.port)
                    too_big = await client.complete(prompt(model, 1, n=200), max_tokens=4)
                    healthy = await client.complete(prompt(model, 0), max_tokens=4)
                    return too_big, healthy, engine.failure

        too_big, healthy, failure = asyncio.run(main())
        assert (too_big.status, too_big.token_ids) == (400, [])
        assert "needs 204 KV tokens but the backend's page pool holds 128" in too_big.error
        assert failure is None
        assert healthy.status == 200
        assert healthy.token_ids == solo


class TestCompletions:
    def test_nonstream_matches_generate(self, model):
        solo = ServingEngine(make_backend(model)).generate(
            np.array(prompt(model, 3)), max_new_tokens=8
        )

        async def scenario(server, client, engine):
            return await client.complete(prompt(model, 3), max_tokens=8)

        result = serve(model, scenario)
        assert result.ok
        assert result.token_ids == solo
        assert result.finish_reason == "length"

    def test_stream_and_nonstream_agree(self, model):
        async def scenario(server, client, engine):
            plain = await client.complete(prompt(model, 4), max_tokens=8)
            streamed = await client.complete(prompt(model, 4), max_tokens=8, stream=True)
            return plain, streamed

        plain, streamed = serve(model, scenario)
        assert plain.token_ids == streamed.token_ids
        assert streamed.finish_reason == plain.finish_reason == "length"
        assert streamed.wall_ttft_s is not None
        assert streamed.wall_ttft_s <= streamed.wall_latency_s

    def test_stop_token_reported(self, model):
        solo_engine = ServingEngine(make_backend(model))
        solo = solo_engine.generate(np.array(prompt(model, 5)), max_new_tokens=32)
        stop = solo[2]  # force an early stop at the third token

        async def scenario(server, client, engine):
            return await client.complete(prompt(model, 5), max_tokens=32, stop=[stop])

        result = serve(model, scenario)
        assert result.finish_reason == "stop"
        assert result.token_ids == solo[:3]

    def test_string_prompt_through_tokenizer(self, model):
        tokenizer = ToyTokenizer(vocab_size=model.config.vocab_size)

        async def scenario(server, client, engine):
            return await client.complete("the quick brown fox", max_tokens=6)

        result = serve(model, scenario, tokenizer=tokenizer)
        assert result.ok
        assert len(result.token_ids) == 6
        assert isinstance(result.text, str) and result.text

    def test_replay_carries_speculation_k_to_submit(self, model):
        request = Request.from_prompt(
            "s0", np.array(prompt(model, 6)), max_new_tokens=4, sampling=SamplingParams(speculation_k=4)
        )

        async def scenario(server, client, engine):
            submitted = []
            submit = engine.submit

            def spy(request, **kwargs):
                submitted.append(request.sampling.speculation_k)
                return submit(request, **kwargs)

            engine.submit = spy
            results = await replay_trace(client, [request], time_scale=0.0)
            return submitted, results

        submitted, results = serve(model, scenario)
        assert submitted == [4]
        assert results[0].ok

    def test_speculative_stream_matches_a_plain_run(self, model):
        """A drafted request over HTTP streams the plain run's tokens, and its drafts were verified."""
        solo = ServingEngine(make_backend(model)).generate(np.array(prompt(model, 7)), max_new_tokens=24)
        vocab = model.config.vocab_size
        script = [t if i % 3 else (t + 1) % vocab for i, t in enumerate(solo)]

        async def scenario(server, client, engine):
            result = await client.complete(prompt(model, 7), max_tokens=24, stream=True, speculation_k=4)
            return result, engine.engine

        result, engine = serve(model, scenario, draft_source=PrerecordedDraft({"cmpl-1": script}))
        assert result.token_ids == solo
        assert 0 < engine.draft_tokens_accepted < engine.draft_tokens_proposed

    @pytest.mark.slow
    def test_sse_byte_identical_to_batch_run_under_preemption(self, model):
        requests = [
            Request.from_prompt(
                f"t{i}", np.array(prompt(model, i, 48 + 16 * (i % 3))), max_new_tokens=40
            )
            for i in range(6)
        ]
        baseline = ServingEngine(make_backend(model), TIGHT)
        base_handles = [baseline.submit(r) for r in requests]
        base_metrics = baseline.run_until_complete()
        assert base_metrics.total_preemptions() > 0
        expected = [list(h.output_tokens) for h in base_handles]

        async def scenario(server, client, engine):
            results = await replay_trace(client, requests, time_scale=0.0)
            return [r.token_ids for r in results]

        got = serve(model, scenario, scheduler_config=TIGHT)
        assert got == expected

    def test_open_loop_replay_spreads_arrivals(self, model):
        requests = [
            Request.from_prompt(
                f"o{i}", np.array(prompt(model, i)), max_new_tokens=4,
                arrival_time_s=0.02 * i,
            )
            for i in range(4)
        ]
        expected = []
        for r in requests:
            expected.append(
                ServingEngine(make_backend(model)).generate(
                    np.array(r.prompt_token_ids), max_new_tokens=r.max_new_tokens
                )
            )

        async def scenario(server, client, engine):
            results = await replay_trace(client, requests, time_scale=1.0)
            return results

        results = serve(model, scenario)
        assert all(r.ok for r in results)
        assert [r.token_ids for r in results] == expected


class TestDisconnect:
    def test_client_disconnect_mid_stream_aborts_request(self, model):
        async def scenario(server, client, engine):
            # Long enough never to end on its own, small enough for the page pool to hold.
            body = json.dumps(
                {"prompt": prompt(model, 0), "max_tokens": 4_000, "stream": True}
            ).encode()
            status, reader, writer = await client._open("POST", "/v1/completions", body)
            assert status == 200
            # Read a couple of SSE events, then vanish without saying goodbye.
            events = 0
            async for _ in client._sse_events(reader):
                events += 1
                if events == 2:
                    break
            handle = engine.handle("cmpl-1")
            writer.close()
            await writer.wait_closed()
            # The server notices at its next write and aborts the request.
            for _ in range(2_000):
                if engine.engine.aborted:
                    break
                await asyncio.sleep(0.005)
            return handle, engine.live_gauges()

        handle, gauges = serve(model, scenario)
        assert handle.cancelled
        assert gauges.aborted == 1
        assert gauges.running == 0
        assert gauges.backend_kv_tokens == 0  # no pages left behind

    def test_client_disconnect_before_a_nonstream_completion_aborts_request(self, model):
        async def scenario(server, client, engine):
            body = json.dumps({"prompt": prompt(model, 0), "max_tokens": 400}).encode()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(
                b"POST /v1/completions HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            # Nothing is written back until the completion is done: wait
            # until it decodes, then vanish without reading a byte.
            while True:
                try:
                    handle = engine.handle("cmpl-1")
                    if len(handle.output_tokens) >= 3:
                        break
                except KeyError:  # not submitted yet
                    pass
                await asyncio.sleep(0.001)
            writer.close()
            await writer.wait_closed()
            # The server watches the connection for EOF and aborts at once.
            for _ in range(2_000):
                if engine.engine.aborted or not engine.live_gauges().running:
                    break
                await asyncio.sleep(0.005)
            return handle, engine.live_gauges()

        handle, gauges = serve(model, scenario)
        assert handle.cancelled
        assert gauges.aborted == 1
        assert gauges.running == 0
        assert gauges.backend_kv_tokens == 0  # no pages left behind


def count_steps_and_submits(engine: AsyncServingEngine):
    """Count the engine's steps; record the step count at each submit, by request id."""
    counts = {"steps": 0}
    submitted_at: dict[str, int] = {}
    step, submit = engine.engine.step, engine.submit

    def counted_step():
        counts["steps"] += 1
        return step()

    def recorded_submit(request, **kwargs):
        submitted_at[request.request_id] = counts["steps"]
        return submit(request, **kwargs)

    engine.engine.step = counted_step
    engine.submit = recorded_submit
    return counts, submitted_at


async def tick(counts: dict) -> None:
    """Count event-loop iterations: one tick per pass of the loop over its ready queue."""
    while True:
        counts["ticks"] += 1
        await asyncio.sleep(0)


async def iterations_per_step(counts: dict, steps: int) -> float:
    """Event-loop iterations per engine step over the next ``steps`` steps."""
    while counts["steps"] == 0:
        await asyncio.sleep(0.001)
    ticks0, steps0 = counts["ticks"], counts["steps"]
    while counts["steps"] < steps0 + steps:
        await asyncio.sleep(0.001)
    return (counts["ticks"] - ticks0) / (counts["steps"] - steps0)


class TestAdmission:
    """While a request is on its way in, the drive loop yields to it (bounded).

    At the parent of this policy a second connection's connect -> submit
    took six engine steps, one per event-loop hop of the admission.
    """

    def decoding(self, client, model, max_tokens=300):
        """A long streaming request that keeps the drive loop stepping."""
        return asyncio.ensure_future(
            client.complete(prompt(model, 0), max_tokens=max_tokens, stream=True)
        )

    def test_second_request_connect_to_submit_spans_at_most_two_steps(self, model):
        async def scenario(server, client, engine):
            counts, submitted_at = count_steps_and_submits(engine)
            first = self.decoding(client, model)
            while "cmpl-1" not in submitted_at or counts["steps"] < submitted_at["cmpl-1"] + 5:
                await asyncio.sleep(0.001)
            spans = []
            for i in range(4):
                before = counts["steps"]
                result = await client.complete(prompt(model, i + 1), max_tokens=2)
                assert result.ok
                spans.append(submitted_at[f"cmpl-{i + 2}"] - before)
            return spans, await first

        spans, first = serve(model, scenario, SchedulerConfig(max_batch_size=4))
        assert max(spans) <= 2, spans
        assert first.ok and len(first.token_ids) == 300

    def stalled_connection_costs(self, model, opening: bytes):
        """Iterations per step before and while a connection sends ``opening`` and stalls."""

        async def scenario(server, client, engine):
            counts, _ = count_steps_and_submits(engine)
            counts["ticks"] = 0
            ticker = asyncio.ensure_future(tick(counts))
            first = self.decoding(client, model, max_tokens=200)
            alone = await iterations_per_step(counts, 20)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(opening)
            await writer.drain()
            for _ in range(5):  # let the server accept it and read what came
                await asyncio.sleep(0.002)
            stalled = await iterations_per_step(counts, 40)
            result = await first
            ticker.cancel()
            writer.close()
            await writer.wait_closed()
            return alone, stalled, result

        alone, stalled, first = serve(model, scenario, SchedulerConfig(max_batch_size=4))
        assert first.ok and len(first.token_ids) == 200  # decoding was not held back
        assert alone <= 1.1, alone  # no admission work: one yield per step
        assert stalled <= 2.1, stalled  # one extra yield per step, no more
        return stalled

    def test_idle_connection_costs_at_most_one_extra_yield_per_step(self, model):
        assert self.stalled_connection_costs(model, b"") > 1.5  # the probe does see it

    def test_half_sent_head_costs_at_most_one_extra_yield_per_step(self, model):
        self.stalled_connection_costs(model, b"POST /v1/completions HTTP/1.1\r\nContent-Le")

    def test_engine_without_a_server_keeps_one_yield_per_step(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as engine:
                counts, _ = count_steps_and_submits(engine)
                counts["ticks"] = 0
                ticker = asyncio.ensure_future(tick(counts))
                handle = engine.submit(Request.from_prompt("r0", prompt(model, 0), 120))
                per_step = await iterations_per_step(counts, 60)
                await handle.result()
                ticker.cancel()
                return per_step

        assert asyncio.run(main()) <= 1.05

    def test_closing_the_server_detaches_the_probe(self, model):
        async def main():
            async with AsyncServingEngine(make_backend(model)) as engine:
                async with CompletionServer(engine, port=0) as server:
                    attached = engine._admission_probe == server._admission
                return attached, engine._admission_probe

        assert asyncio.run(main()) == (True, None)


class TestClusterOverHTTP:
    """The same HTTP front end serving a whole ServingCluster."""

    def serve_cluster(self, model, coro_factory, n_replicas=2, routing="round_robin"):
        from repro.serving import ServingCluster

        async def main():
            cluster = ServingCluster(
                [make_backend(model) for _ in range(n_replicas)],
                SchedulerConfig(max_batch_size=4),
                routing=routing,
            )
            async with cluster:
                async with CompletionServer(cluster, port=0) as server:
                    client = CompletionClient(server.host, server.port)
                    result = await coro_factory(server, client, cluster)
                await cluster.drain()
            return result

        return asyncio.run(main())

    def test_completions_route_through_the_cluster(self, model):
        async def scenario(server, client, cluster):
            results = [
                await client.complete(prompt(model, i), max_tokens=4) for i in range(4)
            ]
            return results, cluster.metrics.completed_per_replica()

        results, per_replica = self.serve_cluster(model, scenario)
        assert all(r.ok and len(r.token_ids) == 4 for r in results)
        # Round robin: both replicas served some of the traffic.
        assert sorted(per_replica.values()) == [2, 2]

    def test_streamed_tokens_match_single_engine(self, model):
        ids = prompt(model, 3)
        reference = ServingEngine(make_backend(model)).generate(
            np.array(ids), max_new_tokens=6
        )

        async def scenario(server, client, cluster):
            return await client.complete(ids, max_tokens=6, stream=True)

        result = self.serve_cluster(model, scenario)
        assert result.token_ids == reference

    def test_metrics_endpoint_exposes_replica_series(self, model):
        async def scenario(server, client, cluster):
            await client.complete(prompt(model, 0), max_tokens=4)
            return await client.metrics(), await client.healthz()

        text, health = self.serve_cluster(model, scenario)
        assert "repro_cluster_completed 1" in text
        assert '# TYPE repro_serving_completed gauge' in text
        assert 'repro_serving_completed{replica="replica-0"}' in text
        assert 'repro_serving_healthy{replica="replica-1"} 1' in text
        assert health["status"] == "ok"
        assert health["replicas"] == {"replica-0": True, "replica-1": True}

    def test_admission_yields_reach_every_replica(self, model):
        async def scenario(server, client, cluster):
            # Round robin: the long request decodes on replica-0, the short
            # ones alternate; replica-0's drive loop must yield to each.
            busy = cluster.replicas[0].engine
            counts, _ = count_steps_and_submits(busy)
            submitted_at = {}
            submit = cluster.submit

            def recorded_submit(request, **kwargs):
                submitted_at[request.request_id] = counts["steps"]
                return submit(request, **kwargs)

            cluster.submit = recorded_submit
            first = asyncio.ensure_future(
                client.complete(prompt(model, 0), max_tokens=200, stream=True)
            )
            while "cmpl-1" not in submitted_at or counts["steps"] < 5:
                await asyncio.sleep(0.001)
            spans = []
            for i in range(4):
                before = counts["steps"]
                assert (await client.complete(prompt(model, i + 1), max_tokens=2)).ok
                spans.append(submitted_at[f"cmpl-{i + 2}"] - before)
            return spans, await first

        spans, first = self.serve_cluster(model, scenario)
        assert max(spans) <= 2, spans
        assert first.ok and len(first.token_ids) == 200

    def test_disaggregated_fleet_forwards_the_probe_to_both_tiers(self, model):
        from repro.serving import DisaggregatedCluster

        async def main():
            cluster = DisaggregatedCluster(
                prefill_backends=[make_backend(model)],
                decode_backends=[make_backend(model)],
            )
            async with cluster:
                async with CompletionServer(cluster, port=0) as server:
                    client = CompletionClient(server.host, server.port)
                    result = await client.complete(prompt(model, 1), max_tokens=4)
                    probes = [r.engine._admission_probe for r in cluster.replicas]
                    attached = [p == server._admission for p in probes]
                after = [r.engine._admission_probe for r in cluster.replicas]
                await cluster.drain()
            return result, attached, after

        result, attached, after = asyncio.run(main())
        assert result.ok and len(result.token_ids) == 4
        assert attached == [True, True]
        assert after == [None, None]

    def test_healthz_returns_503_when_no_replica_can_serve(self, model):
        async def scenario(server, client, cluster):
            for replica in cluster.replicas:
                replica.healthy = False
            status, body = await client._call("GET", "/healthz")
            for replica in cluster.replicas:
                replica.healthy = True  # let serve_cluster drain normally
            return status, json.loads(body)

        status, body = self.serve_cluster(model, scenario)
        assert status == 503
        assert body["status"] == "unhealthy"
        assert body["replicas"] == {"replica-0": False, "replica-1": False}
