"""Tests for the HTTP front end and async client: endpoints, SSE, load replay.

The acceptance-critical property: tokens collected via the HTTP SSE endpoint
are byte-identical to a ``ServingEngine.run`` batch run on the same trace,
with preemption enabled.  Also covered: the OpenAI-style response shapes,
string prompts through a tokenizer, error statuses, the live-gauge endpoints,
open-loop trace replay, and the disconnect-aborts-the-request contract.

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
    Request,
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


def serve(model, coro_factory, scheduler_config=None, tokenizer=None):
    """Run ``coro_factory(server, client, engine)`` against a live server."""

    async def main():
        async with AsyncServingEngine(make_backend(model), scheduler_config) as engine:
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
            return s1, s2, json.loads(b2)["error"]["message"], s3, s4, json.loads(b4), s5

        s1, s2, message, s3, s4, b4, s5 = serve(model, scenario)
        assert (s1, s2, s3, s4, s5) == (400, 400, 400, 400, 400)
        assert "token ids" in message
        assert "top_k" in b4["error"]["message"]

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

    def test_oversized_request_rejected_not_crashing(self, model):
        async def scenario(server, client, engine):
            result = await client.complete(prompt(model, 0), max_tokens=10_000_000)
            return result

        result = serve(model, scenario)
        assert result.status == 400
        assert "never be admitted" in result.error


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
            body = json.dumps(
                {"prompt": prompt(model, 0), "max_tokens": 10_000, "stream": True}
            ).encode()
            status, reader, writer = await client._open("POST", "/v1/completions", body)
            assert status == 200
            # Read a couple of SSE events, then vanish without saying goodbye.
            events = 0
            async for _ in client._sse_events(reader):
                events += 1
                if events == 2:
                    break
            writer.close()
            await writer.wait_closed()
            # The server notices at its next write and aborts the request.
            for _ in range(2_000):
                if engine.engine.aborted_ids:
                    break
                await asyncio.sleep(0.005)
            gauges = engine.live_gauges()
            return engine.engine.aborted_ids, gauges

        aborted, gauges = serve(model, scenario)
        assert aborted == ["cmpl-1"]
        assert gauges.running == 0
        assert gauges.backend_kv_tokens == 0  # no pages left behind


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
