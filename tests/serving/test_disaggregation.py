"""Tests for disaggregated prefill/decode serving and cross-allocator migration."""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.cost_model import TransferCostModel
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    CompletionClient,
    CompletionServer,
    DisaggregatedCluster,
    LServeBackend,
    Request,
    RequestAborted,
    SchedulerConfig,
    ServingCluster,
    ServingEngine,
    SimulatedBackend,
)
from tests.conftest import assert_no_leaked_pages, counted_calls

VOCAB = tiny_model_config().vocab_size


@pytest.fixture(scope="module")
def latency():
    return LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())


@pytest.fixture(scope="module")
def tiny_model():
    return TinyTransformer(tiny_model_config(), seed=7)


def make_real_backend(model, prefix_cache=False, num_pages=512):
    engine = LServeEngine(
        model,
        LServeConfig(
            physical_page_size=16,
            logical_page_size=4,
            sink_tokens=16,
            local_tokens=32,
            token_budget=64,
            q_block_size=16,
            kv_bits=16,
            prefix_cache_enabled=prefix_cache,
        ),
        num_cache_pages=num_pages,
    )
    return LServeBackend(engine)


def make_requests(n, prompt_len=96, max_new=8, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Request.from_prompt(
            f"req-{i}",
            rng.integers(0, VOCAB, size=prompt_len + 16 * i),
            max_new_tokens=max_new,
            arrival_time_s=0.01 * i,
        )
        for i in range(n)
    ]


# -- cross-allocator migration invariants -----------------------------------------


def test_real_handoff_source_refcounts_drop_to_zero(tiny_model):
    source = make_real_backend(tiny_model)
    request = make_requests(1)[0]
    source.prefill("s", np.asarray(request.prompt_token_ids))
    alloc = source.engine.cache.dense_cache.allocator
    assert alloc.num_allocated > 0
    handoff = source.handoff_out("s")
    assert_no_leaked_pages(alloc)
    assert handoff.n_pages > 0


def test_real_handoff_target_pages_bit_equal(tiny_model):
    source = make_real_backend(tiny_model)
    target = make_real_backend(tiny_model)
    request = make_requests(1)[0]
    tokens = np.asarray(request.prompt_token_ids)
    source.prefill("s", tokens)
    handoff = source.handoff_out("s")
    target.handoff_in("s", handoff)
    migrated = target.engine.cache.export_sequence("s").dense
    assert migrated is not None
    for layer in range(len(migrated.k_pages)):
        np.testing.assert_array_equal(
            migrated.k_pages[layer], handoff.payload.dense.k_pages[layer]
        )
        np.testing.assert_array_equal(
            migrated.v_pages[layer], handoff.payload.dense.v_pages[layer]
        )
    # The target owns the pages exclusively (refcount-1 attach).
    t_alloc = target.engine.cache.dense_cache.allocator
    assert t_alloc.num_allocated == migrated.n_pages


def test_real_decode_after_handoff_matches_local_run(tiny_model):
    request = make_requests(1, max_new=6)[0]
    tokens = np.asarray(request.prompt_token_ids)

    local = make_real_backend(tiny_model)
    local_logits = [local.prefill("s", tokens).logits]
    last = int(np.argmax(local_logits[-1]))
    for _ in range(3):
        result = local.decode_batch(["s"], [last])
        local_logits.append(result.logits[0])
        last = int(np.argmax(result.logits[0]))

    source = make_real_backend(tiny_model)
    target = make_real_backend(tiny_model)
    migrated_logits = [source.prefill("s", tokens).logits]
    target.handoff_in("s", source.handoff_out("s"))
    last = int(np.argmax(migrated_logits[-1]))
    for _ in range(3):
        result = target.decode_batch(["s"], [last])
        migrated_logits.append(result.logits[0])
        last = int(np.argmax(result.logits[0]))

    for a, b in zip(local_logits, migrated_logits):
        np.testing.assert_array_equal(a, b)


def test_double_handoff_raises(tiny_model, latency):
    """``handoff_pages`` announces what ``handoff_out`` moves; a second hand-off raises."""
    for backend in (make_real_backend(tiny_model), SimulatedBackend(latency)):
        backend.prefill("s", np.zeros(80, dtype=np.int64))
        pages = backend.handoff_pages("s")
        assert pages > 0 and backend.handoff_out("s").n_pages == pages
        with pytest.raises(KeyError):
            backend.handoff_out("s")
        with pytest.raises(KeyError):
            backend.handoff_pages("s")


def test_handoff_in_rejects_existing_sequence(tiny_model, latency):
    source = make_real_backend(tiny_model)
    target = make_real_backend(tiny_model)
    source.prefill("s", np.zeros(64, dtype=np.int64))
    target.prefill("s", np.zeros(32, dtype=np.int64))
    handoff = source.handoff_out("s")
    with pytest.raises(ValueError):
        target.handoff_in("s", handoff)

    sim_a, sim_b = SimulatedBackend(latency), SimulatedBackend(latency)
    sim_a.prefill("s", np.zeros(64, dtype=np.int64))
    sim_b.prefill("s", np.zeros(32, dtype=np.int64))
    sim_handoff = sim_a.handoff_out("s")
    with pytest.raises(ValueError):
        sim_b.handoff_in("s", sim_handoff)


def test_simulated_handoff_moves_context_length(latency):
    a, b = SimulatedBackend(latency), SimulatedBackend(latency)
    a.prefill("s", np.zeros(100, dtype=np.int64))
    handoff = a.handoff_out("s")
    assert handoff.n_tokens == 100
    assert a.kv_tokens_in_use() == 0
    b.handoff_in("s", handoff)
    assert b.kv_tokens_in_use() == 100


# -- cluster end-to-end ------------------------------------------------------------


def run_disagg(requests, make_backend, n_prefill=1, n_decode=1, **kwargs):
    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_backend() for _ in range(n_prefill)],
            decode_backends=[make_backend() for _ in range(n_decode)],
            **kwargs,
        )
        async with cluster:
            handles = await cluster.replay(requests)
            metrics = await cluster.drain()
        return cluster, handles, metrics

    return asyncio.run(main())


def test_disagg_outputs_byte_identical_to_single_engine(tiny_model):
    requests = make_requests(4)
    config = SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20)
    reference_engine = ServingEngine(make_real_backend(tiny_model), config)
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    cluster, handles, metrics = run_disagg(
        requests,
        lambda: make_real_backend(tiny_model),
        n_prefill=2,
        n_decode=1,
        scheduler_config=config,
    )
    assert {h.request_id: h.output_tokens for h in handles} == reference
    assert cluster.migrations_total == len(requests)
    for replica in cluster.replicas:
        backend = replica.engine.engine.backend
        assert_no_leaked_pages(backend.engine.cache.dense_cache.allocator, backend=backend)


def test_disagg_records_transfer_and_tier_metrics(latency):
    requests = [
        Request(request_id=f"r{i}", prompt_tokens=2_048, max_new_tokens=8,
                arrival_time_s=0.1 * i)
        for i in range(4)
    ]
    cluster, handles, metrics = run_disagg(
        requests, lambda: SimulatedBackend(latency), n_prefill=1, n_decode=2
    )
    fleet = metrics.fleet()
    assert len(fleet) == len(requests)
    assert metrics.total_migrated_pages() == cluster.migrated_pages_total > 0
    assert metrics.mean_transfer_ms() > 0
    for record in fleet.records:
        assert record.migrated_pages > 0
        assert record.transfer_ms > 0
        assert record.generated_tokens == 8
        # TPOT includes transfer + decode queueing on the decode tier.
        assert record.time_per_output_token_s > 0
    # Tier views: prefill records are the first-token slices.
    assert len(metrics.prefill_tier()) == len(requests)
    assert all(r.generated_tokens == 1 for r in metrics.prefill_tier().records)
    assert len(metrics.decode_tier()) == len(requests)
    with pytest.raises(ValueError):
        metrics.tier("colocated")


def test_disagg_metrics_length_counts_each_request_once(latency):
    """A migrated request leaves a record on each tier; ``len`` counts it once, as ``fleet()`` does."""
    requests = make_requests(3)
    _, _, metrics = run_disagg(requests, lambda: SimulatedBackend(latency))
    assert sum(len(m) for m in metrics.per_replica.values()) == 2 * len(requests)
    assert len(metrics) == len(metrics.fleet()) == len(requests)


def test_disagg_single_token_requests_skip_migration(latency):
    requests = [
        Request(request_id="one", prompt_tokens=512, max_new_tokens=1),
    ]
    cluster, handles, metrics = run_disagg(
        requests, lambda: SimulatedBackend(latency)
    )
    assert handles[0].output_tokens and len(handles[0].output_tokens) == 1
    assert cluster.migrations_total == 0
    assert len(metrics.fleet()) == 1
    # The retained prefill KV was released, not leaked.
    prefill_backend = cluster.replicas[0].engine.engine.backend
    assert prefill_backend.kv_tokens_in_use() == 0


def test_disagg_transfer_delay_on_decode_clock(latency):
    slow = TransferCostModel(bandwidth_bytes_per_s=1e6, base_latency_s=0.5)
    fast = TransferCostModel()
    base = dict(n_prefill=1, n_decode=1)
    requests = [Request(request_id="r", prompt_tokens=4_096, max_new_tokens=4)]
    _, _, slow_metrics = run_disagg(
        requests, lambda: SimulatedBackend(latency), transfer_model=slow, **base
    )
    _, _, fast_metrics = run_disagg(
        requests, lambda: SimulatedBackend(latency), transfer_model=fast, **base
    )
    slow_rec = slow_metrics.fleet().records[0]
    fast_rec = fast_metrics.fleet().records[0]
    assert slow_rec.transfer_ms > fast_rec.transfer_ms
    # The decode phase starts after the modeled delay, so completion shifts.
    assert slow_rec.finish_time_s > fast_rec.finish_time_s
    assert slow_rec.finish_time_s - fast_rec.finish_time_s == pytest.approx(
        (slow_rec.transfer_ms - fast_rec.transfer_ms) / 1e3, rel=1e-6
    )


def test_disagg_prometheus_has_tier_labels_and_counters(latency):
    requests = [Request(request_id="r", prompt_tokens=1_024, max_new_tokens=4)]
    cluster, _, _ = run_disagg(requests, lambda: SimulatedBackend(latency))
    body = cluster.prometheus_metrics()
    assert 'repro_tier_completed{tier="prefill"} 1' in body
    assert 'repro_tier_completed{tier="decode"} 1' in body
    assert 'tier="prefill"' in body and 'tier="decode"' in body
    assert "repro_cluster_migrations_total 1" in body
    assert "repro_cluster_migrated_pages_total" in body
    assert "repro_cluster_transfer_seconds_total" in body


def test_servingcluster_roles_and_pools(latency):
    homogeneous = ServingCluster([SimulatedBackend(latency), SimulatedBackend(latency)])
    assert homogeneous.pools() == {"colocated": ["replica-0", "replica-1"]}


def test_healthz_reports_pools(latency):
    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[SimulatedBackend(latency)],
            decode_backends=[SimulatedBackend(latency)],
        )
        async with cluster:
            async with CompletionServer(cluster) as server:
                url = f"http://{server.address}/healthz"
                body = await asyncio.to_thread(
                    lambda: json.load(urllib.request.urlopen(url))
                )
            await cluster.shutdown()
        return body

    body = asyncio.run(main())
    assert body["status"] == "ok"
    assert body["pools"] == {"prefill": ["prefill-0"], "decode": ["decode-0"]}
    assert set(body["replicas"]) == {"prefill-0", "decode-0"}


def test_http_refusals_are_400_and_503_not_empty_200(tiny_model):
    """A request no replica will take is refused with a status — like the flat
    fleet's — not answered 200 with zero tokens and ``finish_reason: aborted``;
    and the refusals leave the server serving."""
    prompt = [int(t) for t in make_requests(1)[0].prompt_token_ids]

    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_real_backend(tiny_model)],
            decode_backends=[make_real_backend(tiny_model)],
        )
        async with cluster:
            async with CompletionServer(cluster, port=0) as server:
                client = CompletionClient(server.host, server.port)
                too_big = await client.complete([VOCAB], max_tokens=2)
                negative = await client.complete([-1, 2], max_tokens=2)
                healthy = await client.complete(prompt, max_tokens=4)
                # The whole prefill pool gone: nothing can admit a request.
                cluster._quarantine(cluster.replicas[0], RuntimeError("injected"))
                unavailable = await client.complete(prompt, max_tokens=4)
            await cluster.drain()
        return cluster, too_big, negative, healthy, unavailable

    cluster, too_big, negative, healthy, unavailable = asyncio.run(main())
    assert (too_big.status, negative.status) == (400, 400)
    assert f"[0, {VOCAB})" in too_big.error
    assert healthy.status == 200 and len(healthy.token_ids) == 4
    assert unavailable.status == 503
    assert "no healthy prefill replicas" in unavailable.error
    assert cluster._handles == {}


def test_no_prefill_is_spent_when_the_decode_pool_is_gone(tiny_model):
    """With every decode replica quarantined, a request that needs one is
    refused with 503 at submit — not accepted, prefilled and aborted at
    migration; a one-token request never needed the decode tier and is served."""
    prompt = [int(t) for t in make_requests(1)[0].prompt_token_ids]

    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_real_backend(tiny_model)],
            decode_backends=[make_real_backend(tiny_model)],
        )
        prefill_backend = cluster.replicas[0].engine.engine.backend
        prefills = counted_calls(prefill_backend, "prefill")
        async with cluster:
            async with CompletionServer(cluster, port=0) as server:
                client = CompletionClient(server.host, server.port)
                cluster._quarantine(cluster.replicas[1], RuntimeError("injected"))
                unavailable = await client.complete(prompt, max_tokens=4)
                refused_prefills = prefills[0]
                one_token = await client.complete(prompt, max_tokens=1)
            await cluster.drain()
        return cluster, unavailable, refused_prefills, one_token, prefills[0]

    cluster, unavailable, refused_prefills, one_token, prefills = asyncio.run(main())
    assert unavailable.status == 503
    assert "no healthy decode replicas" in unavailable.error
    assert refused_prefills == 0
    assert one_token.status == 200 and len(one_token.token_ids) == 1
    assert prefills == 1
    assert cluster._handles == {}


def test_refused_adoption_releases_the_migrated_pages(tiny_model):
    """The decode tier refuses a request its KV budget cannot hold *after* the
    pages were attached there; they must go back to the pool, not leak."""
    request = make_requests(1)[0]  # 96 prompt tokens + 8 new > 64

    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_real_backend(tiny_model)],
            decode_backends=[make_real_backend(tiny_model)],
            decode_scheduler_config=SchedulerConfig(
                max_batch_size=4, kv_token_capacity=64
            ),
        )
        async with cluster:
            handle = cluster.submit(request)
            with pytest.raises(RequestAborted):
                await handle.result()
            await cluster.drain()
        return cluster

    cluster = asyncio.run(main())
    assert "never be admitted" in str(cluster.request_failures[request.request_id])
    assert cluster.migrations_total == 0
    for replica in cluster.replicas:
        backend = replica.engine.engine.backend
        assert_no_leaked_pages(backend.engine.cache.dense_cache.allocator, backend=backend)


def test_disagg_failure_containment_restarts_pipeline(tiny_model):
    """A decode replica that dies mid-stream gets quarantined; outputs survive."""

    class DyingBackend:
        """Delegates to a real backend; dies on the Nth decode call."""

        def __init__(self, inner, die_after):
            self._inner = inner
            self._die_after = die_after
            self._decodes = 0

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def decode_batch(self, seq_ids, token_ids):
            self._decodes += 1
            if self._decodes >= self._die_after:
                raise RuntimeError("injected decode failure")
            return self._inner.decode_batch(seq_ids, token_ids)

    requests = make_requests(2, max_new=6)
    config = SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20)
    reference_engine = ServingEngine(make_real_backend(tiny_model), config)
    ref_handles = [reference_engine.submit(r) for r in requests]
    reference_engine.run_until_complete()
    reference = {h.request_id: list(h.output_tokens) for h in ref_handles}

    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[make_real_backend(tiny_model)],
            decode_backends=[
                DyingBackend(make_real_backend(tiny_model), die_after=2),
                make_real_backend(tiny_model),
            ],
            scheduler_config=config,
            decode_routing="round_robin",
        )
        async with cluster:
            handles = await cluster.replay(requests)
            await cluster.drain()
        return cluster, handles

    cluster, handles = asyncio.run(main())
    assert {h.request_id: h.output_tokens for h in handles} == reference
    assert cluster.total_resubmissions >= 1
    assert any(not r.healthy for r in cluster.replicas)


def test_disagg_cancel_before_migration_releases_kv(latency):
    async def main():
        cluster = DisaggregatedCluster(
            prefill_backends=[SimulatedBackend(latency)],
            decode_backends=[SimulatedBackend(latency)],
        )
        async with cluster:
            handle = cluster.submit(
                Request(request_id="r", prompt_tokens=64, max_new_tokens=64),
                arrive_now=True,
            )
            await asyncio.sleep(0)
            handle.cancel()
            await cluster.shutdown()
        return cluster, handle

    cluster, handle = asyncio.run(main())
    assert handle.cancelled
    for replica in cluster.replicas:
        assert replica.engine.engine.backend.kv_tokens_in_use() == 0
