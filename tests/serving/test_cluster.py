"""Tests for the multi-replica serving cluster: routing, containment, lifecycle."""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    DisaggregatedCluster,
    LServeBackend,
    PrefixAffinityPolicy,
    Request,
    RequestAborted,
    SamplingParams,
    SchedulerConfig,
    ServingCluster,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    WorkloadSpec,
    RequestClass,
    make_routing_policy,
)
from repro.serving.cluster.router import AFFINITY_DEPTH


@pytest.fixture(scope="module")
def latency():
    return LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())


@pytest.fixture(scope="module")
def tiny_model():
    return TinyTransformer(tiny_model_config(), seed=0)


def make_real_backend(model, prefix_cache=False):
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
    )
    return LServeBackend(engine)


class FlakyBackend:
    """Delegates to a real backend; raises on the Nth decode iteration."""

    produces_logits = True

    def __init__(self, inner, fail_at_decode: int):
        self._inner = inner
        self._fail_at = fail_at_decode
        self._decodes = 0

    @property
    def work(self):
        return self._inner.work

    def prefill(self, seq_id, token_ids):
        return self._inner.prefill(seq_id, token_ids)

    def decode_batch(self, seq_ids, token_ids):
        self._decodes += 1
        if self._decodes >= self._fail_at:
            raise RuntimeError("injected replica fault")
        return self._inner.decode_batch(seq_ids, token_ids)

    def release(self, seq_id):
        return self._inner.release(seq_id)

    def kv_tokens_in_use(self):
        return self._inner.kv_tokens_in_use()


class FlakyTierBackend(FlakyBackend):
    """A ``FlakyBackend`` that can sit in either pool of a two-pool fleet.

    Whatever it does not override (KV hand-off above all) is the inner
    backend's, and ``fail_at_prefill`` faults the Nth prefill — what it takes
    to kill a prefill-tier replica, which never decodes.
    """

    def __init__(self, inner, fail_at_decode=float("inf"), fail_at_prefill=float("inf")):
        super().__init__(inner, fail_at_decode)
        self._fail_at_prefill = fail_at_prefill
        self._prefills = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def prefill(self, seq_id, token_ids):
        self._prefills += 1
        if self._prefills >= self._fail_at_prefill:
            raise RuntimeError("injected replica fault")
        return self._inner.prefill(seq_id, token_ids)


#: The two fleet shapes that share one lifecycle core (``ServingCluster`` and
#: its two-pool subclass); tests of that core run on both.
FLEETS = ("flat", "disaggregated")


def make_fleet(kind, make_backend, n, scheduler_config=None, routing="round_robin"):
    """The fleet under test: ``n`` replicas, or ``n`` per pool when disaggregated.

    ``routing`` is the flat fleet's; the two-pool fleet routes its own way
    (prefill round-robin, decode least-KV).
    """
    if kind == "flat":
        return ServingCluster(
            [make_backend() for _ in range(n)], scheduler_config, routing=routing
        )
    return DisaggregatedCluster(
        [make_backend() for _ in range(n)],
        [make_backend() for _ in range(n)],
        scheduler_config=scheduler_config,
    )


def doomed_fleet(kind, model, config):
    """A fleet whose first request lands on a replica that dies at its second decode.

    Returns the fleet and that replica: the first of two in the flat fleet,
    the first of the decode pool in the disaggregated one (least-KV routing
    breaks the tie of an idle pool by replica order).
    """
    pool = [FlakyTierBackend(make_real_backend(model), fail_at_decode=2), make_real_backend(model)]
    if kind == "flat":
        cluster = ServingCluster(pool, config)
    else:
        cluster = DisaggregatedCluster([make_real_backend(model)], pool, scheduler_config=config)
    return cluster, cluster.replicas[-2]


class FakeReplica:
    """Gauge-only stand-in for routing-policy unit tests."""

    def __init__(self, replica_id, in_flight=0, kv=0, demand=None):
        self.replica_id = replica_id
        self._in_flight = in_flight
        self._kv = kv
        self._demand = kv if demand is None else demand

    def live_gauges(self):
        from repro.serving.metrics import LiveGauges

        return LiveGauges(
            clock_s=0.0,
            queue_depth=self._in_flight,
            pending_arrivals=0,
            running=0,
            kv_tokens_in_use=self._kv,
            kv_token_capacity=1 << 20,
            backend_kv_tokens=-1,
            completed=0,
            aborted=0,
            preemptions=0,
            kv_tokens_demand=self._demand,
        )


def req(request_id, length=48, offset=0, max_new=8, arrival=0.0):
    return Request.from_prompt(
        request_id, np.arange(length) + offset, max_new_tokens=max_new,
        arrival_time_s=arrival,
    )


class TestRoutingPolicies:
    def test_round_robin_cycles(self):
        policy = make_routing_policy("round_robin")
        replicas = [FakeReplica(f"r{i}") for i in range(3)]
        picks = [policy.choose(req(f"q{i}"), replicas).replica_id for i in range(6)]
        assert picks == ["r0", "r1", "r2", "r0", "r1", "r2"]

    def test_round_robin_adapts_to_shrunk_candidate_set(self):
        policy = make_routing_policy("round_robin")
        replicas = [FakeReplica(f"r{i}") for i in range(3)]
        policy.choose(req("q0"), replicas)
        picks = {policy.choose(req(f"q{i}"), replicas[:2]).replica_id for i in range(1, 5)}
        assert picks <= {"r0", "r1"}

    def test_least_kv_prefers_least_outstanding_demand(self):
        policy = make_routing_policy("least_kv")
        replicas = [
            # Fewest in-flight but a huge queued long-context backlog.
            FakeReplica("hoarder", in_flight=1, demand=90_000),
            FakeReplica("lean", in_flight=4, demand=2_000),
            FakeReplica("mid", in_flight=2, demand=10_000),
        ]
        assert policy.choose(req("q0"), replicas).replica_id == "lean"

    def test_least_kv_breaks_demand_ties_on_in_flight(self):
        policy = make_routing_policy("least_kv")
        replicas = [
            FakeReplica("deep", in_flight=6, demand=5_000),
            FakeReplica("shallow", in_flight=1, demand=5_000),
        ]
        assert policy.choose(req("q0"), replicas).replica_id == "shallow"

    def test_prefix_affinity_sticks_same_prefix_together(self):
        policy = PrefixAffinityPolicy(block_tokens=16)
        replicas = [FakeReplica(f"r{i}") for i in range(4)]
        shared = np.arange(16 * AFFINITY_DEPTH)
        picks = {
            policy.choose(
                Request.from_prompt(
                    f"q{i}", np.concatenate([shared, np.arange(16) + 1000 * i]),
                    max_new_tokens=4,
                ),
                replicas,
            ).replica_id
            for i in range(8)
        }
        assert len(picks) == 1  # all share the leading blocks -> one replica

    def test_prefix_affinity_separates_different_prefixes(self):
        policy = PrefixAffinityPolicy(block_tokens=16)
        replicas = [FakeReplica(f"r{i}") for i in range(8)]
        picks = {
            policy.choose(req(f"q{i}", length=32, offset=10_000 * (i + 1)), replicas).replica_id
            for i in range(12)
        }
        assert len(picks) > 1  # distinct prefixes spread across the fleet

    def test_prefix_affinity_short_prompt_hashes_available_tokens(self):
        policy = PrefixAffinityPolicy(block_tokens=64)
        replicas = [FakeReplica(f"r{i}") for i in range(4)]
        a = policy.choose(req("a", length=8), replicas)
        b = policy.choose(req("b", length=8), replicas)
        assert a.replica_id == b.replica_id  # same 8 leading tokens

    def test_prefix_affinity_falls_back_without_token_ids(self):
        policy = PrefixAffinityPolicy()
        replicas = [FakeReplica(f"r{i}") for i in range(3)]
        lengths_only = [
            Request(f"q{i}", prompt_tokens=64, max_new_tokens=4) for i in range(3)
        ]
        picks = [policy.choose(r, replicas).replica_id for r in lengths_only]
        assert picks == ["r0", "r1", "r2"]  # round-robin fallback

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_routing_policy("nope")
        with pytest.raises(ValueError):
            PrefixAffinityPolicy(block_tokens=0)


class TestClusterConstruction:
    def test_rejects_empty_and_shared_backends(self, latency):
        with pytest.raises(ValueError, match="at least one backend"):
            ServingCluster([])
        shared = SimulatedBackend(latency)
        with pytest.raises(ValueError, match="must not share a backend"):
            ServingCluster([shared, shared])


def test_disaggregated_cluster_defines_only_its_pipeline():
    """The two-pool fleet is ``ServingCluster`` plus a pipeline: the lifecycle
    core exists once, and a second copy must not grow back in the subclass."""
    inherited = {
        "replicas", "healthy_replicas", "replica_health",
        "failures", "pools", "start", "__aenter__", "__aexit__", "drain",
        "shutdown", "_await_pumps", "submit", "replay", "_advance_clocks_to",
        "abort", "_retire", "_quarantine", "_resubmit", "_relay",
        "live_gauges", "per_replica_gauges",
    }
    assert issubclass(DisaggregatedCluster, ServingCluster)
    assert inherited <= set(dir(ServingCluster))
    assert not inherited & set(vars(DisaggregatedCluster))


@pytest.mark.parametrize("front", ("engine", "async", *FLEETS))
def test_a_request_without_sampling_samples_with_the_default(tiny_model, front):
    """A request that carries no ``sampling`` gets ``SamplingParams()`` in one
    place, so every front end serves it as one that names it explicitly."""
    config = SchedulerConfig(max_batch_size=4)

    def serve(sampling):
        requests = [replace(req(f"r{i}", offset=i, max_new=6), sampling=sampling) for i in range(3)]
        if front == "engine":
            engine = ServingEngine(make_real_backend(tiny_model), config)
            handles = [engine.submit(r) for r in requests]
            engine.run_until_complete()
            return [h.output_tokens for h in handles]

        async def run():
            if front == "async":
                server = AsyncServingEngine(make_real_backend(tiny_model), config)
            else:
                server = make_fleet(front, lambda: make_real_backend(tiny_model), 2, config)
            async with server:
                return [await server.submit(r).result() for r in requests]

        return asyncio.run(run())

    implicit = serve(None)
    assert implicit == serve(SamplingParams())
    assert implicit != serve(SamplingParams(temperature=1.0, seed=3))


class TestClusterServing:
    @pytest.mark.slow
    def test_outputs_byte_identical_to_single_engine(self, tiny_model):
        requests = [req(f"r{i}", offset=i) for i in range(8)]
        reference = {}
        ref_engine = ServingEngine(
            make_real_backend(tiny_model), SchedulerConfig(max_batch_size=4)
        )
        handles = [ref_engine.submit(r) for r in requests]
        ref_engine.run_until_complete()
        reference = {h.request_id: list(h.output_tokens) for h in handles}

        async def run(routing):
            cluster = ServingCluster(
                [make_real_backend(tiny_model) for _ in range(3)],
                SchedulerConfig(max_batch_size=4),
                routing=routing,
            )
            async with cluster:
                cluster_handles = [cluster.submit(r) for r in requests]
                outputs = {h.request_id: await h.result() for h in cluster_handles}
                await cluster.drain()
            return outputs

        for routing in ("round_robin", "least_kv", "prefix_affinity"):
            assert asyncio.run(run(routing)) == reference, routing

    @pytest.mark.parametrize("kind", FLEETS)
    def test_replay_routes_in_arrival_order_and_completes(self, latency, kind):
        spec = WorkloadSpec(
            name="t", classes=(RequestClass(name="c", prompt_median=2_048),),
            arrival_rate_rps=4.0,
        )
        requests = WorkloadGenerator(spec, seed=1).generate(16)

        async def run():
            cluster = make_fleet(
                kind,
                lambda: SimulatedBackend(latency),
                3,
                SchedulerConfig(max_batch_size=4, kv_token_capacity=200_000),
                routing="least_kv",
            )
            assert len(cluster.replicas) == (3 if kind == "flat" else 6)
            async with cluster:
                handles = await cluster.replay(requests)
                metrics = await cluster.drain()
            return handles, metrics

        handles, metrics = asyncio.run(run())
        # A migrated request leaves a record on each tier it crossed; the
        # fleet view counts it once.
        records = sum(len(m) for m in metrics.per_replica.values())
        assert records == (16 if kind == "flat" else 32)
        assert len(metrics.fleet()) == 16
        assert all(h.finished and not h.cancelled for h in handles)
        # least_kv under replay sees live gauges: no replica hoards the trace.
        assert max(metrics.completed_per_replica().values()) < 16

    @pytest.mark.parametrize("kind", FLEETS)
    def test_duplicate_and_draining_submissions_rejected(self, latency, kind):
        async def run():
            cluster = make_fleet(kind, lambda: SimulatedBackend(latency), 2)
            async with cluster:
                cluster.submit(Request("r0", prompt_tokens=64, max_new_tokens=4))
                with pytest.raises(ValueError, match="duplicate"):
                    cluster.submit(Request("r0", prompt_tokens=64, max_new_tokens=4))
                await cluster.drain()
                with pytest.raises(RuntimeError, match="draining"):
                    cluster.submit(Request("r1", prompt_tokens=64, max_new_tokens=4))

        asyncio.run(run())

    @pytest.mark.parametrize("kind", FLEETS)
    def test_refused_submissions_leave_no_handle(self, tiny_model, kind):
        """A request refused at the door was never in flight: no handle is
        kept for it and its id stays usable."""
        vocab = tiny_model.config.vocab_size

        async def run():
            cluster = make_fleet(kind, lambda: make_real_backend(tiny_model), 1)
            async with cluster:
                for _ in range(3):
                    with pytest.raises(ValueError, match="token ids"):
                        cluster.submit(
                            Request.from_prompt("r0", [1, vocab], max_new_tokens=4)
                        )
                assert cluster._handles == {}
                tokens = await cluster.submit(req("r0", max_new=4)).result()
                await cluster.drain()
            assert cluster._handles == {}
            return tokens

        assert len(asyncio.run(run())) == 4

    def test_cancel_mid_stream(self, tiny_model):
        async def run():
            cluster = ServingCluster([make_real_backend(tiny_model)])
            async with cluster:
                handle = cluster.submit(req("r0", max_new=64))
                got = []
                async for token in handle.stream():
                    got.append(token)
                    if len(got) == 3:
                        assert handle.cancel()
                assert handle.cancelled
                with pytest.raises(RequestAborted) as excinfo:
                    await handle.result()
                assert excinfo.value.partial_tokens == got
            return got

        assert len(asyncio.run(run())) >= 3

    @pytest.mark.parametrize("kind", FLEETS)
    def test_cluster_abort_by_id(self, latency, kind):
        async def run():
            cluster = make_fleet(kind, lambda: SimulatedBackend(latency), 2)
            async with cluster:
                cluster.submit(Request("r0", prompt_tokens=4_096, max_new_tokens=512))
                assert cluster.abort("r0") is True
                assert cluster.abort("unknown") is False
                await cluster.drain()

        asyncio.run(run())


class TestFailureContainment:
    def test_dead_replica_quarantined_and_requests_resubmitted(self, tiny_model):
        requests = [req(f"r{i}", offset=i) for i in range(6)]
        ref_engine = ServingEngine(
            make_real_backend(tiny_model), SchedulerConfig(max_batch_size=4)
        )
        handles = [ref_engine.submit(r) for r in requests]
        ref_engine.run_until_complete()
        reference = {h.request_id: list(h.output_tokens) for h in handles}

        async def run():
            cluster = ServingCluster(
                [
                    FlakyBackend(make_real_backend(tiny_model), fail_at_decode=3),
                    make_real_backend(tiny_model),
                ],
                SchedulerConfig(max_batch_size=4),
                routing="round_robin",
            )
            async with cluster:
                cluster_handles = [cluster.submit(r) for r in requests]
                outputs = {h.request_id: await h.result() for h in cluster_handles}
                metrics = await cluster.drain()
            return cluster, cluster_handles, outputs, metrics

        cluster, cluster_handles, outputs, metrics = asyncio.run(run())
        assert cluster.replica_health() == {"replica-0": False, "replica-1": True}
        assert "injected replica fault" in str(cluster.failures["replica-0"])
        assert cluster.total_resubmissions >= 1
        assert any(h.resubmissions for h in cluster_handles)
        # Streams survived the failure byte-identically.
        assert outputs == reference
        # Every request completed somewhere; the survivor recorded the migrants.
        assert len(metrics.fleet()) == len(requests)

    @pytest.mark.slow
    def test_streams_stay_byte_identical_through_migration(self, tiny_model):
        """Tokens already streamed before the fault are not re-delivered."""

        async def run():
            cluster = ServingCluster(
                [FlakyBackend(make_real_backend(tiny_model), fail_at_decode=4),
                 make_real_backend(tiny_model)],
                SchedulerConfig(max_batch_size=2),
                routing="round_robin",
            )
            async with cluster:
                handle = cluster.submit(req("r0", max_new=12))
                streamed = [t async for t in handle.stream()]
                await cluster.drain()
            return handle, streamed

        handle, streamed = asyncio.run(run())
        assert handle.resubmissions == 1
        assert len(streamed) == 12
        reference = ServingEngine(
            make_real_backend(tiny_model), SchedulerConfig(max_batch_size=2)
        )
        ref = reference.submit(req("r0", max_new=12))
        reference.run_until_complete()
        assert streamed == list(ref.output_tokens)

    @pytest.mark.parametrize(
        "kind, health, refusal",
        [
            ("flat", {"replica-0": False}, "no healthy replicas"),
            # Admission needs the prefill pool, so that is the tier whose loss
            # leaves no survivor; the idle decode replica cannot help.
            (
                "disaggregated",
                {"prefill-0": False, "decode-0": True},
                "no healthy prefill replicas",
            ),
        ],
    )
    def test_no_survivors_aborts_cleanly(self, tiny_model, kind, health, refusal):
        async def run():
            if kind == "flat":
                cluster = ServingCluster(
                    [FlakyBackend(make_real_backend(tiny_model), fail_at_decode=2)],
                    SchedulerConfig(max_batch_size=2),
                )
            else:
                cluster = DisaggregatedCluster(
                    [FlakyTierBackend(make_real_backend(tiny_model), fail_at_prefill=1)],
                    [make_real_backend(tiny_model)],
                    scheduler_config=SchedulerConfig(max_batch_size=2),
                )
            async with cluster:
                handle = cluster.submit(req("r0", max_new=16))
                with pytest.raises(RequestAborted):
                    await handle.result()
                assert cluster.replica_health() == health
                with pytest.raises(RuntimeError, match=refusal):
                    cluster.submit(req("r1"))
                await cluster.drain()

        asyncio.run(run())

    @pytest.mark.parametrize("kind", FLEETS)
    def test_submit_lands_before_the_pump_notices_a_dead_replica(self, tiny_model, kind):
        """Between a drive loop dying and its pump quarantining the replica,
        the fleet still lists it as healthy; a submit in that window is an
        unrelated request and must be served by the survivor."""
        requests = [req("r0", max_new=8), req("r1", offset=1, max_new=8)]
        config = SchedulerConfig(max_batch_size=4)
        ref_engine = ServingEngine(make_real_backend(tiny_model), config)
        ref_handles = [ref_engine.submit(r) for r in requests]
        ref_engine.run_until_complete()
        reference = [list(h.output_tokens) for h in ref_handles]

        async def run():
            cluster, doomed = doomed_fleet(kind, tiny_model, config)
            async with cluster:
                first = cluster.submit(requests[0])
                while doomed.engine.failure is None:
                    await asyncio.sleep(0)
                assert doomed.healthy  # no pump has run since it died
                second = cluster.submit(requests[1])
                outputs = [await first.result(), await second.result()]
                await cluster.drain()
            assert not doomed.healthy and first.resubmissions == 1
            return outputs

        assert asyncio.run(run()) == reference

    @pytest.mark.parametrize("kind", FLEETS)
    def test_cancel_before_the_pump_notices_a_dead_replica(self, tiny_model, kind):
        """A consumer that cancels after its replica died, but before the pump
        saw the stream end, still gets the replica quarantined: left healthy,
        drain() and shutdown() would re-raise its failure."""
        async def run():
            cluster, doomed = doomed_fleet(kind, tiny_model, SchedulerConfig(max_batch_size=4))
            async with cluster:
                handle = cluster.submit(req("r0", max_new=8))
                while doomed.engine.failure is None:
                    await asyncio.sleep(0)
                assert doomed.healthy and handle.cancel()
                with pytest.raises(RequestAborted):
                    await handle.result()
                await cluster.drain()
            assert not doomed.healthy and handle.resubmissions == 0

        asyncio.run(run())

    def test_quarantined_replica_excluded_from_routing(self, tiny_model):
        async def run():
            cluster = ServingCluster(
                [FlakyBackend(make_real_backend(tiny_model), fail_at_decode=2),
                 make_real_backend(tiny_model)],
                SchedulerConfig(max_batch_size=2),
                routing="round_robin",
            )
            async with cluster:
                first = cluster.submit(req("r0", max_new=8))
                await first.result()  # replica-0 died serving it; migrated
                assert cluster.replica_health()["replica-0"] is False
                later = [cluster.submit(req(f"r{i}", offset=i, max_new=4)) for i in range(1, 4)]
                for handle in later:
                    await handle.result()
                assert all(h.replica_id == "replica-1" for h in later)
                await cluster.drain()

        asyncio.run(run())


class TestClusterLifecycle:
    @pytest.mark.parametrize("kind", FLEETS)
    def test_shutdown_aborts_in_flight(self, latency, kind):
        async def run():
            cluster = make_fleet(kind, lambda: SimulatedBackend(latency), 2)
            async with cluster:
                handle = cluster.submit(
                    Request("slow", prompt_tokens=65_536, max_new_tokens=1_024)
                )
            # __aexit__ ran shutdown(): the handle ended without completing.
            assert handle.finished and handle.cancelled

        asyncio.run(run())

    def test_drain_returns_cluster_metrics_and_keeps_gauges(self, latency):
        async def run():
            cluster = ServingCluster(
                [SimulatedBackend(latency) for _ in range(2)],
                SchedulerConfig(max_batch_size=4, kv_token_capacity=200_000),
            )
            async with cluster:
                for i in range(4):
                    cluster.submit(Request(f"r{i}", prompt_tokens=2_048, max_new_tokens=8))
                metrics = await cluster.drain()
            assert len(metrics.fleet()) == 4
            gauges = cluster.live_gauges()
            assert gauges.completed == 4
            assert gauges.in_flight == 0

        asyncio.run(run())
