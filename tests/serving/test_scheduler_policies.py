"""Tests for admission policies, watermark back-pressure, and per-class metrics."""

import pytest

from repro.baselines.systems import lserve_policy
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B
from repro.serving import (
    POLICIES,
    Request,
    SchedulerConfig,
    ServingEngine,
    ServingMetrics,
    SimulatedBackend,
    make_policy,
)
from repro.serving.metrics import RequestRecord
from repro.serving.scheduler import ContinuousBatchingScheduler


def make_sched(**kwargs):
    return ContinuousBatchingScheduler(SchedulerConfig(**kwargs))


def make_engine(**sched):
    sched.setdefault("max_batch_size", 4)
    sched.setdefault("kv_token_capacity", 600_000)
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    return ServingEngine(SimulatedBackend(latency), SchedulerConfig(**sched))


class TestPolicyRegistry:
    def test_registry_contains_builtin_policies(self):
        assert set(POLICIES) == {"fcfs", "sjf", "priority"}
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("lifo")


class TestAdmissionOrder:
    def submit_mix(self, sched):
        sched.submit(Request("long", prompt_tokens=4_000, max_new_tokens=8))
        sched.submit(Request("mid", prompt_tokens=400, max_new_tokens=8, priority=1))
        sched.submit(Request("short", prompt_tokens=40, max_new_tokens=8, priority=2))

    def drain(self, sched):
        order = []
        while (state := sched.schedule_prefill()) is not None:
            order.append(state.request.request_id)
            state.record_prefill(0.0)
        return order

    def test_fcfs_is_submission_order(self):
        sched = make_sched(policy="fcfs", kv_token_capacity=100_000)
        self.submit_mix(sched)
        assert self.drain(sched) == ["long", "mid", "short"]

    def test_sjf_is_prompt_length_order(self):
        sched = make_sched(policy="sjf", kv_token_capacity=100_000)
        self.submit_mix(sched)
        assert self.drain(sched) == ["short", "mid", "long"]

    def test_priority_orders_by_class_then_arrival(self):
        sched = make_sched(policy="priority", kv_token_capacity=100_000)
        self.submit_mix(sched)  # priorities: long=0, mid=1, short=2
        assert self.drain(sched) == ["long", "mid", "short"]
        sched2 = make_sched(policy="priority", kv_token_capacity=100_000)
        sched2.submit(Request("bg", prompt_tokens=100, max_new_tokens=8, priority=5))
        sched2.submit(Request("fg", prompt_tokens=100, max_new_tokens=8, priority=0))
        assert self.drain(sched2) == ["fg", "bg"]

    def test_sjf_victims_free_most_materialised_kv_first(self):
        """Regression: SJF eviction order ranks by materialised KV (prompt +
        generated), not prompt length alone."""
        from repro.serving import RequestState, make_policy

        short_heavy = RequestState(Request("short", prompt_tokens=100, max_new_tokens=1_000))
        short_heavy.submit_seq = 0
        short_heavy.record_prefill(0.0)
        for _ in range(900):
            short_heavy.record_decode_token(1.0)  # 1000 KV tokens materialised
        long_light = RequestState(Request("long", prompt_tokens=500, max_new_tokens=1_000))
        long_light.submit_seq = 1
        long_light.record_prefill(0.0)
        for _ in range(10):
            long_light.record_decode_token(1.0)  # 510 KV tokens materialised
        order = make_policy("sjf").victim_order([long_light, short_heavy])
        assert [s.request.request_id for s in order] == ["short", "long"]

    def test_waiting_property_reflects_policy_order(self):
        sched = make_sched(policy="sjf", kv_token_capacity=100_000)
        self.submit_mix(sched)
        assert [s.request.request_id for s in sched.waiting] == ["short", "mid", "long"]


class TestStarvation:
    """A long request at the head of the queue must not block short ones
    forever under SJF (head-of-line blocking regression)."""

    def requests(self):
        # Everything arrives together, long submitted first: FCFS puts the
        # long at the head of the queue, SJF lets the shorts overtake it.
        reqs = [Request("long", prompt_tokens=200_000, max_new_tokens=32,
                        arrival_time_s=0.0)]
        reqs += [
            Request(f"short{i}", prompt_tokens=2_000, max_new_tokens=32,
                    arrival_time_s=0.0)
            for i in range(6)
        ]
        return reqs

    def run_policy(self, policy):
        # Capacity admits the long request alone OR several short ones, never both.
        engine = make_engine(
            policy=policy,
            max_batch_size=8,
            kv_token_capacity=210_000,
            kv_high_watermark=205_000,
            kv_low_watermark=100_000,
        )
        return engine.run(self.requests())

    def test_sjf_shorts_are_not_blocked_by_long_head(self):
        metrics = self.run_policy("sjf")
        long_rec = next(r for r in metrics.records if r.request_id == "long")
        shorts = [r for r in metrics.records if r.request_id != "long"]
        # Every short finishes by the time the long one starts prefilling.
        assert all(s.finish_time_s <= long_rec.scheduled_time_s for s in shorts)
        assert all(s.scheduled_time_s < long_rec.scheduled_time_s for s in shorts)

    def test_fcfs_shorts_wait_behind_long_head(self):
        """Control: under FCFS the same trace head-of-line-blocks the shorts."""
        metrics = self.run_policy("fcfs")
        long_rec = next(r for r in metrics.records if r.request_id == "long")
        shorts = [r for r in metrics.records if r.request_id != "long"]
        assert all(s.scheduled_time_s >= long_rec.prefill_finish_time_s for s in shorts)

    def test_sjf_long_request_still_completes(self):
        """Liveness: with a finite short stream the long request does finish."""
        metrics = self.run_policy("sjf")
        assert len(metrics) == 7


class TestPriorityServing:
    def test_interactive_class_gets_lower_ttft_under_load(self):
        reqs = []
        for i in range(6):
            reqs.append(Request(f"bg{i}", prompt_tokens=60_000, max_new_tokens=64,
                                arrival_time_s=0.0, priority=1))
            reqs.append(Request(f"fg{i}", prompt_tokens=4_000, max_new_tokens=64,
                                arrival_time_s=0.0, priority=0))
        prio = make_engine(policy="priority", max_batch_size=4,
                           kv_token_capacity=200_000).run(list(reqs))
        assert prio.mean_ttft_s(priority=0) < prio.mean_ttft_s(priority=1)
        assert sorted({r.priority for r in prio.records}) == [0, 1]


class TestPerClassMetrics:
    def record(self, rid, priority, prefill=1.0, decode=3.0, preemptions=0):
        return RequestRecord(
            request_id=rid, arrival_time_s=0.0, prefill_finish_time_s=prefill,
            finish_time_s=prefill + decode, prompt_tokens=100, generated_tokens=4,
            priority=priority, preemptions=preemptions, scheduled_time_s=0.5,
        )

    def metrics(self):
        m = ServingMetrics()
        m.add(self.record("a", priority=0, prefill=1.0))
        m.add(self.record("b", priority=0, prefill=2.0, preemptions=1))
        m.add(self.record("c", priority=1, prefill=8.0, decode=6.0, preemptions=2))
        return m

    def test_per_class_slicing(self):
        m = self.metrics()
        assert sorted({r.priority for r in m.records}) == [0, 1]
        assert m.mean_ttft_s(priority=0) == pytest.approx(1.5)
        assert m.mean_ttft_s(priority=1) == pytest.approx(8.0)
        assert m.percentile_ttft_s(100, priority=0) == pytest.approx(2.0)
        assert m.total_preemptions() == 3
        assert m.total_preemptions(priority=1) == 2
        assert m.mean_queueing_delay_s() == pytest.approx(0.5)

    def test_percentile_tpot_per_class(self):
        m = self.metrics()
        # Each record decodes generated_tokens - 1 = 3 tokens after prefill.
        assert m.percentile_tpot_s(50, priority=0) == pytest.approx(1.0)
        assert m.percentile_tpot_s(50, priority=1) == pytest.approx(2.0)
        assert m.percentile_tpot_s(100) == pytest.approx(2.0)

    def test_empty_class_raises(self):
        with pytest.raises(ValueError, match="priority class 7"):
            self.metrics().mean_ttft_s(priority=7)

    def test_slo_attainment(self):
        m = self.metrics()
        # TTFTs are 1.0, 2.0, 8.0; all TPOTs well under 10 s.
        assert m.slo_attainment(ttft_slo_s=2.5, tpot_slo_s=10.0) == pytest.approx(2 / 3)
        assert m.slo_attainment(ttft_slo_s=0.5) == 0.0
        assert m.slo_attainment(ttft_slo_s=2.5, priority=0) == 1.0
