"""Tests for the serving framework (requests, scheduler, metrics, front door)."""

import gc
import weakref

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy, vllm_policy
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B
from repro.serving import (
    LiveGauges,
    Request,
    RequestState,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
    ServingMetrics,
    SimulatedBackend,
)
from repro.serving.metrics import RequestRecord
from repro.serving.scheduler import ContinuousBatchingScheduler
from tests.conftest import step_outcomes


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request("r", prompt_tokens=0, max_new_tokens=1)
        with pytest.raises(ValueError):
            Request("r", prompt_tokens=1, max_new_tokens=0)
        with pytest.raises(ValueError):
            Request("r", prompt_tokens=1, max_new_tokens=1, arrival_time_s=-1)

    def test_prompt_token_ids_must_match_length(self):
        with pytest.raises(ValueError):
            Request("r", prompt_tokens=3, max_new_tokens=1, prompt_token_ids=(1, 2))
        req = Request("r", prompt_tokens=2, max_new_tokens=1, prompt_token_ids=(1, 2))
        assert req.prompt_token_ids == (1, 2)

    def test_from_prompt(self):
        req = Request.from_prompt("r", [4, 5, 6], max_new_tokens=2,
                                  sampling=SamplingParams(stop_token_ids=(0,)))
        assert req.prompt_tokens == 3
        assert req.prompt_token_ids == (4, 5, 6)
        assert req.sampling.stop_token_ids == (0,)

    def test_state_lifecycle(self):
        state = RequestState(Request("r", prompt_tokens=10, max_new_tokens=2))
        assert state.context_length == 0
        state.record_prefill(1.0)
        assert state.status is RequestStatus.DECODING
        assert state.context_length == 10
        state.record_decode_token(2.0)
        state.record_decode_token(3.0)
        assert state.is_finished
        assert state.finish_time_s == 3.0
        assert state.context_length == 12

    def test_mark_finished_stops_early(self):
        state = RequestState(Request("r", prompt_tokens=4, max_new_tokens=10))
        state.record_prefill(1.0)
        state.record_decode_token(2.0)
        state.mark_finished(2.5)
        assert state.is_finished
        assert state.finish_time_s == 2.5
        assert state.generated_tokens == 1
        with pytest.raises(ValueError):
            state.mark_finished(3.0)

    def test_invalid_transitions(self):
        state = RequestState(Request("r", prompt_tokens=4, max_new_tokens=1))
        with pytest.raises(ValueError):
            state.record_decode_token(1.0)
        state.record_prefill(1.0)
        with pytest.raises(ValueError):
            state.record_prefill(2.0)


class TestScheduler:
    def make(self, **kwargs):
        return ContinuousBatchingScheduler(SchedulerConfig(**kwargs))

    def test_fcfs_admission(self):
        sched = self.make(max_batch_size=2, kv_token_capacity=10_000)
        for i in range(3):
            sched.submit(Request(f"r{i}", prompt_tokens=100, max_new_tokens=10))
        first = sched.schedule_prefill()
        second = sched.schedule_prefill()
        assert first.request.request_id == "r0"
        assert second.request.request_id == "r1"
        # Batch is full: the third request stays queued.
        assert sched.schedule_prefill() is None
        assert len(sched.waiting) == 1

    def test_kv_watermark_admission_control(self):
        """Admission is best-effort against the high watermark: materialised KV
        plus the candidate's prompt must stay under kv_high_watermark (the
        generation budget is no longer reserved up front)."""
        sched = self.make(max_batch_size=8, kv_token_capacity=230,
                          kv_high_watermark=210, kv_low_watermark=100)
        sched.submit(Request("big", prompt_tokens=200, max_new_tokens=10))
        sched.submit(Request("small", prompt_tokens=20, max_new_tokens=10))
        admitted = sched.schedule_prefill()
        assert admitted.request.request_id == "big"
        admitted.record_prefill(0.0)  # 200 KV tokens materialised
        # 200 + 20 > 210: the second request is blocked (FCFS, no skipping).
        assert sched.schedule_prefill() is None

    def test_oversized_request_rejected_at_scheduler_submit(self):
        """The capacity-safety bound is enforced by the scheduler itself, not
        just by the ServingEngine wrapper."""
        sched = self.make(max_batch_size=8, kv_token_capacity=100)
        with pytest.raises(ValueError, match="never be admitted"):
            sched.submit(Request("big", prompt_tokens=200, max_new_tokens=10))
        assert not sched.has_work

    def test_empty_pool_admission_is_unconditional(self):
        """Anything that passed the submit-time capacity check can run alone,
        even when its prompt alone exceeds the high watermark."""
        sched = self.make(max_batch_size=8, kv_token_capacity=300,
                          kv_high_watermark=100, kv_low_watermark=50)
        sched.submit(Request("huge", prompt_tokens=250, max_new_tokens=10))
        assert sched.schedule_prefill().request.request_id == "huge"

    def test_admission_order_preserved_under_kv_backpressure(self):
        """Regression: requests blocked by KV back-pressure must be admitted in
        the exact order they were submitted once capacity frees up."""
        sched = self.make(max_batch_size=8, kv_token_capacity=250,
                          kv_high_watermark=225, kv_low_watermark=100)
        sched.submit(Request("head", prompt_tokens=200, max_new_tokens=10))
        for i in range(4):
            sched.submit(Request(f"q{i}", prompt_tokens=40, max_new_tokens=10))
        head = sched.schedule_prefill()
        assert head.request.request_id == "head"
        head.record_prefill(0.0)
        # Everything else is blocked behind the big head-of-line request.
        assert sched.schedule_prefill() is None
        assert [s.request.request_id for s in sched.waiting] == ["q0", "q1", "q2", "q3"]
        # Finish the head request; the queue must drain strictly FCFS.
        for _ in range(10):
            head.record_decode_token(1.0)
        sched.retire_finished()
        admitted = []
        while (state := sched.schedule_prefill()) is not None:
            admitted.append(state.request.request_id)
            state.record_prefill(1.0)
        assert admitted == ["q0", "q1", "q2", "q3"]

    def test_retire_frees_capacity(self):
        sched = self.make(max_batch_size=1, kv_token_capacity=1_000)
        sched.submit(Request("a", prompt_tokens=10, max_new_tokens=1))
        sched.submit(Request("b", prompt_tokens=10, max_new_tokens=1))
        a = sched.schedule_prefill()
        a.record_prefill(0.0)
        a.record_decode_token(1.0)
        done = sched.retire_finished()
        assert [s.request.request_id for s in done] == ["a"]
        assert sched.schedule_prefill().request.request_id == "b"

    def test_decode_batch_only_decoding(self):
        sched = self.make()
        sched.submit(Request("a", prompt_tokens=10, max_new_tokens=2))
        state = sched.schedule_prefill()
        assert sched.decode_batch() == []
        state.record_prefill(0.0)
        assert len(sched.decode_batch()) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(kv_token_capacity=0)

    def test_watermark_defaults_satisfy_invariant(self):
        cfg = SchedulerConfig(kv_token_capacity=1_000)
        assert 0 <= cfg.kv_low_watermark < cfg.kv_high_watermark <= 1_000
        tiny = SchedulerConfig(kv_token_capacity=1)
        assert (tiny.kv_low_watermark, tiny.kv_high_watermark) == (0, 1)

    def test_watermark_invariant_error_messages(self):
        """The low < high <= capacity invariant is validated with messages that
        name the offending values."""
        with pytest.raises(
            ValueError,
            match=r"kv_low_watermark \(90\) must be strictly below kv_high_watermark \(90\)",
        ):
            SchedulerConfig(
                kv_token_capacity=100, kv_high_watermark=90, kv_low_watermark=90
            )
        with pytest.raises(
            ValueError,
            match=r"kv_high_watermark \(150\) must not exceed kv_token_capacity \(100\)",
        ):
            SchedulerConfig(
                kv_token_capacity=100, kv_high_watermark=150, kv_low_watermark=50
            )
        with pytest.raises(ValueError, match=r"kv_low_watermark \(-1\) must be non-negative"):
            SchedulerConfig(
                kv_token_capacity=100, kv_high_watermark=90, kv_low_watermark=-1
            )
        with pytest.raises(ValueError, match=r"kv_high_watermark \(0\) must be positive"):
            SchedulerConfig(kv_token_capacity=100, kv_high_watermark=0)

    def test_unknown_policy_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="unknown scheduling policy 'round-robin'"):
            SchedulerConfig(policy="round-robin")


class TestMetrics:
    def record(self, rid="r", arrival=0.0, prefill=1.0, finish=3.0, gen=4):
        return RequestRecord(
            request_id=rid, arrival_time_s=arrival, prefill_finish_time_s=prefill,
            finish_time_s=finish, prompt_tokens=100, generated_tokens=gen,
        )

    def test_record_properties(self):
        r = self.record()
        assert r.ttft_s == 1.0
        assert r.decode_time_s == 2.0
        # First token is covered by TTFT; decode spans the remaining 3 tokens.
        assert r.time_per_output_token_s == pytest.approx(2.0 / 3)
        assert self.record(gen=1).time_per_output_token_s == 0.0

    def test_aggregates(self):
        metrics = ServingMetrics()
        metrics.add(self.record("a", 0.0, 1.0, 3.0, 4))
        metrics.add(self.record("b", 1.0, 3.0, 5.0, 4))
        assert len(metrics) == 2
        assert metrics.mean_ttft_s() == pytest.approx(1.5)
        assert metrics.total_generated_tokens() == 8
        assert metrics.makespan_s() == pytest.approx(5.0)
        assert metrics.generation_throughput_tokens_s() == pytest.approx(8 / 5)
        assert metrics.percentile_ttft_s(100) == pytest.approx(2.0)

    def test_empty_metrics_report_nan_or_zero(self):
        """Summary aggregates must not crash when nothing completed.

        A smoke run where everything was rejected (or is still queued) still
        prints its summary table: means/percentiles report NaN, counters and
        throughput report 0.  Per-priority-class lookups keep raising — a
        typo'd class id should error, not read as an empty class.
        """
        empty = ServingMetrics()
        assert np.isnan(empty.mean_ttft_s())
        assert np.isnan(empty.percentile_ttft_s(99))
        assert np.isnan(empty.mean_queueing_delay_s())
        assert np.isnan(empty.slo_attainment(1.0, 0.1))
        assert empty.percentile_tpot_s(50) == 0.0
        assert empty.mean_time_per_output_token_s() == 0.0
        assert empty.total_preemptions() == 0
        assert empty.total_generated_tokens() == 0
        assert empty.makespan_s() == 0.0
        assert empty.generation_throughput_tokens_s() == 0.0

    def test_empty_priority_class_still_raises(self):
        empty = ServingMetrics()
        with pytest.raises(ValueError, match="priority class"):
            empty.mean_ttft_s(priority=3)
        metrics = ServingMetrics()
        metrics.add(self.record("a", 0.0, 1.0, 3.0, gen=5))
        with pytest.raises(ValueError, match="priority class 7"):
            metrics.percentile_ttft_s(99, priority=7)

    def test_mean_tpot_excludes_prefill_only_requests(self):
        metrics = ServingMetrics()
        metrics.add(self.record("a", 0.0, 1.0, 3.0, gen=5))  # 2.0s over 4 decode tokens
        metrics.add(self.record("b", 0.0, 1.0, 1.0, gen=1))  # first token only
        assert metrics.mean_time_per_output_token_s() == pytest.approx(0.5)
        only_prefill = ServingMetrics()
        only_prefill.add(self.record("c", 0.0, 1.0, 1.0, gen=1))
        assert only_prefill.mean_time_per_output_token_s() == 0.0


class TestServingEngine:
    def make_engine(self, policy, **sched):
        sched.setdefault("max_batch_size", 4)
        sched.setdefault("kv_token_capacity", 600_000)
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, policy)
        return ServingEngine(SimulatedBackend(latency), SchedulerConfig(**sched))

    def requests(self, n=4, prompt=32_768, out=64):
        return [
            Request(f"r{i}", prompt_tokens=prompt, max_new_tokens=out, arrival_time_s=0.0)
            for i in range(n)
        ]

    def test_all_requests_complete(self):
        engine = self.make_engine(lserve_policy())
        metrics = engine.run(self.requests())
        assert len(metrics) == 4
        assert metrics.total_generated_tokens() == 4 * 64
        assert not engine.has_work

    def test_submit_step_run_until_complete(self):
        engine = self.make_engine(lserve_policy())
        handle = engine.submit(Request("a", prompt_tokens=1024, max_new_tokens=4))
        outcome = engine.step()
        assert outcome.kind == "prefill"
        assert outcome.request_ids == ("a",)
        assert handle.state.status is RequestStatus.DECODING
        metrics = engine.run_until_complete()
        assert handle.finished
        assert handle.record is metrics.records[0]
        assert handle.record.generated_tokens == 4

    def test_duplicate_request_id_rejected(self):
        engine = self.make_engine(lserve_policy())
        engine.submit(Request("a", prompt_tokens=16, max_new_tokens=1))
        with pytest.raises(ValueError):
            engine.submit(Request("a", prompt_tokens=16, max_new_tokens=1))

    def test_unschedulable_request_rejected_at_submit(self):
        """A request that could never fit kv_token_capacity is refused up front
        instead of silently stalling the run and dropping from the metrics."""
        engine = self.make_engine(lserve_policy(), kv_token_capacity=1_000)
        with pytest.raises(ValueError, match="never be admitted"):
            engine.submit(Request("big", prompt_tokens=2_000, max_new_tokens=10))
        # Requests that fit (even if only on an empty system) still complete.
        metrics = engine.run(
            [Request(f"r{i}", prompt_tokens=900, max_new_tokens=10) for i in range(3)]
        )
        assert len(metrics) == 3

    def test_step_outcomes_record_schedule(self):
        engine = self.make_engine(lserve_policy(), max_batch_size=2)
        outcomes = step_outcomes(engine, self.requests(n=2, prompt=1024, out=2))
        assert (outcomes[0].kind, outcomes[0].request_ids) == ("prefill", ("r0",))
        assert (outcomes[1].kind, outcomes[1].request_ids) == ("prefill", ("r1",))
        assert all(o.kind == "decode" for o in outcomes[2:])

    def test_lserve_outperforms_vllm_end_to_end(self):
        reqs = self.requests(n=3, prompt=131_072, out=128)
        lserve = self.make_engine(lserve_policy()).run(reqs)
        vllm = self.make_engine(vllm_policy()).run(reqs)
        assert (
            lserve.generation_throughput_tokens_s()
            > vllm.generation_throughput_tokens_s()
        )
        assert lserve.mean_ttft_s() < vllm.mean_ttft_s()

    def test_empty_request_list_rejected(self):
        with pytest.raises(ValueError):
            self.make_engine(lserve_policy()).run([])

    def test_staggered_arrivals(self):
        reqs = [
            Request("a", prompt_tokens=16_384, max_new_tokens=32, arrival_time_s=0.0),
            Request("b", prompt_tokens=16_384, max_new_tokens=32, arrival_time_s=100.0),
        ]
        metrics = self.make_engine(lserve_policy()).run(reqs)
        assert len(metrics) == 2
        b = next(r for r in metrics.records if r.request_id == "b")
        assert b.prefill_finish_time_s >= 100.0

    def test_clear_finished_frees_handles_and_ids(self):
        engine = self.make_engine(lserve_policy())
        engine.run([Request("a", prompt_tokens=1024, max_new_tokens=2)])
        assert engine.handle("a").finished
        assert engine.clear_finished() == 1
        with pytest.raises(KeyError):
            engine.handle("a")
        # The id is reusable and completed metrics are retained.
        engine.run([Request("a", prompt_tokens=1024, max_new_tokens=2)])
        assert len(engine.metrics) == 2

    def test_cleared_request_state_is_freed(self):
        """Nothing keeps a retired request (and its prompt ids) alive once its handle is cleared."""
        engine = self.make_engine(lserve_policy())
        engine.run([Request("a", prompt_tokens=1024, max_new_tokens=2)])
        state = weakref.ref(engine.handle("a").state)
        engine.clear_finished()
        gc.collect()
        assert state() is None

    def test_backend_work_accounting(self):
        engine = self.make_engine(lserve_policy())
        engine.run(self.requests(n=2, prompt=4096, out=4))
        work = engine.backend.work
        assert work.prefill_calls == 2
        assert work.prefill_tokens == 2 * 4096
        # First token comes from prefill; the rest from decode iterations.
        assert work.decode_tokens == 2 * 3


class TestEmittedTokensAbortAndGauges:
    """Step-level emissions, caller aborts, and the live-gauge snapshot."""

    def make_engine(self, **sched):
        sched.setdefault("max_batch_size", 4)
        sched.setdefault("kv_token_capacity", 600_000)
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        return ServingEngine(SimulatedBackend(latency), SchedulerConfig(**sched))

    def test_steps_report_emitted_tokens(self):
        engine = self.make_engine()
        engine.submit(Request("a", prompt_tokens=1024, max_new_tokens=3))
        engine.submit(Request("b", prompt_tokens=1024, max_new_tokens=3))
        emitted = []
        while (outcome := engine.step()) is not None:
            emitted.extend(outcome.emitted_tokens)
            if outcome.kind == "decode":
                assert len(outcome.emitted_tokens) == len(outcome.request_ids)
            elif outcome.kind == "prefill":
                assert len(outcome.emitted_tokens) == 1
        # One (id, token) pair per generated token, in emission order.
        assert len(emitted) == 6
        per_request = {"a": [], "b": []}
        for rid, token in emitted:
            per_request[rid].append(token)
        assert per_request["a"] == engine.handle("a").output_tokens
        assert per_request["b"] == engine.handle("b").output_tokens

    def test_abort_running_request_releases_backend_kv(self):
        engine = self.make_engine()
        engine.submit(Request("a", prompt_tokens=1024, max_new_tokens=1_000))
        engine.submit(Request("b", prompt_tokens=1024, max_new_tokens=4))
        for _ in range(4):
            engine.step()
        assert engine.backend.kv_tokens_in_use() > 1024  # both prefilled
        assert engine.abort("a") is True
        handle = engine.handle("a")
        assert handle.cancelled and handle.finished
        assert engine.aborted == 1
        engine.run_until_complete()
        assert engine.backend.kv_tokens_in_use() == 0
        assert len(engine.metrics) == 1  # no record for the aborted request
        assert engine.live_gauges().aborted == 1
        assert not engine.handle("b").cancelled
        # Terminal abort is a no-op; unknown ids raise.
        assert engine.abort("a") is False
        assert engine.aborted == 1
        with pytest.raises(KeyError):
            engine.abort("zzz")

    def test_abort_waiting_request_needs_no_release(self):
        engine = self.make_engine(max_batch_size=1)
        engine.submit(Request("a", prompt_tokens=1024, max_new_tokens=8))
        engine.submit(Request("b", prompt_tokens=1024, max_new_tokens=8))
        engine.step()  # admit + prefill "a"; "b" stays waiting
        assert engine.abort("b") is True
        metrics = engine.run_until_complete()
        assert len(metrics) == 1
        assert engine.handle("b").output_tokens == []

    def test_live_gauges_track_queue_batch_and_kv(self):
        engine = self.make_engine(max_batch_size=1, kv_token_capacity=4096)
        engine.submit(Request("a", prompt_tokens=1024, max_new_tokens=8))
        engine.submit(Request("b", prompt_tokens=1024, max_new_tokens=8))
        engine.submit(
            Request("c", prompt_tokens=1024, max_new_tokens=8, arrival_time_s=1e9)
        )
        gauges = engine.live_gauges()
        assert gauges.queue_depth == 0 and gauges.running == 0
        assert gauges.pending_arrivals == 3  # nothing admitted before the first step
        engine.step()  # admits + prefills "a"
        gauges = engine.live_gauges()
        assert gauges.running == 1
        assert gauges.queue_depth == 1  # "b" waiting behind batch_size=1
        assert gauges.pending_arrivals == 1  # "c" arrives at t=1e9
        # Scheduler charges prompt + the sampled first token; the backend has
        # only materialised the prompt (the token's KV lands at next decode).
        assert gauges.kv_tokens_in_use == 1024 + 1
        assert gauges.backend_kv_tokens == 1024
        assert gauges.kv_token_capacity == 4096
        assert 0.0 < gauges.kv_occupancy < 1.0
        assert gauges.in_flight == 3
        rendered = gauges.to_prometheus()
        assert "# TYPE repro_serving_queue_depth gauge" in rendered
        assert "repro_serving_running 1" in rendered
        dict_view = gauges.to_dict()
        assert dict_view["kv_occupancy"] == pytest.approx(gauges.kv_occupancy)

    def test_prometheus_rendering_keeps_large_counts_exact(self):
        """Token-count gauges beyond 1e6 must not lose digits ('%g' would)."""
        big = LiveGauges(
            clock_s=0.0, queue_depth=0, pending_arrivals=0, running=0,
            kv_tokens_in_use=1_048_575, kv_token_capacity=1_048_576,
            backend_kv_tokens=-1, completed=10_000_001, aborted=0, preemptions=0,
        )
        rendered = big.to_prometheus()
        assert "repro_serving_kv_tokens_in_use 1048575" in rendered
        assert "repro_serving_kv_token_capacity 1048576" in rendered
        assert "repro_serving_completed 10000001" in rendered


class TestServingSimulatorRemoved:
    """The deprecated one-shot shim reached its removal horizon in this PR."""

    def test_shim_module_is_gone(self):
        with pytest.raises(ImportError):
            from repro.serving.server import ServingSimulator  # noqa: F401

    def test_symbol_not_exported(self):
        import repro.serving as serving

        assert "ServingSimulator" not in serving.__all__
        assert not hasattr(serving, "ServingSimulator")
