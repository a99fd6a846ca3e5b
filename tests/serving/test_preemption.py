"""Preemption tests: recompute round-trips, pressure invariants, accounting.

The acceptance-critical property: under a KV-constrained scheduler a run that
preempts (and later resumes) requests must produce byte-identical output
token ids to an unconstrained run, because resume re-prefills the prompt and
replays the already-generated tokens through the backend.
"""

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
    LServeBackend,
    Request,
    RequestClass,
    RequestStatus,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    WorkloadSpec,
)
from tests.conftest import step_outcomes

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def make_lserve_engine(model, kv_bits: int = 8) -> LServeEngine:
    return LServeEngine(
        model,
        LServeConfig(
            streaming_head_ratio=0.5,
            dynamic_sparsity_enabled=True,
            kv_bits=kv_bits,
            physical_page_size=16,
            logical_page_size=4,
            sink_tokens=16,
            local_tokens=32,
            q_block_size=16,
            token_budget=64,
            reuse_interval=4,
        ),
        streaming_kv_heads=STREAMING_MASK,
        num_cache_pages=512,
    )


def sim_engine(**sched):
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    return ServingEngine(SimulatedBackend(latency), SchedulerConfig(**sched))


CONSTRAINED = dict(
    max_batch_size=4, kv_token_capacity=110, kv_high_watermark=100, kv_low_watermark=60
)


class TestPreemptionRoundTrip:
    def trace(self, model):
        def prompt(seed, n=48):
            return (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size

        return [
            Request.from_prompt(f"r{i}", prompt(i), max_new_tokens=40) for i in range(2)
        ]

    def test_byte_identical_outputs_after_preemption(self, model):
        """Preempt -> re-admit -> the final token ids match a no-preemption run
        on the real LServeBackend exactly."""
        constrained = ServingEngine(
            LServeBackend(make_lserve_engine(model)), SchedulerConfig(**CONSTRAINED)
        )
        outcomes = step_outcomes(constrained, self.trace(model))
        constrained_metrics = constrained.metrics
        free = ServingEngine(
            LServeBackend(make_lserve_engine(model)),
            SchedulerConfig(max_batch_size=4, kv_token_capacity=100_000),
        )
        free_metrics = free.run(self.trace(model))

        assert constrained_metrics.total_preemptions() >= 1
        assert free_metrics.total_preemptions() == 0
        for req in self.trace(model):
            rid = req.request_id
            assert constrained.handle(rid).output_tokens == free.handle(rid).output_tokens
        # The preemption shows up in the step outcomes as evict + resume.
        assert any(o.preempted_ids for o in outcomes)
        assert any(o.kind == "resume" for o in outcomes)

    def test_seeded_mixed_workload_round_trip(self, model):
        """Acceptance: a seeded mixed (two-class) workload completes under a
        KV-constrained config with >= 1 preemption and byte-identical outputs."""
        spec = WorkloadSpec(
            name="mini-mixed",
            arrival_process="bursty",
            arrival_rate_rps=50.0,
            classes=(
                RequestClass(name="fg", weight=2.0, priority=0, prompt_median=32,
                             prompt_sigma=0.3, prompt_min=16, prompt_max=48,
                             output_median=24, output_sigma=0.3, output_min=8,
                             output_max=32),
                RequestClass(name="bg", weight=1.0, priority=1, prompt_median=48,
                             prompt_sigma=0.3, prompt_min=32, prompt_max=64,
                             output_median=32, output_sigma=0.3, output_min=16,
                             output_max=40),
            ),
        )
        reqs = WorkloadGenerator(spec, seed=5).generate(
            4, with_token_ids=True, vocab_size=model.config.vocab_size
        )
        constrained = ServingEngine(
            LServeBackend(make_lserve_engine(model)),
            SchedulerConfig(max_batch_size=4, kv_token_capacity=150,
                            kv_high_watermark=140, kv_low_watermark=70,
                            policy="priority"),
        )
        constrained_metrics = constrained.run(list(reqs))
        free = ServingEngine(
            LServeBackend(make_lserve_engine(model)),
            SchedulerConfig(max_batch_size=4, kv_token_capacity=100_000,
                            policy="priority"),
        )
        free.run(list(reqs))

        assert len(constrained_metrics) == len(reqs)
        assert constrained_metrics.total_preemptions() >= 1
        for req in reqs:
            rid = req.request_id
            assert constrained.handle(rid).output_tokens == free.handle(rid).output_tokens


class TestPreemptionMechanics:
    def test_preemption_recorded_in_state_and_metrics(self):
        engine = sim_engine(**CONSTRAINED)
        metrics = engine.run(
            [Request(f"r{i}", prompt_tokens=48, max_new_tokens=40) for i in range(2)]
        )
        assert metrics.total_preemptions() >= 1
        assert engine.scheduler.total_preemptions >= 1
        preempted = [r for r in metrics.records if r.preemptions > 0]
        assert preempted, "at least one record should carry a preemption count"
        # Preempted requests still deliver their full generation budget.
        assert all(r.generated_tokens == 40 for r in metrics.records)

    def test_kv_usage_never_exceeds_capacity_at_decode(self):
        engine = sim_engine(**CONSTRAINED)
        for i in range(3):
            engine.submit(Request(f"r{i}", prompt_tokens=40, max_new_tokens=40))
        while (outcome := engine.step()) is not None:
            in_use = engine.scheduler.kv_tokens_in_use()
            assert in_use <= engine.scheduler.config.kv_token_capacity
            if outcome.kind == "decode":
                # The iteration that just ran fit inside the pool.
                assert in_use <= engine.scheduler.config.kv_token_capacity

    def test_at_least_one_request_survives_preemption(self):
        engine = sim_engine(**CONSTRAINED)
        for i in range(3):
            engine.submit(Request(f"r{i}", prompt_tokens=40, max_new_tokens=40))
        while (outcome := engine.step()) is not None:
            if outcome.kind == "decode" and outcome.preempted_ids:
                assert len(outcome.request_ids) >= 1

    def test_resume_replay_restores_backend_context(self):
        """After resume, the backend context equals prompt + generated - 1
        (the last generated token is fed by the next decode iteration)."""
        engine = sim_engine(**CONSTRAINED)
        for i in range(2):
            engine.submit(Request(f"r{i}", prompt_tokens=48, max_new_tokens=40))
        resumed = None
        while (outcome := engine.step()) is not None:
            if outcome.kind == "resume":
                resumed = outcome.request_ids[0]
                handle = engine.handle(resumed)
                context = engine.backend._context[handle.seq_id]
                expected = handle.request.prompt_tokens + len(handle.output_tokens) - 1
                assert context == expected
        assert resumed is not None

    def test_recompute_work_is_tracked_separately(self):
        """Replay work is billed in BackendWork like any backend call, but the
        engine tracks how much of it was recompute so analyses can subtract."""
        engine = sim_engine(**CONSTRAINED)
        metrics = engine.run(
            [Request(f"r{i}", prompt_tokens=48, max_new_tokens=40) for i in range(2)]
        )
        assert metrics.total_preemptions() >= 1
        assert engine.recompute_prefill_tokens >= 48
        assert engine.recompute_decode_tokens >= 1
        # Backend totals = first-pass work + recompute work.
        first_pass_decode = engine.backend.work.decode_tokens - engine.recompute_decode_tokens
        assert first_pass_decode == metrics.total_generated_tokens() - len(metrics)

    def test_total_preemptions_unknown_class_raises(self):
        engine = sim_engine(**CONSTRAINED)
        metrics = engine.run([Request("r", prompt_tokens=48, max_new_tokens=4)])
        with pytest.raises(ValueError, match="priority class 7"):
            metrics.total_preemptions(priority=7)
        from repro.serving import ServingMetrics

        assert ServingMetrics().total_preemptions() == 0

    def test_preempted_state_transitions(self):
        state_seen = set()
        engine = sim_engine(**CONSTRAINED)
        handles = [
            engine.submit(Request(f"r{i}", prompt_tokens=48, max_new_tokens=40))
            for i in range(2)
        ]
        while engine.step() is not None:
            for h in handles:
                state_seen.add(h.state.status)
        assert RequestStatus.PREEMPTED in state_seen
        assert all(h.state.is_finished for h in handles)

    def test_preempted_context_length_is_zero(self):
        from repro.serving import RequestState

        state = RequestState(Request("r", prompt_tokens=10, max_new_tokens=5))
        state.record_prefill(0.0)
        state.record_decode_token(1.0)
        assert state.context_length == 11
        state.record_preempt(2.0)
        assert state.status is RequestStatus.PREEMPTED
        assert state.context_length == 0
        assert state.resume_kv_tokens == 11
        assert state.preemptions == 1
        state.record_resume(3.0)
        assert state.status is RequestStatus.DECODING
        assert state.context_length == 11
        assert state.preempted_stall_s == pytest.approx(1.0)  # evicted 2.0 -> 3.0
        assert state.last_preempt_time_s is None

    def test_invalid_preempt_transitions(self):
        from repro.serving import RequestState

        state = RequestState(Request("r", prompt_tokens=10, max_new_tokens=5))
        with pytest.raises(ValueError, match="cannot preempt"):
            state.record_preempt(0.0)
        with pytest.raises(ValueError, match="cannot resume"):
            state.record_resume(0.0)
