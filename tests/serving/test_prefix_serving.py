"""Serving-level prefix sharing: unique-KV accounting, byte-identity, OOM preemption.

The acceptance-critical properties:

* requests sharing a prompt prefix through the real ``LServeBackend`` produce
  **byte-identical** outputs to an unshared run — including through a
  preemption round-trip (preempt -> resume re-attaches the cached prefix);
* the scheduler's watermark accounting charges each request only for its
  *unique* KV tokens;
* a backend-reported decode OOM (``DecodeOutOfPagesError``) preempts exactly
  the failed sequences and the run still completes with identical outputs.
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
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
    WorkloadGenerator,
    scenario,
)
from tests.conftest import step_outcomes

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def make_lserve_engine(model, prefix_cache=True, num_pages=512) -> LServeEngine:
    """Aligned, 16-bit config so prefix attach is byte-exact (see engine docs)."""
    return LServeEngine(
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
            prefix_cache_enabled=prefix_cache,
        ),
        streaming_kv_heads=STREAMING_MASK,
        num_cache_pages=num_pages,
    )


def shared_trace(model, n_groups=2, per_group=3, prefix_len=48, tail_len=16, gen=8):
    """Requests in ``n_groups`` groups; each group shares a ``prefix_len`` prefix."""
    vocab = model.config.vocab_size
    requests = []
    arrival = 0.0
    for g in range(n_groups):
        prefix = (np.arange(prefix_len) * (7 + 2 * g)) % vocab
        for i in range(per_group):
            tail = (np.arange(tail_len) * (11 + 3 * i) + g) % vocab
            requests.append(
                Request.from_prompt(
                    f"g{g}-r{i}",
                    np.concatenate([prefix, tail]),
                    max_new_tokens=gen,
                    arrival_time_s=arrival,
                )
            )
            arrival += 0.001
    return requests


def run_trace(model, requests, prefix_cache=True, num_pages=512, **sched):
    engine = make_lserve_engine(model, prefix_cache=prefix_cache, num_pages=num_pages)
    backend = LServeBackend(engine)
    sched.setdefault("max_batch_size", 4)
    sched.setdefault("kv_token_capacity", 16_384)
    serving = ServingEngine(backend, SchedulerConfig(**sched))
    outcomes = step_outcomes(serving, requests)
    outputs = {r.request_id: list(serving.handle(r.request_id).output_tokens) for r in requests}
    return serving, outcomes, serving.metrics, outputs


class TestServingByteIdentity:
    def test_shared_outputs_match_unshared(self, model):
        requests = shared_trace(model)
        cached, _, _, cached_out = run_trace(model, requests, prefix_cache=True)
        plain, _, _, plain_out = run_trace(model, requests, prefix_cache=False)
        cached_backend, plain_backend = cached.backend, plain.backend
        assert cached_out == plain_out
        assert cached_backend.work.prefix_hit_tokens > 0
        # Computed prefill work shrank by exactly the attached tokens.
        assert (
            cached_backend.work.prefill_tokens + cached_backend.work.prefix_hit_tokens
            == plain_backend.work.prefill_tokens
        )

    def test_byte_identity_through_preemption_round_trip(self, model):
        """Sharing + KV pressure + preemption still yields identical tokens."""
        requests = shared_trace(model, n_groups=2, per_group=2, gen=40)
        constrained, _, metrics, out = run_trace(
            model,
            requests,
            prefix_cache=True,
            kv_token_capacity=150,
            kv_high_watermark=140,
            kv_low_watermark=60,
        )
        assert metrics.total_preemptions() > 0
        _, _, _, relaxed_out = run_trace(model, requests, prefix_cache=False)
        assert out == relaxed_out

    def test_resume_reattaches_prefix(self, model):
        """A preempted request's recompute hits its own registered prefix."""
        requests = shared_trace(model, n_groups=1, per_group=2, gen=40)
        serving, outcomes, metrics, _ = run_trace(
            model,
            requests,
            prefix_cache=True,
            kv_token_capacity=150,
            kv_high_watermark=140,
            kv_low_watermark=60,
        )
        assert metrics.total_preemptions() > 0
        resumed = [o for o in outcomes if o.kind == "resume"]
        assert resumed
        # Recompute prefill work was reduced by prefix hits (the resumed
        # request's own prompt was still registered in the index).
        assert serving.recompute_prefill_tokens < metrics.total_preemptions() * 64


class TestUniqueKVAccounting:
    def test_watermarks_charge_unique_tokens_only(self, model):
        requests = shared_trace(model, n_groups=1, per_group=3, gen=4)
        serving, _, _, _ = run_trace(model, requests, prefix_cache=True)
        states = [serving.handle(r.request_id).state for r in requests]
        # First of the group computed everything; the others attached 48 of 64.
        assert states[0].shared_prefix_tokens == 0
        assert all(s.shared_prefix_tokens == 48 for s in states[1:])

    def test_context_length_excludes_shared_prefix(self, model):
        from repro.serving.request import RequestState, RequestStatus

        request = Request("r", prompt_tokens=64, max_new_tokens=8)
        state = RequestState(request=request)
        state.status = RequestStatus.DECODING
        state.generated_tokens = 4
        assert state.context_length == 68
        state.shared_prefix_tokens = 48
        assert state.context_length == 20
        assert state.resume_kv_tokens == 68  # admission stays conservative


class TestDecodeOOMPreemption:
    def test_backend_oom_preempts_failed_sequences_and_completes(self, model):
        """With a page pool far smaller than the token watermarks suggest,
        decode OOM surfaces mid-run; the engine preempts the failed sequences
        and the run completes with byte-identical outputs."""
        requests = shared_trace(model, n_groups=2, per_group=2, gen=12)
        # 17 pages x 16 tokens = 272 KV tokens; the token watermark admits
        # all four 64-token prompts (16 pages), so the first decode iteration
        # exhausts the allocator — the page pool, not the token estimate, is
        # the binding constraint.
        _, outcomes, metrics, out = run_trace(
            model,
            requests,
            prefix_cache=False,
            num_pages=17,
            kv_token_capacity=272,
            kv_high_watermark=272,
        )
        assert metrics.total_preemptions() > 0
        assert any(o.preempted_ids for o in outcomes)
        _, _, _, relaxed_out = run_trace(model, requests, prefix_cache=False)
        assert out == relaxed_out


class TestSimulatedBackendPrefixModel:
    def make_serving(self, prefix_block=None, **sched):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, prefix_block_tokens=prefix_block)
        sched.setdefault("max_batch_size", 8)
        sched.setdefault("kv_token_capacity", 1 << 20)
        return backend, ServingEngine(backend, SchedulerConfig(**sched))

    def test_prefix_hits_reduce_billed_prefill(self, model):
        spec = scenario("shared_prefix")
        requests = WorkloadGenerator(spec, seed=0).generate(24, with_token_ids=True)
        backend, serving = self.make_serving(prefix_block=64)
        metrics = serving.run(requests)
        plain_backend, plain_serving = self.make_serving(prefix_block=None)
        plain_metrics = plain_serving.run(requests)
        assert backend.work.prefix_hit_tokens > 0
        assert backend.work.prefill_tokens < plain_backend.work.prefill_tokens
        assert metrics.mean_ttft_s() < plain_metrics.mean_ttft_s()
        # Scheduler decisions may differ (faster prefills) but all complete.
        assert len(metrics) == len(plain_metrics) == 24

    def test_identical_prompts_hit_all_but_last_block(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, prefix_block_tokens=16)
        tokens = np.arange(64)
        backend.prefill("a", tokens)
        result = backend.prefill("b", tokens)
        # 64 aligned tokens; one token must remain computed -> 48 hit.
        assert result.prefix_hit_tokens == 48
        assert backend.work.prefix_hit_tokens == 48

    def test_invalid_block_size(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        with pytest.raises(ValueError):
            SimulatedBackend(latency, prefix_block_tokens=0)


class TestSharedPrefixWorkload:
    def test_prefixes_shared_within_class_pool(self):
        spec = scenario("shared_prefix")
        requests = WorkloadGenerator(spec, seed=3).generate(40, with_token_ids=True)
        tenant = [r for r in requests if r.prompt_tokens >= 1_600 and r.prompt_tokens < 6_400]
        prefixes = {r.prompt_token_ids[:1_536] for r in tenant}
        # 4 tenants -> at most 4 distinct prefixes across many requests.
        assert len(tenant) > 4
        assert len(prefixes) <= 4

    def test_trace_deterministic(self):
        spec = scenario("shared_prefix")
        a = WorkloadGenerator(spec, seed=9).generate(12, with_token_ids=True)
        b = WorkloadGenerator(spec, seed=9).generate(12, with_token_ids=True)
        assert [r.prompt_token_ids for r in a] == [r.prompt_token_ids for r in b]
        assert [r.arrival_time_s for r in a] == [r.arrival_time_s for r in b]

    def test_lengths_match_length_only_trace(self):
        spec = scenario("shared_prefix")
        with_ids = WorkloadGenerator(spec, seed=5).generate(12, with_token_ids=True)
        without = WorkloadGenerator(spec, seed=5).generate(12, with_token_ids=False)
        assert [r.prompt_tokens for r in with_ids] == [r.prompt_tokens for r in without]
        assert [r.arrival_time_s for r in with_ids] == [r.arrival_time_s for r in without]

    def test_request_ids_unaffected_by_prefix_pool(self):
        """Regression: the prefix token array must not leak into request ids."""
        spec = scenario("shared_prefix")
        requests = WorkloadGenerator(spec, seed=1).generate(6, with_token_ids=True)
        assert [r.request_id for r in requests] == [f"shared_prefix-{i}" for i in range(6)]

    def test_length_only_requests_rejected_with_prefix_model(self):
        """Placeholder prompts would spuriously match each other in the trie."""
        spec = scenario("shared_prefix")
        length_only = WorkloadGenerator(spec, seed=0).generate(4, with_token_ids=False)
        _, serving = self.make_serving_rejecting()
        with pytest.raises(ValueError, match="token content"):
            serving.submit(length_only[0])

    def make_serving_rejecting(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, prefix_block_tokens=64)
        return backend, ServingEngine(
            backend, SchedulerConfig(max_batch_size=4, kv_token_capacity=1 << 20)
        )

    def test_prefix_validation(self):
        from repro.serving.workload import RequestClass

        with pytest.raises(ValueError, match="shared_prefix_tokens"):
            RequestClass(name="bad", shared_prefix_tokens=100, prompt_min=64)
        with pytest.raises(ValueError, match="shared_prefix_pool"):
            RequestClass(name="bad", shared_prefix_tokens=8, prompt_min=64, shared_prefix_pool=0)
