"""Tests for the unified InferenceBackend API: real engine vs cost model.

The acceptance-critical property: ``SimulatedBackend`` and ``LServeBackend``
report metrics through the identical ``ServingMetrics`` path — same record
schema and same scheduler decisions for the same request trace — and
multi-sequence serving through ``LServeBackend`` matches per-sequence
``LServeEngine`` runs exactly.
"""

import dataclasses

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
    BackendWork,
    InferenceBackend,
    LServeBackend,
    Request,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
)

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def sparse_config(**overrides) -> LServeConfig:
    base = dict(
        streaming_head_ratio=0.5,
        dynamic_sparsity_enabled=True,
        kv_bits=8,
        physical_page_size=16,
        logical_page_size=4,
        sink_tokens=16,
        local_tokens=32,
        q_block_size=16,
        token_budget=64,
        reuse_interval=4,
    )
    base.update(overrides)
    return LServeConfig(**base)


def make_engine(model, **overrides) -> LServeEngine:
    return LServeEngine(
        model,
        sparse_config(**overrides),
        streaming_kv_heads=STREAMING_MASK,
        num_cache_pages=512,
    )


def prompt(model, seed: int, n: int = 48) -> np.ndarray:
    return (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size


class TestProtocol:
    def test_both_backends_satisfy_protocol(self, model):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        assert isinstance(SimulatedBackend(latency), InferenceBackend)
        assert isinstance(LServeBackend(make_engine(model)), InferenceBackend)

    def test_simulated_backend_lifecycle(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency)
        result = backend.prefill("s", np.zeros(1024, dtype=np.int64))
        assert result.logits is None
        assert result.elapsed_s > 0
        with pytest.raises(ValueError):
            backend.prefill("s", np.zeros(8, dtype=np.int64))
        step = backend.decode_batch(["s"], [0])
        assert step.logits is None
        backend.release("s")
        with pytest.raises(KeyError):
            backend.decode_batch(["s"], [0])

    def test_lserve_backend_returns_real_logits(self, model):
        backend = LServeBackend(make_engine(model))
        result = backend.prefill("s", prompt(model, 0))
        assert result.logits.shape == (model.config.vocab_size,)
        step = backend.decode_batch(["s"], [int(np.argmax(result.logits))])
        assert step.logits.shape == (1, model.config.vocab_size)
        backend.release("s")

    def test_modelled_latency_overrides_wall_clock(self, model):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = LServeBackend(make_engine(model), latency=latency)
        result = backend.prefill("s", prompt(model, 0, n=48))
        assert result.elapsed_s == pytest.approx(latency.prefill_latency(48))
        backend.release("s")


class TestBackendParity:
    """Same request trace, same scheduler decisions, same metrics schema."""

    def trace(self, model):
        return [
            Request.from_prompt(f"r{i}", prompt(model, i), max_new_tokens=4)
            for i in range(3)
        ]

    def run_with(self, backend, model):
        engine = ServingEngine(
            backend, SchedulerConfig(max_batch_size=2, kv_token_capacity=10_000)
        )
        metrics = engine.run(self.trace(model))
        return engine, metrics

    def test_identical_metrics_path_and_scheduler_decisions(self, model):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        sim_engine, sim_metrics = self.run_with(SimulatedBackend(latency), model)
        real_engine, real_metrics = self.run_with(LServeBackend(make_engine(model)), model)

        # Identical scheduler decisions for the same trace.
        assert sim_engine.decision_log == real_engine.decision_log

        # Identical record schema through the same ServingMetrics path.
        assert type(sim_metrics) is type(real_metrics)
        for sim_rec, real_rec in zip(sim_metrics.records, real_metrics.records):
            assert type(sim_rec) is type(real_rec)
            assert sim_rec.request_id == real_rec.request_id
            assert sim_rec.prompt_tokens == real_rec.prompt_tokens
            assert sim_rec.generated_tokens == real_rec.generated_tokens
            sim_fields = {f.name for f in dataclasses.fields(sim_rec)}
            real_fields = {f.name for f in dataclasses.fields(real_rec)}
            assert sim_fields == real_fields

        # Both backends account work through the same BackendWork schema.
        assert isinstance(sim_engine.backend.work, BackendWork)
        assert isinstance(real_engine.backend.work, BackendWork)
        assert sim_engine.backend.work.prefill_tokens == real_engine.backend.work.prefill_tokens
        assert sim_engine.backend.work.decode_tokens == real_engine.backend.work.decode_tokens


class TestMultiSequenceServing:
    """Interleaved multi-sequence serving matches solo per-sequence runs."""

    def test_interleaved_outputs_match_solo_engine(self, model):
        prompts = {f"q{i}": prompt(model, i) for i in range(3)}
        requests = [
            Request.from_prompt(rid, ids, max_new_tokens=5)
            for rid, ids in prompts.items()
        ]
        served = ServingEngine(
            LServeBackend(make_engine(model)),
            SchedulerConfig(max_batch_size=3, kv_token_capacity=10_000),
        )
        served.run(requests)

        for rid, ids in prompts.items():
            solo = make_engine(model).generate(ids, max_new_tokens=5, seq_id=rid)
            assert served.handle(rid).output_tokens == solo

    def test_release_does_not_perturb_other_sequences(self, model):
        # Long prompts so dynamic page selection is active (context > budget).
        ids_a = (np.arange(320) * 3) % model.config.vocab_size
        ids_b = (np.arange(320) * 7 + 1) % model.config.vocab_size

        engine = make_engine(model)
        engine.prefill("a", ids_a)
        engine.prefill("b", ids_b)
        control = make_engine(model)
        control.prefill("b", ids_b)

        for t in range(3):
            engine.decode_batch(["a", "b"], [t, t + 1])
            control.decode("b", t + 1)

        entries = engine.cache.dense_cache.page_selections
        b_keys_before = {k for k in entries if k[0] == "b"}
        b_selections_before = {k: entries[k][0] for k in b_keys_before}
        engine.release("a")
        b_keys_after = {k for k in entries if k[0] == "b"}
        assert b_keys_before == b_keys_after
        for key in b_keys_before:
            assert entries[key][0] is b_selections_before[key]
        assert not any(k[0] == "a" for k in entries)

        # b's continued decode is numerically unaffected by releasing a, and its
        # selected pages match a run that never saw sequence a at all.
        for t in range(3, 6):
            got = engine.decode("b", t + 1)
            ref = control.decode("b", t + 1)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)
        for layer in range(model.config.n_layers):
            got_sel = engine.cache.dense_cache.page_selections[("b", layer)][0]
            ref_sel = control.cache.dense_cache.page_selections[("b", layer)][0]
            for got_pages, ref_pages in zip(
                got_sel.pages_per_kv_head, ref_sel.pages_per_kv_head
            ):
                np.testing.assert_array_equal(got_pages, ref_pages)

    def test_handoff_mid_interval_decodes_like_an_undisturbed_twin(self, model):
        """A sequence migrated between backends past ``token_budget``, two
        queries into a reuse interval, keeps its selections and reuse phase:
        nothing is carried by hand, and every later row equals the twin's."""
        source, target, twin = (LServeBackend(make_engine(model, logical_page_size=16)) for _ in range(3))
        ids = (np.arange(200) * 3) % model.config.vocab_size
        for backend in (source, twin):
            backend.prefill("s", ids)
        tokens = (np.arange(12) * 5 + 1) % model.config.vocab_size
        for t, token in enumerate(tokens):
            if t == 2:
                target.handoff_in("s", source.handoff_out("s"))
            served = source if t < 2 else target
            got = served.decode_batch(["s"], [token]).logits
            assert got.tobytes() == twin.decode_batch(["s"], [token]).logits.tobytes(), t

        def calls(backend):
            return backend.engine.selector.num_selector_calls

        assert calls(source) + calls(target) == calls(twin)
        for backend in (target, twin):
            backend.release("s")
        assert not source.engine.cache.dense_cache.page_selections
        assert not target.engine.cache.dense_cache.page_selections

    def test_length_only_request_rejected_at_submit_by_real_backend(self, model):
        """A Request without prompt_token_ids must not silently generate from a
        placeholder prompt; rejection happens before any admission or compute."""
        engine = ServingEngine(LServeBackend(make_engine(model)))
        with pytest.raises(ValueError, match="prompt_token_ids"):
            engine.submit(Request("no-ids", prompt_tokens=32, max_new_tokens=2))
        assert not engine.has_work  # nothing was enqueued or admitted

    def test_length_only_request_fine_for_simulated_backend(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        engine = ServingEngine(SimulatedBackend(latency))
        metrics = engine.run([Request("r", prompt_tokens=1024, max_new_tokens=4)])
        assert metrics.records[0].generated_tokens == 4

    def test_misaligned_prefill_chunk_size_rejected(self, model):
        # q_block_size and physical_page_size are both 16 in sparse_config.
        with pytest.raises(ValueError, match="multiple of q_block_size"):
            LServeBackend(make_engine(model), prefill_chunk_size=100)
        assert LServeBackend(make_engine(model), prefill_chunk_size=32).prefill_chunk_size == 32

    def test_generate_rejected_on_content_free_backend(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        engine = ServingEngine(SimulatedBackend(latency))
        with pytest.raises(ValueError, match="content-free"):
            engine.generate([5, 7, 9], max_new_tokens=4)

    def test_chunked_prefill_through_backend_matches_single_shot(self, model):
        chunked = LServeBackend(make_engine(model, kv_bits=16), prefill_chunk_size=16)
        single = LServeBackend(make_engine(model, kv_bits=16))
        ids = prompt(model, 4, n=96)
        got = chunked.prefill("s", ids)
        ref = single.prefill("s", ids)
        np.testing.assert_allclose(got.logits, ref.logits, rtol=1e-9, atol=1e-9)
