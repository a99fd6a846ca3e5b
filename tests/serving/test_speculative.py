"""Speculative decoding tests: the differential byte-identity acceptance matrix.

The acceptance-critical property: a speculative run — any draft source, any
``speculation_k`` — produces **byte-identical** output token ids to a
non-speculative run of the same seeded trace, because verification replays
the drafts through the real model on the sequence's own pages, rewound
afterwards, and only accepts tokens the request's own seeded sampler would
have produced anyway.

The matrix crosses draft sources (n-gram prompt-lookup, prerecorded scripts)
with sampling modes (greedy / temperature / top-k), then composes speculation
with every serving feature that touches KV state: preemption round trips,
shared-prefix attach, cold-tier demote/restore, disaggregated prefill→decode
hand-off, and cluster replica failure with resubmission.  Every real-backend test ends with the shared
zero-leak audit — rejected draft KV must vanish through the ref-counted
release path, never linger.
"""

import asyncio

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B, tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    DisaggregatedCluster,
    DraftSource,
    KVTieringConfig,
    LServeBackend,
    ModeledDraft,
    NGramDraft,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingCluster,
    ServingEngine,
    SimulatedBackend,
)
from repro.serving.speculative import MAX_NGRAM
from tests.conftest import assert_no_leaked_pages, step_outcomes

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def lserve_config(**overrides) -> LServeConfig:
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


def make_engine(model, num_pages=512, **overrides) -> LServeEngine:
    return LServeEngine(
        model,
        lserve_config(**overrides),
        streaming_kv_heads=STREAMING_MASK,
        num_cache_pages=num_pages,
    )


def make_backend(model, **kwargs) -> LServeBackend:
    tiering = kwargs.pop("tiering", None)
    return LServeBackend(make_engine(model, **kwargs), tiering=tiering)


def prompt_ids(model, seed: int, n: int = 48) -> list[int]:
    return [int(t) for t in (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size]


def trace(model, sampling=None, n=3, max_new_tokens=24):
    sampling = sampling or SamplingParams()
    return [
        Request.from_prompt(
            f"r{i}",
            prompt_ids(model, i),
            max_new_tokens=max_new_tokens,
            sampling=sampling,
            arrival_time_s=0.001 * i,
        )
        for i in range(n)
    ]


def run_serving(backend, requests, draft=None, **sched):
    sched.setdefault("max_batch_size", 4)
    engine = ServingEngine(backend, SchedulerConfig(**sched), draft_source=draft)
    metrics = engine.run(list(requests))
    outputs = {r.request_id: list(engine.handle(r.request_id).output_tokens) for r in requests}
    return engine, metrics, outputs


def with_speculation(sampling: SamplingParams, k: int) -> SamplingParams:
    return SamplingParams(
        temperature=sampling.temperature,
        top_k=sampling.top_k,
        stop_token_ids=sampling.stop_token_ids,
        seed=sampling.seed,
        speculation_k=k,
    )


def reference_outputs(model, sampling, n=3, max_new_tokens=24):
    _, _, outputs = run_serving(make_backend(model), trace(model, sampling, n, max_new_tokens))
    return outputs


SAMPLING_MODES = [
    pytest.param(SamplingParams(), id="greedy"),
    pytest.param(SamplingParams(temperature=0.8, seed=3), id="temperature"),
    pytest.param(SamplingParams(temperature=0.7, top_k=20, seed=9), id="top_k"),
]


class TestDraftSources:
    def test_all_implementations_satisfy_protocol(self):
        assert isinstance(NGramDraft(), DraftSource)
        assert isinstance(ModeledDraft(), DraftSource)
        assert isinstance(PrerecordedDraft({}), DraftSource)

    def test_ngram_copies_most_recent_continuation(self):
        draft = NGramDraft()
        # history ...[7, 8] seen earlier followed by 9, 4.
        out = draft.propose("r", [1, 7, 8, 9, 4, 2], [7, 8], k=2)
        assert out == [9, 4]
        # No earlier occurrence of any suffix n-gram: no proposal.
        assert draft.propose("r", [1, 2, 3], [4], k=2) == []
        assert draft.propose("r", None, [], k=2) == []

    def test_ngram_respects_k(self):
        draft = NGramDraft()
        assert len(draft.propose("r", [5, 1, 2, 3, 4], [5], k=3)) == 3

    def test_ngram_prefers_the_longest_suffix_match_up_to_max_ngram(self):
        draft = NGramDraft()
        # The suffix [1, 2, 3] last re-occurred before 40; [3] alone, before 50.
        history = [1, 2, 3, 40, 9, 3, 50, 1, 2]
        assert draft.propose("r", history, [3], k=1) == [40]
        # Only the last MAX_NGRAM tokens are matched: [7, 2, 3, 6] was followed
        # by 8, but the most recent [2, 3, 6] by 9.
        assert MAX_NGRAM == 3
        history = [7, 2, 3, 6, 8, 2, 3, 6, 9, 7, 2, 3]
        assert draft.propose("r", history, [6], k=1) == [9]

    def test_modeled_draft_is_deterministic_and_rate_accurate(self):
        a = ModeledDraft(acceptance=0.7, seed=4)
        b = ModeledDraft(acceptance=0.7, seed=4)
        drafts = [a.propose("req", None, list(range(i)), k=4) for i in range(50)]
        # A fresh instance (a resubmitted replica) proposes identically.
        assert drafts == [b.propose("req", None, list(range(i)), k=4) for i in range(50)]
        hits = sum(d.count(0) for d in drafts)
        total = sum(len(d) for d in drafts)
        assert abs(hits / total - 0.7) < 0.1
        with pytest.raises(ValueError):
            ModeledDraft(acceptance=1.5)

    def test_prerecorded_slices_at_output_position(self):
        draft = PrerecordedDraft({"r": [10, 11, 12, 13]})
        assert draft.propose("r", None, [], k=2) == [10, 11]
        assert draft.propose("r", None, [10, 11, 12], k=4) == [13]
        assert draft.propose("other", None, [], k=4) == []


class TestCoreEngineSpeculative:
    """decode_speculative/commit_speculative against sequential decode_batch."""

    def reference(self, model, n=6):
        engine = make_engine(model)
        logits = np.asarray(engine.prefill("s", np.asarray(prompt_ids(model, 0))))
        tok = int(np.argmax(logits[-1] if logits.ndim == 2 else logits))
        tokens, rows = [tok], []
        for _ in range(n):
            row = np.asarray(engine.decode("s", tok)).ravel()
            rows.append(row.copy())
            tok = int(np.argmax(row))
            tokens.append(tok)
        return engine, tokens, rows

    def test_chunk_logits_rows_byte_identical(self, model):
        ref_engine, tokens, rows = self.reference(model)
        spec = make_engine(model)
        spec.prefill("s", np.asarray(prompt_ids(model, 0)))
        allocated_before = spec.cache.dense_cache.allocator.num_allocated
        logits, chunk = spec.decode_speculative("s", tokens[:6])
        assert len(chunk) == 6 and logits.shape[0] == 6
        for j in range(6):
            assert np.array_equal(logits[j], rows[j])
        # Rollback by count: the sequence is back at its base length, and it
        # keeps the one page its 48 + 6 tokens opened for the commit.
        assert spec.cache.seq_len("s") == 48
        assert spec.cache.dense_cache.allocator.num_allocated == allocated_before + 1

        spec.commit_speculative([("s", chunk, 6)])
        assert spec.cache.seq_len("s") == ref_engine.cache.seq_len("s")
        # The committed KV continues byte-identically to the sequential run.
        a = np.asarray(ref_engine.decode("s", tokens[6]))
        b = np.asarray(spec.decode("s", tokens[6]))
        assert np.array_equal(a, b)

    def test_partial_commit_matches_sequential(self, model):
        _, tokens, rows = self.reference(model)
        spec = make_engine(model)
        spec.prefill("s", np.asarray(prompt_ids(model, 0)))
        _, chunk = spec.decode_speculative("s", tokens[:6])
        spec.commit_speculative([("s", chunk, 3)])
        # Context is now base+3; decoding the token ref row 3 consumed matches.
        row = np.asarray(spec.decode("s", tokens[3])).ravel()
        assert np.array_equal(row, rows[3])

    def test_commit_validation(self, model):
        spec = make_engine(model)
        spec.prefill("s", np.asarray(prompt_ids(model, 0)))
        _, chunk = spec.decode_speculative("s", [1, 2, 3])
        with pytest.raises(ValueError):
            spec.commit_speculative([("s", chunk, 0)])
        with pytest.raises(ValueError):
            spec.commit_speculative([("s", chunk, 4)])
        with pytest.raises(ValueError):
            spec.commit_speculative([("other", chunk, 1)])
        spec.decode("s", 1)  # advances the sequence: the chunk is now stale
        with pytest.raises(ValueError):
            spec.commit_speculative([("s", chunk, 1)])

    def test_decode_speculative_validation(self, model):
        spec = make_engine(model)
        spec.prefill("s", np.asarray(prompt_ids(model, 0)))
        with pytest.raises(ValueError):
            spec.decode_speculative("s", [])

    def test_release_after_speculation_leaks_nothing(self, model):
        spec = make_engine(model)
        spec.prefill("s", np.asarray(prompt_ids(model, 0)))
        _, chunk = spec.decode_speculative("s", [1, 2, 3, 4])
        spec.commit_speculative([("s", chunk, 2)])
        spec.release("s")
        assert_no_leaked_pages(spec.cache.dense_cache.allocator)


class TestDifferentialMatrix:
    """Speculative output == non-speculative output, across the whole matrix."""

    @pytest.mark.parametrize("sampling", SAMPLING_MODES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_ngram_draft_byte_identical(self, model, sampling, k):
        reference = reference_outputs(model, sampling)
        engine, metrics, outputs = run_serving(
            make_backend(model),
            trace(model, with_speculation(sampling, k)),
            draft=NGramDraft(),
        )
        assert outputs == reference
        assert_no_leaked_pages(
            engine.backend.engine.cache.dense_cache.allocator, backend=engine.backend
        )

    @pytest.mark.parametrize("sampling", SAMPLING_MODES)
    def test_prerecorded_reference_script_accepts_everything(self, model, sampling):
        reference = reference_outputs(model, sampling)
        engine, metrics, outputs = run_serving(
            make_backend(model),
            trace(model, with_speculation(sampling, 4)),
            draft=PrerecordedDraft(reference),
        )
        assert outputs == reference
        assert engine.draft_tokens_proposed > 0
        assert engine.draft_tokens_accepted == engine.draft_tokens_proposed
        assert metrics.draft_acceptance_rate() == 1.0

    def test_corrupted_script_still_byte_identical(self, model):
        sampling = SamplingParams(temperature=0.8, seed=3)
        reference = reference_outputs(model, sampling)
        corrupted = {
            rid: [t if i % 3 else t + 1 for i, t in enumerate(toks)]
            for rid, toks in reference.items()
        }
        engine, metrics, outputs = run_serving(
            make_backend(model),
            trace(model, with_speculation(sampling, 4)),
            draft=PrerecordedDraft(corrupted),
        )
        assert outputs == reference
        assert 0.0 < metrics.draft_acceptance_rate() < 1.0

    @pytest.mark.parametrize("at", [2, 3, 5])
    def test_stop_token_inside_accepted_chunk(self, model, at):
        """The first verify emits tokens 1-5 of ``r0``: a stop at token 2 or 3
        ends the chunk there, though the script's drafts after it still
        match; at token 5 it is the chunk's last row."""
        reference = reference_outputs(model, SamplingParams())
        stop = reference["r0"][at]
        stopped = reference_outputs(model, SamplingParams(stop_token_ids=(stop,)))
        sampling = SamplingParams(stop_token_ids=(stop,), speculation_k=4)
        _, _, outputs = run_serving(
            make_backend(model), trace(model, sampling), draft=PrerecordedDraft(reference)
        )
        assert outputs == stopped
        assert outputs["r0"][-1] == stop and len(outputs["r0"]) <= at + 1

    def test_max_new_tokens_never_overshoots(self, model):
        reference = reference_outputs(model, SamplingParams(), max_new_tokens=10)
        _, _, outputs = run_serving(
            make_backend(model),
            trace(model, with_speculation(SamplingParams(), 7), max_new_tokens=10),
            draft=PrerecordedDraft(reference),
        )
        assert outputs == reference
        assert all(len(toks) == 10 for toks in outputs.values())

    def test_mixed_speculative_and_plain_batch(self, model):
        """Spec and non-spec requests in one batch both match their references."""
        reference = reference_outputs(model, SamplingParams(), n=4)
        requests = trace(model, SamplingParams(), n=4)
        spec_sampling = with_speculation(SamplingParams(), 4)
        requests[0] = Request.from_prompt(
            "r0", prompt_ids(model, 0), max_new_tokens=24, sampling=spec_sampling
        )
        requests[2] = Request.from_prompt(
            "r2",
            prompt_ids(model, 2),
            max_new_tokens=24,
            sampling=spec_sampling,
            arrival_time_s=0.002,
        )
        engine, _, outputs = run_serving(
            make_backend(model), requests, draft=PrerecordedDraft(reference)
        )
        assert outputs == reference
        assert engine.handle("r0").draft_tokens_accepted > 0
        assert engine.handle("r1").draft_tokens_proposed == 0


class TestCompositionMatrix:
    """Speculation composed with preemption, prefix sharing, tiering, disagg."""

    CONSTRAINED = dict(
        max_batch_size=4, kv_token_capacity=110, kv_high_watermark=100, kv_low_watermark=60
    )

    def test_preemption_round_trip_byte_identical(self, model):
        sampling = SamplingParams()
        reference = reference_outputs(model, sampling, n=2, max_new_tokens=40)
        engine, metrics, outputs = run_serving(
            make_backend(model),
            trace(model, with_speculation(sampling, 4), n=2, max_new_tokens=40),
            draft=PrerecordedDraft(reference),
            **self.CONSTRAINED,
        )
        assert metrics.total_preemptions() >= 1
        assert outputs == reference
        assert_no_leaked_pages(
            engine.backend.engine.cache.dense_cache.allocator, backend=engine.backend
        )

    def test_tiering_demote_restore_byte_identical(self, model):
        reference = reference_outputs(model, SamplingParams(), n=5)
        engine, metrics, outputs = run_serving(
            LServeBackend(make_engine(model), tiering=KVTieringConfig()),
            trace(model, with_speculation(SamplingParams(), 4), n=5),
            draft=PrerecordedDraft(reference),
            **self.CONSTRAINED,
        )
        assert metrics.total_demotions() >= 1
        assert outputs == reference
        assert_no_leaked_pages(
            engine.backend.engine.cache.dense_cache.allocator,
            backend=engine.backend,
            cold_store=engine.cold_store,
        )

    def test_shared_prefix_attach_byte_identical(self, model):
        """Requests sharing a cached prefix still verify/accept byte-exactly."""
        vocab = model.config.vocab_size
        prefix = [int(t) for t in (np.arange(48) * 7) % vocab]

        def shared_requests(sampling):
            return [
                Request.from_prompt(
                    f"g-r{i}",
                    prefix + [int(t) for t in (np.arange(16) * (11 + 3 * i)) % vocab],
                    max_new_tokens=16,
                    sampling=sampling,
                    arrival_time_s=0.001 * i,
                )
                for i in range(3)
            ]

        def shared_backend():
            return LServeBackend(
                make_engine(model, kv_bits=16, prefix_cache_enabled=True)
            )

        _, _, reference = run_serving(shared_backend(), shared_requests(SamplingParams()))
        backend = shared_backend()
        engine, _, outputs = run_serving(
            backend,
            shared_requests(with_speculation(SamplingParams(), 4)),
            draft=PrerecordedDraft(reference),
        )
        assert outputs == reference
        assert backend.work.prefix_hit_tokens > 0

    def test_disaggregated_handoff_byte_identical(self, model):
        requests = trace(model, with_speculation(SamplingParams(), 4), n=4)
        reference = reference_outputs(model, SamplingParams(), n=4)

        async def main():
            cluster = DisaggregatedCluster(
                prefill_backends=[make_backend(model)],
                decode_backends=[make_backend(model), make_backend(model)],
                scheduler_config=SchedulerConfig(max_batch_size=4),
                decode_draft_sources=[
                    PrerecordedDraft(reference),
                    PrerecordedDraft(reference),
                ],
            )
            async with cluster:
                handles = await cluster.replay(requests)
                await cluster.drain()
            return cluster, {h.request_id: list(h.output_tokens) for h in handles}

        cluster, outputs = asyncio.run(main())
        assert outputs == reference
        assert cluster.migrations_total == len(requests)
        merged = cluster.live_gauges()
        assert merged.draft_tokens_accepted > 0
        for replica in cluster.replicas:
            backend = replica.engine.engine.backend
            assert_no_leaked_pages(
                backend.engine.cache.dense_cache.allocator, backend=backend
            )

    def test_replica_failure_resubmits_byte_identically(self, model):
        """A speculative decode replica dies mid-stream; the survivor (with its
        own draft source) finishes every request byte-identically."""
        reference = reference_outputs(model, SamplingParams(), n=4, max_new_tokens=8)
        requests = trace(model, with_speculation(SamplingParams(), 4), n=4, max_new_tokens=8)

        class SpecFlakyBackend:
            """Forwards everything; dies on the Nth speculative chunk."""

            produces_logits = True

            def __init__(self, inner, fail_at_spec):
                self._inner = inner
                self._fail_at = fail_at_spec
                self._specs = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def decode_speculative_batch(self, requests):
                self._specs += len(requests)
                if self._specs >= self._fail_at:
                    raise RuntimeError("injected replica fault")
                return self._inner.decode_speculative_batch(requests)

        async def main():
            cluster = ServingCluster(
                [
                    SpecFlakyBackend(make_backend(model), fail_at_spec=3),
                    make_backend(model),
                ],
                SchedulerConfig(max_batch_size=4),
                routing="round_robin",
                draft_sources=[PrerecordedDraft(reference), PrerecordedDraft(reference)],
            )
            async with cluster:
                handles = [cluster.submit(r) for r in requests]
                outputs = {h.request_id: await h.result() for h in handles}
                await cluster.drain()
            return cluster, outputs

        cluster, outputs = asyncio.run(main())
        assert cluster.replica_health()["replica-0"] is False
        assert cluster.total_resubmissions >= 1
        assert outputs == reference


class TestOOMFallbacks:
    """Verify page exhaustion degrades gracefully, never corrupts (a commit allocates nothing)."""

    def test_chunk_oom_falls_back_to_plain_decode(self, model):
        reference = reference_outputs(model, SamplingParams())
        backend = make_backend(model)
        real_spec_batch = backend.decode_speculative_batch

        calls = {"n": 0}

        def flaky_spec_batch(requests):
            # Fail one member per odd call: the engine must fall that member
            # back to a plain step and retry the survivors.
            calls["n"] += 1
            if calls["n"] % 2:
                raise DecodeOutOfPagesError([requests[0][0]], 0)
            return real_spec_batch(requests)

        backend.decode_speculative_batch = flaky_spec_batch
        engine, _, outputs = run_serving(
            backend,
            trace(model, with_speculation(SamplingParams(), 4)),
            draft=PrerecordedDraft(reference),
        )
        assert calls["n"] > 0
        assert outputs == reference
        assert_no_leaked_pages(
            backend.engine.cache.dense_cache.allocator, backend=backend
        )


class TestObservability:
    """Acceptance bookkeeping: handles, outcomes, gauges, Prometheus, records."""

    def run_spec(self, model, k=4):
        reference = reference_outputs(model, SamplingParams())
        engine = ServingEngine(
            make_backend(model),
            SchedulerConfig(max_batch_size=4),
            draft_source=PrerecordedDraft(reference),
        )
        requests = trace(model, with_speculation(SamplingParams(), k))
        return engine, step_outcomes(engine, requests)

    def test_step_outcomes_carry_draft_counts(self, model):
        engine, outcomes = self.run_spec(model)
        assert sum(o.draft_proposed for o in outcomes) == engine.draft_tokens_proposed
        assert sum(o.draft_accepted for o in outcomes) == engine.draft_tokens_accepted
        assert engine.draft_tokens_accepted > 0
        # Every verify is counted on the request that took it.
        verified = [r.spec_decode_steps for r in engine.metrics.records]
        assert any(verified) and sum(verified) == engine.spec_decode_steps

    def test_handle_counters_and_records(self, model):
        engine, _ = self.run_spec(model)
        handle = engine.handle("r0")
        assert handle.draft_tokens_proposed > 0
        assert handle.draft_tokens_accepted > 0
        assert handle.spec_decode_steps > 0
        record = next(r for r in engine.metrics.records if r.request_id == "r0")
        assert record.draft_tokens_proposed == handle.draft_tokens_proposed
        assert record.draft_tokens_accepted == handle.draft_tokens_accepted
        assert record.spec_decode_steps == handle.spec_decode_steps
        assert record.draft_acceptance_rate == 1.0
        assert record.spec_effective_tokens_per_step > 1.0

    def test_metrics_aggregates(self, model):
        engine, _ = self.run_spec(model)
        metrics = engine.metrics
        assert metrics.total_draft_tokens_proposed() == engine.draft_tokens_proposed
        assert metrics.total_draft_tokens_accepted() == engine.draft_tokens_accepted
        assert metrics.draft_acceptance_rate() == 1.0
        assert metrics.mean_effective_tokens_per_step() > 1.0

    def test_metrics_defaults_without_speculation(self, model):
        engine, _, _ = run_serving(make_backend(model), trace(model, SamplingParams()))
        assert engine.metrics.total_draft_tokens_proposed() == 0
        assert np.isnan(engine.metrics.draft_acceptance_rate())
        assert engine.metrics.mean_effective_tokens_per_step() == 0.0
        gauges = engine.live_gauges()
        assert gauges.draft_acceptance_rate == 0.0
        assert gauges.spec_effective_tokens_per_step == 0.0

    def test_gauges_and_prometheus_series(self, model):
        engine, _ = self.run_spec(model)
        gauges = engine.live_gauges()
        assert gauges.draft_tokens_proposed == engine.draft_tokens_proposed
        assert gauges.draft_acceptance_rate == 1.0
        assert gauges.spec_effective_tokens_per_step > 1.0
        body = gauges.to_prometheus(prefix="repro_serving")
        assert "repro_serving_draft_tokens_proposed" in body
        assert "repro_serving_draft_acceptance_rate" in body
        assert "repro_serving_spec_effective_tokens_per_step" in body

    def test_cluster_gauge_merge_sums_spec_counters(self, model):
        from repro.serving import merge_live_gauges

        engine, _ = self.run_spec(model)
        g = engine.live_gauges()
        merged = merge_live_gauges([g, g])
        assert merged.draft_tokens_proposed == 2 * g.draft_tokens_proposed
        assert merged.draft_tokens_accepted == 2 * g.draft_tokens_accepted
        assert merged.spec_decode_steps == 2 * g.spec_decode_steps
        assert merged.draft_acceptance_rate == g.draft_acceptance_rate


class TestSimulatedSpeculation:
    """The cost-model backend models speculation: fewer steps, shorter makespan."""

    def sim_run(self, draft=None, k=0):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        sampling = SamplingParams(speculation_k=k)
        requests = [
            Request(
                f"r{i}",
                prompt_tokens=256,
                max_new_tokens=64,
                sampling=sampling,
                arrival_time_s=0.01 * i,
            )
            for i in range(4)
        ]
        engine = ServingEngine(
            SimulatedBackend(latency),
            SchedulerConfig(max_batch_size=4),
            draft_source=draft,
        )
        metrics = engine.run(requests)
        return engine, metrics

    def test_modeled_draft_shrinks_virtual_makespan(self):
        _, plain = self.sim_run()
        engine, spec = self.sim_run(draft=ModeledDraft(acceptance=0.9, seed=1), k=4)
        assert engine.draft_tokens_accepted > 0
        assert spec.makespan_s() < plain.makespan_s()
        assert len(spec) == len(plain)
        # All requests still generate exactly max_new_tokens.
        assert spec.total_generated_tokens() == plain.total_generated_tokens()

    def test_modeled_acceptance_tracks_configured_rate(self):
        engine, _ = self.sim_run(draft=ModeledDraft(acceptance=0.75, seed=2), k=4)
        rate = engine.draft_tokens_accepted / engine.draft_tokens_proposed
        # Chunked acceptance (stop at first miss) biases below the raw
        # per-token rate; it must land in a sane band, not at either edge.
        assert 0.3 < rate <= 0.95
