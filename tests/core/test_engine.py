"""Integration tests for the LServe engine."""

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from tests.oracle import ReferenceTransformer


@pytest.fixture(scope="module")
def model():
    return ReferenceTransformer(tiny_model_config(), seed=11)


def dense_config(**overrides) -> LServeConfig:
    base = dict(
        streaming_head_ratio=0.0,
        dynamic_sparsity_enabled=False,
        kv_bits=16,
        physical_page_size=16,
        logical_page_size=16,
        sink_tokens=16,
        local_tokens=16,
        q_block_size=16,
        token_budget=64,
    )
    base.update(overrides)
    return LServeConfig(**base)


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


class TestDenseEquivalence:
    def test_prefill_matches_reference_model(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=256)
        tokens = np.arange(40) % model.config.vocab_size
        engine_logits = engine.prefill("s", tokens)
        ref_logits, _ = model.prefill(tokens)
        np.testing.assert_allclose(engine_logits, ref_logits, rtol=1e-7, atol=1e-7)

    def test_decode_matches_reference_model(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=256)
        tokens = np.arange(24) % model.config.vocab_size
        engine.prefill("s", tokens)
        cache = model.new_cache()
        model.forward(tokens, cache)
        for t in [5, 9, 13]:
            ref = model.forward(np.array([t]), cache)[0]
            got = engine.decode("s", t)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)


def hybrid_reference_backend(streaming_query_mask, page_size, q_block, sink_blocks, local_blocks):
    """Reference attention applying LServe's *block-granular* Λ mask to
    streaming heads and full causal attention to dense heads.

    Prefill queries are tiled in ``q_block``-sized blocks; decode queries
    (``n_new == 1``) use a 1-row tile, matching the engine's TQ geometry.
    """
    from repro.attention.dense import dense_attention
    from repro.attention.masks import block_streaming_mask, mask_from_block_mask

    def backend(layer, q, k, v, n_new):
        n_kv = k.shape[0]
        tile = q_block if n_new > 1 else 1
        block_mask = block_streaming_mask(
            n_new, n_kv, tile, page_size, sink_blocks=sink_blocks, local_blocks=local_blocks
        )
        lam = mask_from_block_mask(block_mask, n_new, n_kv, tile, page_size, causal=True)
        full = dense_attention(q, k, v, causal=True)
        stream = dense_attention(q, k, v, mask=lam)
        return np.where(streaming_query_mask[None, :, None], stream, full)

    return backend


class TestSparseServing:
    def test_prefill_matches_masked_reference(self, model):
        """Engine prefill == reference model with per-head Λ / causal masks."""
        tokens = (np.arange(128) * 7) % model.config.vocab_size
        engine = LServeEngine(
            model,
            sparse_config(kv_bits=16),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine_logits = engine.prefill("s", tokens)
        ref_model = ReferenceTransformer(
            model.config,
            weights=model.weights,
            attention_backend=hybrid_reference_backend(
                engine.streaming_query_heads,
                page_size=16, q_block=16, sink_blocks=1, local_blocks=2,
            ),
        )
        ref_logits, _ = ref_model.prefill(tokens)
        np.testing.assert_allclose(engine_logits, ref_logits, rtol=1e-6, atol=1e-6)

    def test_decode_matches_masked_reference_when_budget_covers_context(self, model):
        """With the token budget covering the whole context, decode equals the
        hybrid (streaming + dense) reference exactly."""
        tokens = (np.arange(96) * 5) % model.config.vocab_size
        engine = LServeEngine(
            model,
            sparse_config(kv_bits=16, token_budget=4096),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine.prefill("s", tokens)
        ref_model = ReferenceTransformer(
            model.config,
            weights=model.weights,
            attention_backend=hybrid_reference_backend(
                engine.streaming_query_heads,
                page_size=16, q_block=16, sink_blocks=1, local_blocks=2,
            ),
        )
        cache = ref_model.new_cache()
        ref_model.forward(tokens, cache)
        for t in [3, 8, 21]:
            ref = ref_model.forward(np.array([t]), cache)[0]
            got = engine.decode("s", t)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    def test_decode_uses_constant_kv_budget(self, model):
        tokens = (np.arange(320) * 3) % model.config.vocab_size
        engine = LServeEngine(
            model,
            sparse_config(token_budget=64),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine.prefill("s", tokens)
        for t in range(8):
            engine.decode("s", t + 1)
        stats = engine.stats
        assert stats.decode_steps == 8
        # Dense heads read far fewer tokens than the full context.
        assert stats.decode_kv_compression < 0.5
        # Streaming heads touch only sink + local tokens.
        assert stats.streaming_tokens_attended <= 8 * model.config.n_layers * (16 + 32)

    def test_prefill_block_sparsity_recorded(self, model):
        tokens = (np.arange(256) * 5) % model.config.vocab_size
        engine = LServeEngine(
            model,
            sparse_config(),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine.prefill("s", tokens)
        assert 0.2 < engine.stats.prefill_block_sparsity < 0.6

    def test_reusable_selector_invoked_sparsely(self, model):
        tokens = (np.arange(200) * 3) % model.config.vocab_size
        engine = LServeEngine(
            model,
            sparse_config(reuse_interval=4, token_budget=64),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine.prefill("s", tokens)
        for t in range(8):
            engine.decode("s", t + 1)
        assert engine.selector.num_queries > engine.selector.num_selector_calls
        assert engine.selector.overhead_reduction() > 1.5

    def test_generate_runs_end_to_end(self, model):
        engine = LServeEngine(
            model,
            sparse_config(),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        out = engine.generate(np.arange(64), max_new_tokens=4, seq_id="gen")
        assert len(out) == 4
        assert all(0 <= t < model.config.vocab_size for t in out)

    def test_generate_honors_zero_and_small_budgets(self, model):
        engine = LServeEngine(
            model,
            sparse_config(),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        assert engine.generate(np.arange(32), max_new_tokens=0, seq_id="z") == []
        assert len(engine.generate(np.arange(32), max_new_tokens=1, seq_id="one")) == 1
        with pytest.raises(ValueError):
            engine.generate(np.arange(32), max_new_tokens=-1, seq_id="neg")

    def test_generate_stops_at_eos(self, model):
        from repro.serving.sampling import SamplingParams

        engine = LServeEngine(
            model,
            sparse_config(),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        free = engine.generate(np.arange(64), max_new_tokens=6, seq_id="free")
        stop = free[1]  # a token the greedy run emits mid-stream
        engine2 = LServeEngine(
            model,
            sparse_config(),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        out = engine2.generate(
            np.arange(64),
            max_new_tokens=6,
            seq_id="stopped",
            sampling=SamplingParams(stop_token_ids=(stop,)),
        )
        assert out == free[:2]  # the stop token is kept, generation halts

    @pytest.mark.parametrize("n_tokens", [128, 129, 97])
    def test_chunked_prefill_matches_single_shot(self, model, monkeypatch, n_tokens):
        """Prefill row chunks of 32 against one chunk of every row.

        129 and 97 end in a one-row chunk: it must take the same GEMM route
        (``repro.model.transformer._rowwise_matmul``) as the rows of a single-shot prefill."""
        tokens = (np.arange(n_tokens) * 7) % model.config.vocab_size
        single = LServeEngine(
            model,
            sparse_config(kv_bits=16),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        chunked = LServeEngine(
            model,
            sparse_config(kv_bits=16),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        ref = single.prefill("s", tokens)
        monkeypatch.setattr(engine_module, "_PREFILL_ROW_CHUNK", 32)
        got = chunked.prefill("s", tokens)
        np.testing.assert_array_equal(got, ref)
        assert chunked.stats.prefill_tokens == tokens.size
        # Decode after chunked prefill continues from the same state.
        np.testing.assert_array_equal(chunked.decode("s", 3), single.decode("s", 3))

    def test_chunked_prefill_dense_matches_reference_model(self, model, monkeypatch):
        tokens = np.arange(72) % model.config.vocab_size
        engine = LServeEngine(model, dense_config(), num_cache_pages=256)
        monkeypatch.setattr(engine_module, "_PREFILL_ROW_CHUNK", 16)
        logits = engine.prefill("s", tokens)
        ref_logits, _ = model.prefill(tokens)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-6, atol=1e-6)

    def test_decode_batch_matches_sequential_decode(self, model):
        tokens_a = (np.arange(96) * 5) % model.config.vocab_size
        tokens_b = (np.arange(96) * 11 + 2) % model.config.vocab_size

        def fresh():
            return LServeEngine(
                model,
                sparse_config(kv_bits=16, token_budget=4096),
                streaming_kv_heads=np.array([False, True]),
                num_cache_pages=512,
            )

        batched = fresh()
        batched.prefill("a", tokens_a)
        batched.prefill("b", tokens_b)
        solo = fresh()
        solo.prefill("a", tokens_a)
        solo.prefill("b", tokens_b)
        for t in range(4):
            got = batched.decode_batch(["a", "b"], [t, t + 1])
            ref_a = solo.decode("a", t)
            ref_b = solo.decode("b", t + 1)
            np.testing.assert_allclose(got[0], ref_a, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(got[1], ref_b, rtol=1e-9, atol=1e-9)
        assert batched.stats.decode_steps == 8

    def test_decode_batch_validation(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=256)
        engine.prefill("a", np.arange(16))
        with pytest.raises(ValueError):
            engine.decode_batch([], [])
        with pytest.raises(ValueError):
            engine.decode_batch(["a"], [1, 2])
        with pytest.raises(ValueError):
            engine.decode_batch(["a", "a"], [1, 2])

    def test_memory_savings_vs_dense(self, model):
        tokens = np.arange(256) % model.config.vocab_size
        dense = LServeEngine(model, dense_config(), num_cache_pages=512)
        sparse = LServeEngine(
            model,
            sparse_config(kv_bits=4),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        dense.prefill("a", tokens)
        sparse.prefill("a", tokens)
        assert sparse.cache.memory_bytes_model() < dense.cache.memory_bytes_model()


class TestEngineLifecycleAndValidation:
    def test_prefill_twice_rejected(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        engine.prefill("s", np.arange(16))
        with pytest.raises(ValueError):
            engine.prefill("s", np.arange(16))

    def test_decode_before_prefill_rejected(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        engine.add_sequence("s")
        with pytest.raises(ValueError):
            engine.decode("s", 1)

    def test_release_frees_pages(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        engine.prefill("s", np.arange(48))
        assert engine.cache.dense_cache.allocator.num_allocated > 0
        engine.release("s")
        assert engine.cache.dense_cache.allocator.num_allocated == 0

    def test_release_only_evicts_own_selector_entries(self, model):
        engine = LServeEngine(
            model,
            sparse_config(token_budget=64),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        tokens = (np.arange(320) * 3) % model.config.vocab_size
        engine.prefill("a", tokens)
        engine.prefill("b", tokens[::-1].copy())
        engine.decode_batch(["a", "b"], [1, 2])
        entries = engine.cache.dense_cache.page_selections
        assert any(k[0] == "a" for k in entries)
        assert any(k[0] == "b" for k in entries)
        engine.release("a")
        assert not any(k[0] == "a" for k in entries)
        assert any(k[0] == "b" for k in entries)

    @pytest.mark.parametrize("bad", [-1, "vocab"])
    def test_out_of_range_token_ids_rejected_before_any_state(self, model, bad):
        """The embedding lookup would fault on ``vocab`` and silently wrap
        ``-1``; every entry point refuses both before it adds a sequence
        or reserves a page."""
        bad = model.config.vocab_size if bad == "vocab" else bad
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        allocator = engine.cache.dense_cache.allocator
        with pytest.raises(ValueError, match="token ids"):
            engine.prefill("fresh", np.array([1, bad, 2]))
        assert not engine.cache.has_sequence("fresh")
        assert allocator.num_allocated == 0

        engine.prefill("s", np.arange(40))
        before = allocator.num_allocated
        with pytest.raises(ValueError, match="token ids"):
            engine.decode_batch(["s"], [bad])
        with pytest.raises(ValueError, match="token ids"):
            engine.decode_speculative_batch([("s", [1, bad])])
        assert allocator.num_allocated == before
        assert engine.context_length("s") == 40

    def test_empty_prompt_rejected(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        with pytest.raises(ValueError):
            engine.prefill("s", np.array([], dtype=np.int64))

    def test_bad_head_mask_shape(self, model):
        with pytest.raises(ValueError):
            LServeEngine(
                model, sparse_config(), streaming_kv_heads=np.array([True, False, True])
            )

    def test_automatic_head_classification(self, model):
        engine = LServeEngine(
            model,
            sparse_config(streaming_head_ratio=0.5),
            calibration_tokens=np.arange(64) % model.config.vocab_size,
            num_cache_pages=256,
        )
        assert engine.streaming_kv_heads.sum() == 1  # half of 2 KV heads
        assert engine.streaming_query_heads.sum() == 2

    def test_context_length_tracking(self, model):
        engine = LServeEngine(model, dense_config(), num_cache_pages=128)
        engine.prefill("s", np.arange(20))
        assert engine.context_length("s") == 20
        engine.decode("s", 3)
        assert engine.context_length("s") == 21


class TestSelectionsTravelWithTheSequence:
    """Cached page selections and their reuse phase move with the sequence's pages.

    Geometry: one page-sized logical page, so inside a page only the reuse
    interval (4) refreshes a selection; a 200-token prompt is past the
    64-token budget.  The first decode scores, the next three reuse.
    """

    @staticmethod
    def prefilled(model, seq_id="s"):
        engine = LServeEngine(
            model,
            sparse_config(logical_page_size=16),
            streaming_kv_heads=np.array([False, True]),
            num_cache_pages=512,
        )
        engine.prefill(seq_id, (np.arange(200) * 3) % model.config.vocab_size)
        return engine

    def test_handoff_mid_interval_decodes_like_an_undisturbed_twin(self, model):
        moved, twin = self.prefilled(model), self.prefilled(model)
        tokens = (np.arange(12) * 5 + 1) % model.config.vocab_size
        for t, token in enumerate(tokens):
            if t == 2:  # two queries into the interval; nothing carried by hand
                moved.handoff_in("s", moved.handoff_out("s"))
            assert moved.decode("s", token).tobytes() == twin.decode("s", token).tobytes(), t
            assert moved.selector.num_selector_calls == twin.selector.num_selector_calls, t
            assert moved.selector.num_queries == twin.selector.num_queries, t

    def test_fork_mid_interval_continues_the_parents_phase(self, model):
        engine = self.prefilled(model)
        tokens = (np.arange(10) * 7 + 2) % model.config.vocab_size
        engine.decode("s", int(tokens[0]))
        engine.decode("s", int(tokens[1]))
        engine.fork_sequence("s", "child")
        for t, token in enumerate(tokens[2:], start=2):
            calls = engine.selector.num_selector_calls
            rows = engine.decode_batch(["s", "child"], [token, token])
            assert rows[0].tobytes() == rows[1].tobytes(), t
            # Parent and child refresh on the same steps: two sequences, two layers.
            assert engine.selector.num_selector_calls - calls in (0, 4), t
        entries = engine.cache.dense_cache.page_selections
        for layer in range(model.config.n_layers):
            assert entries[("child", layer)][1] == entries[("s", layer)][1]
