"""Tests for the NumPy TinyTransformer and its KV cache."""

import numpy as np
import pytest

from repro.model.transformer import SimpleKVCache, TinyTransformer, rms_norm
from repro.model.weights import SyntheticWeights


class TestSyntheticWeights:
    def test_deterministic_for_seed(self, tiny_config):
        w1 = SyntheticWeights(tiny_config, seed=3)
        w2 = SyntheticWeights(tiny_config, seed=3)
        np.testing.assert_array_equal(w1.layers[0].wq, w2.layers[0].wq)

    def test_different_seeds_differ(self, tiny_config):
        w1 = SyntheticWeights(tiny_config, seed=1)
        w2 = SyntheticWeights(tiny_config, seed=2)
        assert not np.allclose(w1.layers[0].wq, w2.layers[0].wq)

    def test_parameter_count_positive(self, tiny_config):
        assert SyntheticWeights(tiny_config).num_parameters() > 0


class TestSimpleKVCache:
    def test_append_and_get(self, rng):
        cache = SimpleKVCache(n_layers=2)
        k = rng.normal(size=(3, 2, 4))
        v = rng.normal(size=(3, 2, 4))
        cache.append(0, k, v)
        cache.append(1, k, v)
        k_out, v_out = cache.get(0)
        np.testing.assert_array_equal(k_out, k)
        assert cache.seq_len() == 3

    def test_concatenates_appends(self, rng):
        cache = SimpleKVCache(n_layers=1)
        k1 = rng.normal(size=(2, 1, 4))
        k2 = rng.normal(size=(1, 1, 4))
        cache.append(0, k1, k1)
        cache.append(0, k2, k2)
        k_out, _ = cache.get(0)
        assert k_out.shape == (3, 1, 4)
        assert cache.seq_len() == 3

    def test_empty_layer_raises(self):
        cache = SimpleKVCache(n_layers=1)
        with pytest.raises(ValueError):
            cache.get(0)

    def test_empty_seq_len_zero(self):
        assert SimpleKVCache(n_layers=1).seq_len() == 0

    def test_shape_mismatch(self, rng):
        cache = SimpleKVCache(n_layers=1)
        with pytest.raises(ValueError):
            cache.append(0, rng.normal(size=(2, 1, 4)), rng.normal(size=(3, 1, 4)))


class TestTinyTransformer:
    def test_prefill_shapes(self, tiny_model, tiny_config):
        tokens = np.array([5, 6, 7, 8])
        logits, cache = tiny_model.prefill(tokens)
        assert logits.shape == (4, tiny_config.vocab_size)
        assert cache.seq_len() == 4

    def test_decode_matches_prefill(self, tiny_model):
        """Token-by-token decoding must reproduce single-shot prefill logits."""
        tokens = np.array([3, 14, 15, 92, 65])
        full_logits, _ = tiny_model.prefill(tokens)
        cache = tiny_model.new_cache()
        step_logits = []
        for t in tokens:
            step_logits.append(tiny_model.forward(np.array([t]), cache)[0])
        np.testing.assert_allclose(np.stack(step_logits), full_logits, rtol=1e-8, atol=1e-8)

    def test_chunked_prefill_matches(self, tiny_model):
        tokens = np.array([1, 2, 3, 4, 5, 6])
        full_logits, _ = tiny_model.prefill(tokens)
        cache = tiny_model.new_cache()
        l1 = tiny_model.forward(tokens[:3], cache)
        l2 = tiny_model.forward(tokens[3:], cache)
        np.testing.assert_allclose(np.concatenate([l1, l2]), full_logits, rtol=1e-8, atol=1e-8)

    def test_generate_deterministic_greedy(self, tiny_model):
        out1 = tiny_model.generate(np.array([1, 2, 3]), max_new_tokens=5)
        out2 = tiny_model.generate(np.array([1, 2, 3]), max_new_tokens=5)
        assert out1 == out2
        assert len(out1) == 5

    def test_generate_zero_tokens(self, tiny_model):
        assert tiny_model.generate(np.array([1, 2]), max_new_tokens=0) == []

    def test_generate_stop_token(self, tiny_model):
        out = tiny_model.generate(np.array([1, 2, 3]), max_new_tokens=8, stop_token=None)
        stop = out[1]
        out_stopped = tiny_model.generate(
            np.array([1, 2, 3]), max_new_tokens=8, stop_token=stop
        )
        assert out_stopped[-1] == stop
        assert len(out_stopped) <= len(out)

    def test_rejects_out_of_vocab(self, tiny_model, tiny_config):
        with pytest.raises(ValueError):
            tiny_model.prefill(np.array([tiny_config.vocab_size + 1]))

    def test_rejects_empty_input(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.prefill(np.array([], dtype=np.int64))

    def test_custom_attention_backend_is_used(self, tiny_config):
        calls = []

        def recording_backend(layer, q, k, v, n_new):
            calls.append((layer, q.shape[0], k.shape[0]))
            from repro.attention.dense import dense_attention
            return dense_attention(q, k, v, causal=True)

        model = TinyTransformer(tiny_config, seed=1, attention_backend=recording_backend)
        model.prefill(np.array([1, 2, 3]))
        assert len(calls) == tiny_config.n_layers
        assert calls[0] == (0, 3, 3)

    def test_logits_finite(self, tiny_model):
        logits, _ = tiny_model.prefill(np.array([10, 20, 30]))
        assert np.all(np.isfinite(logits))


def test_rms_norm_equals_the_mean_expression(rng):
    """``np.add.reduce(...) / n`` is ``np.mean`` without the wrapper: the same bytes."""
    weight = rng.normal(size=64)
    for shape in ((1, 64), (16, 64), (300, 64)):
        x = rng.normal(size=shape) * 3.0
        expected = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6) * weight
        np.testing.assert_array_equal(rms_norm(x, weight), expected)
