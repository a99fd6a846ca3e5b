"""Tests for DuoAttention-style head classification."""

import numpy as np
import pytest

from repro.core.head_classifier import (
    classify_heads,
    collect_head_gates,
    optimize_gate_values,
)
from repro.model.configs import tiny_model_config
from repro.model.tokenizer import ToyTokenizer
from repro.model.transformer import TinyTransformer
from tests.oracle import oracle_head_gates

QUICKSTART_PROMPT = "the quick brown fox jumps over the lazy dog " * 24


class TestOptimizeGateValues:
    def test_identical_outputs_give_zero_gate(self, rng):
        out = rng.normal(size=(10, 4, 8))
        gates = optimize_gate_values(out, out.copy())
        np.testing.assert_array_equal(gates, np.zeros(4))

    def test_large_deviation_gives_high_gate(self, rng):
        full = rng.normal(size=(10, 2, 8))
        stream = full.copy()
        stream[:, 1] += 10.0  # head 1 is badly approximated by streaming
        gates = optimize_gate_values(full, stream)
        assert gates[1] > 0.9
        assert gates[1] > gates[0]

    def test_gates_in_unit_interval(self, rng):
        full = rng.normal(size=(6, 5, 4))
        stream = full + rng.normal(scale=0.5, size=full.shape)
        gates = optimize_gate_values(full, stream)
        assert np.all(gates >= 0.0) and np.all(gates <= 1.0)

    def test_penalty_monotone(self, rng):
        full = rng.normal(size=(6, 3, 4))
        stream = full + rng.normal(scale=0.3, size=full.shape)
        low = optimize_gate_values(full, stream, penalty=1e-3)
        high = optimize_gate_values(full, stream, penalty=1.0)
        assert np.all(high <= low + 1e-12)

    def test_validation(self, rng):
        full = rng.normal(size=(4, 2, 3))
        with pytest.raises(ValueError):
            optimize_gate_values(full, full[:, :1])
        with pytest.raises(ValueError):
            optimize_gate_values(full, full, penalty=0.0)


class TestClassifyHeads:
    def test_half_streaming(self):
        gates = np.array([[0.1, 0.9, 0.2, 0.8]])
        result = classify_heads(gates, sparsity=0.5)
        np.testing.assert_array_equal(result.streaming_mask, [[True, False, True, False]])

    def test_zero_and_full_sparsity(self):
        gates = np.array([0.3, 0.6])
        assert not classify_heads(gates, 0.0).streaming_mask.any()
        assert classify_heads(gates, 1.0).streaming_mask.all()

    def test_tied_gates_still_hit_target(self):
        gates = np.full((2, 4), 0.5)
        result = classify_heads(gates, sparsity=0.5)
        assert result.streaming_mask.sum() == 4

    def test_lowest_gates_become_streaming(self):
        gates = np.array([0.05, 0.5, 0.95, 0.4])
        result = classify_heads(gates, sparsity=0.25)
        np.testing.assert_array_equal(result.streaming_mask, [[True, False, False, False]])

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            classify_heads(np.array([0.5]), sparsity=1.5)


class TestCollectHeadGates:
    def test_shape_and_range(self):
        cfg = tiny_model_config(n_layers=2, n_heads=4, n_kv_heads=2)
        model = TinyTransformer(cfg, seed=0)
        tokens = np.arange(32) % cfg.vocab_size
        gates = collect_head_gates(model, tokens, 2, 4)
        assert gates.shape == (2, 2)
        assert np.all(gates >= 0.0) and np.all(gates <= 1.0)

    @pytest.mark.parametrize(
        "config,seed,tokens,sink_tokens,local_tokens",
        [
            # this file's calibration cases
            (dict(n_layers=2, n_heads=4, n_kv_heads=2), 0, np.arange(32), 2, 4),
            ({}, 0, np.arange(16), 2, 4),
            (dict(n_layers=1), 1, np.arange(16), 16, 16),
            (dict(n_layers=1), 1, np.arange(16), 0, 16),
            (dict(n_layers=1), 1, np.arange(16), 15, 1),
            (dict(n_layers=1), 1, np.arange(16), 1, 2),
            # test_engine.py's: given tokens, and the engine's default random 128
            ({}, 11, np.arange(64), 16, 32),
            ({}, 11, np.random.default_rng(0).integers(0, 512, size=128), 16, 32),
            # examples/quickstart.py's 64 calibration tokens
            (
                dict(n_layers=2, n_heads=4, n_kv_heads=2, head_dim=16),
                0,
                np.array(ToyTokenizer(512).encode(QUICKSTART_PROMPT))[:64],
                16,
                32,
            ),
        ],
    )
    def test_the_engine_loop_records_the_reference_forwards_gates(
        self, config, seed, tokens, sink_tokens, local_tokens
    ):
        """Gates from the one layer loop equal, bitwise, those recorded through the oracle's forward."""
        model = TinyTransformer(tiny_model_config(**config), seed=seed)
        np.testing.assert_array_equal(
            collect_head_gates(model, tokens, sink_tokens, local_tokens),
            oracle_head_gates(model, tokens, sink_tokens, local_tokens),
        )

    def test_large_window_yields_low_gates(self):
        """If the streaming window covers the whole context, every head is streaming-friendly."""
        cfg = tiny_model_config(n_layers=1)
        model = TinyTransformer(cfg, seed=1)
        tokens = np.arange(16)
        gates = collect_head_gates(model, tokens, sink_tokens=16, local_tokens=16)
        np.testing.assert_allclose(gates, 0.0, atol=1e-9)

    @pytest.mark.parametrize("sink_tokens,local_tokens", [(0, 16), (15, 1)])
    def test_either_window_covering_the_context_yields_low_gates(self, sink_tokens, local_tokens):
        """The sink and the local window each count: a long local window alone,
        or a sink reaching every query's last key but one, sees everything."""
        cfg = tiny_model_config(n_layers=1)
        model = TinyTransformer(cfg, seed=1)
        gates = collect_head_gates(model, np.arange(16), sink_tokens, local_tokens)
        np.testing.assert_allclose(gates, 0.0, atol=1e-9)

    def test_a_short_window_yields_a_positive_gate(self):
        cfg = tiny_model_config(n_layers=1)
        model = TinyTransformer(cfg, seed=1)
        gates = collect_head_gates(model, np.arange(16), 1, 2)
        assert gates.max() > 1e-6
