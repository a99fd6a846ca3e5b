"""Tests for the unified block-sparse attention (prefill + decode helpers)."""

import tracemalloc

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import mask_from_block_mask
from repro.core.streaming import StreamingConfig, build_prefill_block_masks
from repro.core.unified_sparse_attention import (
    decode_group_attention,
    prefill_sparse_attention,
)
from tests.conftest import random_qkv


class TestPrefillSparseAttention:
    def test_all_dense_heads_match_dense_attention(self, rng):
        q, k, v = random_qkv(rng, 64, 64)
        out, stats = prefill_sparse_attention(
            q, k, v,
            head_is_streaming=np.zeros(4, dtype=bool),
            streaming=StreamingConfig(sink_tokens=8, local_tokens=8),
            q_block=16, kv_block=16,
        )
        np.testing.assert_allclose(out, dense_attention(q, k, v), rtol=1e-8)
        assert stats.sparsity == 0.0

    def test_streaming_heads_match_lambda_mask(self, rng):
        n = 64
        q, k, v = random_qkv(rng, n, n)
        streaming = StreamingConfig(sink_tokens=16, local_tokens=16)
        head_mask = np.array([False, False, True, True])
        out, stats = prefill_sparse_attention(
            q, k, v, head_mask, streaming, q_block=16, kv_block=16
        )
        dense_out = dense_attention(q, k, v)
        np.testing.assert_allclose(out[:, :2], dense_out[:, :2], rtol=1e-8)
        # Streaming heads: must not depend on the middle of the context.
        v2 = v.copy()
        v2[24:40] += 5.0
        out2, _ = prefill_sparse_attention(
            q, k, v2, head_mask, streaming, q_block=16, kv_block=16
        )
        np.testing.assert_allclose(out[-1, 2:], out2[-1, 2:], rtol=1e-10)
        assert stats.sparsity > 0.0
        assert stats.theoretical_speedup > 1.0

    def test_half_streaming_halves_block_work_at_long_context(self, rng):
        n = 512
        q, k, v = random_qkv(rng, n, n, n_heads=2, n_kv_heads=2, head_dim=8)
        streaming = StreamingConfig(sink_tokens=32, local_tokens=32)
        _, stats = prefill_sparse_attention(
            q, k, v, np.array([False, True]), streaming, q_block=32, kv_block=32
        )
        # The streaming head does nearly no work at this length, so overall
        # sparsity approaches 50%.
        assert 0.35 < stats.sparsity < 0.5

    def test_head_mask_validation(self, rng):
        q, k, v = random_qkv(rng, 16, 16)
        with pytest.raises(ValueError):
            prefill_sparse_attention(
                q, k, v, np.zeros(3, dtype=bool), StreamingConfig(), 8, 8
            )

    @pytest.mark.parametrize("n_kv_heads", [4, 2, 1])
    @pytest.mark.parametrize(
        "n_q,n_kv", [(32, 32), (16, 64), (13, 50), (45, 45)]
    )  # single-shot, aligned / unaligned continuation chunk, short tail block
    def test_gqa_supported(self, rng, n_q, n_kv, n_kv_heads):
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=4, n_kv_heads=n_kv_heads)
        head_is_streaming = np.array([False, True, False, True])
        streaming = StreamingConfig(sink_tokens=8, local_tokens=8)
        out, stats = prefill_sparse_attention(
            q, k, v,
            head_is_streaming=head_is_streaming,
            streaming=streaming,
            q_block=8, kv_block=8,
        )
        assert out.shape == q.shape
        block_masks = build_prefill_block_masks(n_q, n_kv, 8, 8, head_is_streaming, streaming)
        token_masks = np.stack(
            [mask_from_block_mask(m, n_q, n_kv, 8, 8) for m in block_masks]
        )
        np.testing.assert_allclose(
            out, dense_attention(q, k, v, mask=token_masks), rtol=1e-10, atol=1e-12
        )
        assert stats.visited_blocks == int(block_masks.sum())
        assert stats.total_blocks == 4 * int(block_masks[0].sum())  # head 0 is dense

    def test_peak_memory_below_one_token_level_mask(self, rng):
        """No ``n_q x n_kv`` temporary: a 4096-token call at the benchmark
        geometry allocates less than one token-level bool mask would take."""
        n = 4096
        q, k, v = random_qkv(rng, n, n, n_heads=8, n_kv_heads=4, head_dim=16)
        head_is_streaming = np.repeat([False, True, False, True], 2)
        streaming = StreamingConfig(sink_tokens=32, local_tokens=64)
        tracemalloc.start()
        try:
            prefill_sparse_attention(
                q, k, v, head_is_streaming, streaming, q_block=32, kv_block=32
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n


class TestDecodeGroupAttention:
    def test_matches_dense_attention_over_subset(self, rng):
        q_group = rng.normal(size=(4, 8))
        k_sel = rng.normal(size=(12, 8))
        v_sel = rng.normal(size=(12, 8))
        out = decode_group_attention(q_group, k_sel, v_sel)
        expected = dense_attention(
            q_group[None], k_sel[:, None, :], v_sel[:, None, :], causal=False
        )[0]
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_empty_selection_returns_zeros(self, rng):
        q_group = rng.normal(size=(2, 8))
        out = decode_group_attention(q_group, np.zeros((0, 8)), np.zeros((0, 8)))
        np.testing.assert_array_equal(out, np.zeros((2, 8)))

    def test_single_token(self, rng):
        q_group = rng.normal(size=(1, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out = decode_group_attention(q_group, k, v)
        np.testing.assert_allclose(out, v, rtol=1e-10)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            decode_group_attention(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))

    def test_full_selection_equals_streaming_equivalence(self, rng):
        """Decoding with all tokens selected equals dense decode attention."""
        n_ctx = 20
        q, k, v = random_qkv(rng, 1, n_ctx, n_heads=2, n_kv_heads=1, head_dim=8)
        dense_out = dense_attention(q, k, v, causal=True)
        sparse_out = decode_group_attention(q[0], k[:, 0], v[:, 0])
        np.testing.assert_allclose(sparse_out, dense_out[0], rtol=1e-10)
