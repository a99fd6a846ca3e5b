"""Tests for the unified block-sparse attention (prefill + decode helpers)."""

import tracemalloc

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import block_causal_mask, block_streaming_mask, mask_from_block_mask
from repro.core.streaming import build_prefill_block_masks
from repro.core.unified_sparse_attention import (
    decode_batched_attention,
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
            sink_tokens=8, local_tokens=8,
            q_block=16, kv_block=16,
        )
        np.testing.assert_allclose(out, dense_attention(q, k, v), rtol=1e-8)
        assert stats.sparsity == 0.0

    def test_streaming_heads_match_lambda_mask(self, rng):
        n = 64
        q, k, v = random_qkv(rng, n, n)
        window = (16, 16)
        head_mask = np.array([False, False, True, True])
        out, stats = prefill_sparse_attention(
            q, k, v, head_mask, *window, q_block=16, kv_block=16
        )
        dense_out = dense_attention(q, k, v)
        np.testing.assert_allclose(out[:, :2], dense_out[:, :2], rtol=1e-8)
        # Streaming heads: must not depend on the middle of the context.
        v2 = v.copy()
        v2[24:40] += 5.0
        out2, _ = prefill_sparse_attention(
            q, k, v2, head_mask, *window, q_block=16, kv_block=16
        )
        np.testing.assert_allclose(out[-1, 2:], out2[-1, 2:], rtol=1e-10)
        assert stats.sparsity > 0.0
        assert stats.theoretical_speedup > 1.0

    def test_half_streaming_halves_block_work_at_long_context(self, rng):
        n = 512
        q, k, v = random_qkv(rng, n, n, n_heads=2, n_kv_heads=2, head_dim=8)
        window = (32, 32)
        _, stats = prefill_sparse_attention(
            q, k, v, np.array([False, True]), *window, q_block=32, kv_block=32
        )
        # The streaming head does nearly no work at this length, so overall
        # sparsity approaches 50%.
        assert 0.35 < stats.sparsity < 0.5

    def test_head_mask_validation(self, rng):
        q, k, v = random_qkv(rng, 16, 16)
        with pytest.raises(ValueError):
            prefill_sparse_attention(
                q, k, v, np.zeros(3, dtype=bool), 64, 256, 8, 8
            )

    @pytest.mark.parametrize("n_kv_heads", [4, 2, 1])
    @pytest.mark.parametrize(
        "n_q,n_kv", [(32, 32), (16, 64), (13, 50), (45, 45)]
    )  # single-shot, aligned / unaligned continuation chunk, short tail block
    def test_gqa_supported(self, rng, n_q, n_kv, n_kv_heads):
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=4, n_kv_heads=n_kv_heads)
        head_is_streaming = np.array([False, True, False, True])
        window = (8, 8)
        out, stats = prefill_sparse_attention(
            q, k, v,
            head_is_streaming=head_is_streaming,
            sink_tokens=window[0], local_tokens=window[1],
            q_block=8, kv_block=8,
        )
        assert out.shape == q.shape
        block_masks = build_prefill_block_masks(n_q, n_kv, 8, 8, head_is_streaming, *window)
        token_masks = np.stack(
            [mask_from_block_mask(m, n_q, n_kv, 8, 8) for m in block_masks]
        )
        np.testing.assert_allclose(
            out, dense_attention(q, k, v, mask=token_masks), rtol=1e-10, atol=1e-12
        )
        assert stats.visited_blocks == int(block_masks.sum())
        assert stats.total_blocks == 4 * int(block_masks[0].sum())  # head 0 is dense

    @pytest.mark.parametrize("sink_tokens,local_tokens", [(0, 8), (8, 24), (24, 8)])
    def test_asymmetric_window_matches_lambda_mask(self, rng, sink_tokens, local_tokens):
        """A streaming head sees the sink's KV blocks and the local window's,
        each from its own argument."""
        n, blk = 96, 8
        q, k, v = random_qkv(rng, n, n, n_heads=2, n_kv_heads=2)
        out, _ = prefill_sparse_attention(
            q, k, v, np.array([False, True]), sink_tokens, local_tokens, q_block=blk, kv_block=blk
        )
        stream = block_streaming_mask(
            n, n, blk, blk, sink_blocks=-(-sink_tokens // blk), local_blocks=-(-local_tokens // blk)
        )
        token_masks = np.stack(
            [block_causal_mask(n, n, 1, 1), mask_from_block_mask(stream, n, n, blk, blk)]
        )
        np.testing.assert_allclose(
            out, dense_attention(q, k, v, mask=token_masks), rtol=1e-10, atol=1e-12
        )

    def test_peak_memory_below_one_token_level_mask(self, rng):
        """No ``n_q x n_kv`` temporary: a 4096-token call at the benchmark
        geometry allocates less than one token-level bool mask would take."""
        n = 4096
        q, k, v = random_qkv(rng, n, n, n_heads=8, n_kv_heads=4, head_dim=16)
        head_is_streaming = np.repeat([False, True, False, True], 2)
        window = (32, 64)
        tracemalloc.start()
        try:
            prefill_sparse_attention(
                q, k, v, head_is_streaming, *window, q_block=32, kv_block=32
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


#: Capacities and lengths on both sides of OpenBLAS's K split (and its shape-chosen GEMM kernels).
CONTRACT_LENGTHS = (60, 61, 127, 255, 256, 257, 300, 383, 384, 385, 511, 513, 600, 601, 699, 700)


def solo(q, k, v, group, length):
    """One query's call alone: a batch of one, one row, at the operand's capacity."""
    return decode_batched_attention(q[None], k[None], v[None], gqa_group_size=group, lengths=[[length]])[0]


class TestDecodeBatchedAttentionRows:
    """Capacity-shaped operands: a row's bytes depend on its own operand, length and capacity only."""

    @pytest.mark.parametrize("group", [1, 2, 4])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_each_row_equals_its_solo_call_at_the_capacity(self, group, rows):
        rng = np.random.default_rng(100 * group + rows)
        batch, n_kv = 3, 2
        for head_dim in (16, 32):
            for capacity in CONTRACT_LENGTHS:
                if capacity - rows + 1 < 1:
                    continue
                # A chunk's run: consecutive lengths ending at the capacity ...
                cases = [[capacity - rows + 1 + r for r in range(rows)]]
                # ... and ragged ones: any lengths up to it, in any order.
                cases.append(rng.integers(1, capacity + 1, size=rows).tolist())
                q = rng.normal(size=(batch, rows, n_kv * group, head_dim))
                k = rng.normal(size=(batch, n_kv, capacity, head_dim))  # finite stale data past every length
                v = rng.normal(size=(batch, n_kv, capacity, head_dim))
                for lengths in cases:
                    out = decode_batched_attention(
                        q, k, v, gqa_group_size=group, lengths=np.tile(lengths, (batch, 1))[:, :, None]
                    )
                    assert out.shape == q.shape
                    for b in range(batch):
                        for r, n in enumerate(lengths):
                            want = solo(q[b, r], k[b], v[b], group, n)
                            assert out[b, r].tobytes() == want.tobytes(), (head_dim, capacity, lengths, b, r)
                    # The reference kernel over the visible prefix agrees to rounding.
                    b, r = batch - 1, rows - 1
                    for h in range(n_kv):
                        heads = slice(h * group, (h + 1) * group)
                        np.testing.assert_allclose(
                            out[b, r, heads],
                            decode_group_attention(q[b, r, heads], k[b, h, : lengths[r]], v[b, h, : lengths[r]]),
                            rtol=1e-9,
                            atol=1e-12,
                        )

    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_a_member_alone_equals_the_member_in_any_batch(self, group):
        """Batches of 2-16 members with other lengths and stale data: every member's bytes are its solo call's."""
        rng = np.random.default_rng(group)
        n_kv = 2
        for head_dim in (16, 32, 64):
            for capacity in (64, 96, 200, 256, 320, 512, 640, 1024):
                batch = int(rng.integers(2, 17))
                q = rng.normal(size=(batch, n_kv * group, head_dim))
                k = rng.normal(size=(batch, n_kv, capacity, head_dim))
                v = rng.normal(size=(batch, n_kv, capacity, head_dim))
                lengths = rng.integers(1, capacity + 1, size=(batch, 1))
                out = decode_batched_attention(q, k, v, gqa_group_size=group, lengths=lengths)
                for b in range(batch):
                    want = solo(q[b], k[b], v[b], group, int(lengths[b, 0]))
                    assert out[b].tobytes() == want.tobytes(), (head_dim, capacity, batch, b)

    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_verify_rows_as_batch_entries_equal_their_solo_calls(self, group):
        """A verify's rows share their member's operand; each row, with a length per head, is its solo call."""
        rng = np.random.default_rng(10 + group)
        batch, rows, n_kv = 4, 5, 2
        for head_dim in (16, 32, 64):
            for capacity in (64, 256, 1024):
                q = rng.normal(size=(batch, rows, n_kv * group, head_dim))
                k = rng.normal(size=(batch, n_kv, capacity, head_dim))
                v = rng.normal(size=(batch, n_kv, capacity, head_dim))
                lengths = rng.integers(1, capacity + 1, size=(batch, rows, n_kv))
                out = decode_batched_attention(q, k, v, gqa_group_size=group, lengths=lengths)
                for b in range(batch):
                    for r in range(rows):
                        one = slice(b, b + 1)
                        want = decode_batched_attention(
                            q[one, r], k[one], v[one], gqa_group_size=group, lengths=lengths[one, r]
                        )
                        assert out[b, r].tobytes() == want[0].tobytes(), (head_dim, capacity, b, r)

    def test_slots_past_the_length_do_not_reach_the_output(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 4, 16))
        k, v = rng.normal(size=(2, 2, 2, 96, 16))
        lengths = np.array([[70], [5]])
        out = decode_batched_attention(q, k, v, gqa_group_size=2, lengths=lengths)
        for b, n in enumerate(lengths[:, 0]):
            k[b, :, n:] = rng.normal(scale=1e6, size=k[b, :, n:].shape)
            v[b, :, n:] = -v[b, :, n:]
        again = decode_batched_attention(q, k, v, gqa_group_size=2, lengths=lengths)
        assert again.tobytes() == out.tobytes()

    def test_a_capacity_that_depends_on_the_batch_moves_bytes(self):
        """The rule has teeth: padding a member to a longer batchmate's capacity moves
        its bytes in some case, so a capacity must follow from the member alone."""
        rng = np.random.default_rng(5)
        differs = 0
        for group in (1, 2, 4):
            for head_dim in (16, 32, 64):
                for capacity in (64, 96, 200, 256):
                    q = rng.normal(size=(2 * group, head_dim))
                    k, v = rng.normal(size=(2, 2, capacity, head_dim))
                    n = int(rng.integers(capacity // 2, capacity + 1))
                    own = solo(q, k, v, group, n)
                    wider = capacity + 64 * int(rng.integers(1, 4))  # the batchmate's capacity
                    k_pad, v_pad = np.zeros((2, 2, wider, head_dim))
                    k_pad[:, :capacity], v_pad[:, :capacity] = k, v
                    differs += solo(q, k_pad, v_pad, group, n).tobytes() != own.tobytes()
        assert differs > 0

    def test_a_padded_row_sum_is_not_the_prefix_sum(self):
        """Why the re-pin moved bytes: summing a row zero-padded to the capacity
        pairs numpy's terms differently from the sum over its length alone."""
        rng = np.random.default_rng(7)
        differs = 0
        for top in CONTRACT_LENGTHS:
            p = np.exp(rng.normal(size=top))
            for n in range(max(1, top - 4), top):
                padded = np.zeros(top)
                padded[:n] = p[:n]
                differs += padded.sum() != p[:n].sum()
        assert differs > 0

    def test_rows_validation(self, rng):
        q = rng.normal(size=(1, 2, 4, 8))
        k = rng.normal(size=(1, 2, 10, 8))
        with pytest.raises(ValueError):
            decode_batched_attention(q, k, k, gqa_group_size=2, lengths=[3, 4, 5])  # three rows' lengths for two
        with pytest.raises(ValueError):
            decode_batched_attention(q, k, k, gqa_group_size=2, lengths=[[[3, 4, 5], [3, 4, 5]]])  # three heads
        with pytest.raises(ValueError):
            decode_batched_attention(q, k, k, gqa_group_size=2, lengths=[[[0], [10]]])
        with pytest.raises(ValueError):
            decode_batched_attention(q, k, k, gqa_group_size=2, lengths=[[[3], [11]]])
        with pytest.raises(ValueError):
            decode_batched_attention(q[:, :, :3], k, k, gqa_group_size=2)  # heads do not divide
        with pytest.raises(ValueError):
            decode_batched_attention(q, k[:, :, :0], k[:, :, :0], gqa_group_size=2)  # no capacity
        out = decode_batched_attention(q, k, k, gqa_group_size=2, lengths=[[[3], [10]]])
        assert out.shape == q.shape
