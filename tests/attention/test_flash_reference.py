"""Tests for the block-wise online-softmax attention kernel model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.dense import dense_attention
from repro.attention.flash_reference import _visited_spans, blockwise_attention
from repro.attention.masks import (
    block_causal_mask,
    block_sparsity,
    block_streaming_mask,
    mask_from_block_mask,
    num_blocks,
)
from tests.conftest import random_qkv

# (n_q, n_kv, q_block, kv_block): square, continuation chunks (n_q < n_kv) at
# aligned and unaligned offsets, short tail blocks, q_block != kv_block.
GEOMETRIES = [
    (16, 16, 4, 4),
    (7, 13, 4, 4),  # offset 6: every diagonal straddles two KV blocks
    (1, 32, 1, 8),  # decode: TQ = 1
    (20, 20, 8, 16),  # short tails on both axes, q_block < kv_block
    (16, 48, 8, 8),  # aligned continuation
    (10, 29, 4, 8),  # unaligned continuation, short tails
    (24, 40, 16, 4),  # q_block > kv_block: the diagonal crosses four KV blocks
    (37, 37, 8, 8),
]
# (n_heads, n_kv_heads): GQA group 1, 2 and 4.
HEAD_LAYOUTS = [(4, 4), (4, 2), (4, 1)]


def assert_matches_masked_dense(q, k, v, qb, kb, block_mask):
    """The kernel against dense attention over the expanded block mask, and
    its work accounting against the mask arithmetic."""
    n_q, n_heads, _ = q.shape
    n_kv = k.shape[0]
    res = blockwise_attention(q, k, v, qb, kb, block_mask=block_mask)
    per_head = np.broadcast_to(block_mask, (n_heads, *block_mask.shape[-2:]))
    token_mask = np.stack([mask_from_block_mask(m, n_q, n_kv, qb, kb) for m in per_head])
    expected = dense_attention(q, k, v, mask=token_mask)
    np.testing.assert_allclose(res.output, expected, rtol=1e-10, atol=1e-12)
    visible = block_causal_mask(n_q, n_kv, qb, kb)
    assert res.total_blocks == int(visible.sum()) * n_heads
    assert res.visited_blocks == int((per_head & visible).sum())
    return res


class TestBlockwiseDenseEquivalence:
    @pytest.mark.parametrize("n_heads,n_kv_heads", HEAD_LAYOUTS)
    @pytest.mark.parametrize("n_q,n_kv,qb,kb", GEOMETRIES)
    def test_matches_dense_causal(self, rng, n_q, n_kv, qb, kb, n_heads, n_kv_heads):
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=n_heads, n_kv_heads=n_kv_heads)
        res = blockwise_attention(q, k, v, qb, kb)
        expected = dense_attention(q, k, v, causal=True)
        np.testing.assert_allclose(res.output, expected, rtol=1e-10, atol=1e-12)
        assert res.visited_blocks == res.total_blocks

    def test_full_mask_zero_sparsity(self, rng):
        q, k, v = random_qkv(rng, 16, 16)
        res = blockwise_attention(q, k, v, 4, 4)
        assert res.visited_blocks == res.total_blocks
        assert res.block_sparsity == 0.0

    @given(
        n_q=st.integers(1, 24),
        extra_kv=st.integers(0, 24),
        qb=st.sampled_from([1, 4, 8]),
        kb=st.sampled_from([4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_dense_equivalence(self, n_q, extra_kv, qb, kb):
        rng = np.random.default_rng(n_q * 100 + extra_kv)
        n_kv = n_q + extra_kv
        q, k, v = random_qkv(rng, n_q, n_kv)
        res = blockwise_attention(q, k, v, qb, kb)
        expected = dense_attention(q, k, v, causal=True)
        np.testing.assert_allclose(res.output, expected, rtol=1e-7, atol=1e-9)


class TestBlockSkipping:
    @pytest.mark.parametrize("n_heads,n_kv_heads", HEAD_LAYOUTS)
    @pytest.mark.parametrize("n_q,n_kv,qb,kb", [(32, 32, 8, 8), *GEOMETRIES])
    def test_block_mask_matches_expanded_token_mask(
        self, rng, n_q, n_kv, qb, kb, n_heads, n_kv_heads
    ):
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=n_heads, n_kv_heads=n_kv_heads)
        bmask = block_streaming_mask(n_q, n_kv, qb, kb, sink_blocks=1, local_blocks=2)
        assert_matches_masked_dense(q, k, v, qb, kb, bmask)

    @pytest.mark.parametrize("n_heads,n_kv_heads", HEAD_LAYOUTS)
    @pytest.mark.parametrize("n_q,n_kv,qb,kb", GEOMETRIES)
    def test_random_per_head_block_masks(self, rng, n_q, n_kv, qb, kb, n_heads, n_kv_heads):
        """Arbitrary per-head masks: cells of several runs, cells with nothing
        visited, query heads of one GQA group on different patterns."""
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=n_heads, n_kv_heads=n_kv_heads)
        shape = (n_heads, num_blocks(n_q, qb), num_blocks(n_kv, kb))
        bmask = rng.random(shape) < 0.55
        bmask[0, 0, :] = False  # a whole query block with nothing visited
        assert_matches_masked_dense(q, k, v, qb, kb, bmask)

    @pytest.mark.parametrize("n_heads,n_kv_heads", HEAD_LAYOUTS)
    @pytest.mark.parametrize("n_q,n_kv,qb,kb", GEOMETRIES)
    def test_random_shared_block_mask(self, rng, n_q, n_kv, qb, kb, n_heads, n_kv_heads):
        """One ``(n_q_blocks, n_kv_blocks)`` mask for every head: the query
        heads of a GQA group share one pattern, so they stack into one
        product per KV head."""
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=n_heads, n_kv_heads=n_kv_heads)
        bmask = rng.random((num_blocks(n_q, qb), num_blocks(n_kv, kb))) < 0.55
        bmask[0, :] = False  # a whole query block with nothing visited
        assert_matches_masked_dense(q, k, v, qb, kb, bmask)

    @pytest.mark.parametrize("n_q,n_kv,qb,kb", GEOMETRIES)
    def test_mask_without_the_diagonal_block(self, rng, n_q, n_kv, qb, kb):
        """Dropping the newest visible KV block leaves rows that see nothing
        (zero output) next to rows that still see older blocks."""
        q, k, v = random_qkv(rng, n_q, n_kv)
        causal = block_causal_mask(n_q, n_kv, qb, kb)
        newest = causal.shape[1] - 1 - np.argmax(causal[:, ::-1], axis=1)
        bmask = causal.copy()
        bmask[np.arange(causal.shape[0]), newest] = False
        res = assert_matches_masked_dense(q, k, v, qb, kb, bmask)
        if n_q == n_kv and qb <= kb:
            # The first query block's only visible block is the one dropped.
            np.testing.assert_array_equal(res.output[:qb], 0.0)

    def test_skipped_blocks_reduce_visits(self, rng):
        n = 64
        blk = 16
        q, k, v = random_qkv(rng, n, n)
        bmask = block_streaming_mask(n, n, blk, blk, sink_blocks=1, local_blocks=1)
        res = blockwise_attention(q, k, v, blk, blk, block_mask=bmask)
        dense = blockwise_attention(q, k, v, blk, blk)
        assert res.visited_blocks < dense.visited_blocks
        assert 0.0 < res.block_sparsity < 1.0

    def test_per_head_block_masks(self, rng):
        n = 32
        blk = 8
        q, k, v = random_qkv(rng, n, n, n_heads=2, n_kv_heads=2)
        full = block_causal_mask(n, n, blk, blk)
        stream = block_streaming_mask(n, n, blk, blk, 1, 1)
        per_head = np.stack([full, stream])
        res = blockwise_attention(q, k, v, blk, blk, block_mask=per_head)
        # Head 0 behaves densely, head 1 follows the streaming pattern.
        dense_out = dense_attention(q, k, v, causal=True)
        np.testing.assert_allclose(res.output[:, 0], dense_out[:, 0], rtol=1e-8)
        token_mask = mask_from_block_mask(stream, n, n, blk, blk)
        stream_out = dense_attention(q, k, v, mask=token_mask)
        np.testing.assert_allclose(res.output[:, 1], stream_out[:, 1], rtol=1e-8)

    def test_all_blocks_skipped_gives_zero_output(self, rng):
        q, k, v = random_qkv(rng, 8, 8)
        bmask = np.zeros((2, 2), dtype=bool)
        res = blockwise_attention(q, k, v, 4, 4, block_mask=bmask)
        np.testing.assert_array_equal(res.output, np.zeros_like(res.output))
        assert res.visited_blocks == 0

    def test_invalid_block_mask_shape(self, rng):
        q, k, v = random_qkv(rng, 8, 8)
        with pytest.raises(ValueError):
            blockwise_attention(q, k, v, 4, 4, block_mask=np.ones((3, 3), dtype=bool))

    @pytest.mark.parametrize(
        "n_q,n_kv,n_heads,n_kv_heads,mask_shape",
        [
            (8, 4, 4, 2, None),  # fewer keys than queries
            (8, 8, 3, 2, None),  # query heads not a multiple of KV heads
            (8, 8, 4, 2, (5, 2, 2)),  # a mask layer per head, one too many
            (8, 8, 4, 2, (2, 3)),  # one KV block too many
        ],
        ids=["kv_shorter_than_queries", "heads_not_a_multiple", "mask_head_count", "mask_kv_blocks"],
    )
    def test_rejects_inconsistent_shapes(self, rng, n_q, n_kv, n_heads, n_kv_heads, mask_shape):
        q, k, v = random_qkv(rng, n_q, n_kv, n_heads=n_heads, n_kv_heads=n_kv_heads)
        bmask = None if mask_shape is None else np.ones(mask_shape, dtype=bool)
        with pytest.raises(ValueError):
            blockwise_attention(q, k, v, 4, 4, block_mask=bmask)

    def test_theoretical_speedup_matches_block_count(self, rng):
        """Paper §3.1: speedup of block sparse attention is 1 / (1 - r)."""
        n = 128
        blk = 16
        q, k, v = random_qkv(rng, n, n)
        bmask = block_streaming_mask(n, n, blk, blk, 1, 2)
        res = blockwise_attention(q, k, v, blk, blk, block_mask=bmask)
        r = res.block_sparsity
        speedup = res.total_blocks / res.visited_blocks
        np.testing.assert_allclose(speedup, 1.0 / (1.0 - r), rtol=1e-12)

    def test_block_sparsity_matches_mask_arithmetic(self, rng):
        """The kernel's tile count equals the mask's, per head: a dense head
        skips nothing, a streaming head skips the middle."""
        n, blk = 128, 16
        q, k, v = random_qkv(rng, n, n, n_heads=2, n_kv_heads=2)
        causal = block_causal_mask(n, n, blk, blk)
        stream = block_streaming_mask(n, n, blk, blk, 1, 2)
        res = blockwise_attention(q, k, v, blk, blk, block_mask=np.stack([causal, stream]))
        assert res.visited_blocks == int(causal.sum()) + int(stream.sum())
        expected = (block_sparsity(causal, causal) + block_sparsity(stream, causal)) / 2
        assert res.block_sparsity == pytest.approx(expected)


def spans_as_block_mask(spans_of, kv_block: int, n_kv_blocks: int) -> np.ndarray:
    """The ``(n_q_blocks, n_kv_blocks)`` mask a list of per-row spans covers."""
    mask = np.zeros((len(spans_of), n_kv_blocks), dtype=bool)
    for qb, spans in enumerate(spans_of):
        for lo, hi in spans:
            mask[qb, lo // kv_block : -(-hi // kv_block)] = True
    return mask


class TestVisitedSpans:
    """The kernel's §3.4 iterator: the token runs each query block visits."""

    @pytest.mark.parametrize("n_q,n_kv,qb,kb", GEOMETRIES)
    def test_dense_causal_row_is_one_span_from_zero(self, n_q, n_kv, qb, kb):
        causal = block_causal_mask(n_q, n_kv, qb, kb)
        spans_of = _visited_spans(causal, kb, n_kv)
        for row, spans in zip(causal, spans_of):
            newest = int(np.flatnonzero(row)[-1])
            assert spans == [(0, min((newest + 1) * kb, n_kv))]

    def test_streaming_row_skips_the_middle(self):
        stream = block_streaming_mask(160, 160, 16, 16, sink_blocks=1, local_blocks=2)
        assert _visited_spans(stream, 16, 160)[9] == [(0, 16), (128, 160)]

    def test_streaming_short_context_is_one_span(self):
        stream = block_streaming_mask(48, 48, 16, 16, sink_blocks=2, local_blocks=2)
        assert _visited_spans(stream, 16, 48) == [[(0, 16)], [(0, 32)], [(0, 48)]]

    def test_streaming_width_constant_past_the_window(self):
        stream = block_streaming_mask(100, 100, 1, 1, sink_blocks=1, local_blocks=2)
        spans_of = _visited_spans(stream, 1, 100)
        for qb in range(3, 100):
            assert spans_of[qb] == [(0, 1), (qb - 1, qb + 1)]

    def test_adjacent_blocks_merge_into_one_run(self):
        row = np.array([[True, True, False, True, False]])
        assert _visited_spans(row, 4, 20) == [[(0, 8), (12, 16)]]

    def test_last_span_clipped_to_the_context(self):
        row = np.array([[False, False, True, True]])
        assert _visited_spans(row, 4, 13) == [[(8, 13)]]

    def test_row_with_nothing_kept_has_no_spans(self):
        mask = np.array([[True, False], [False, False]])
        assert _visited_spans(mask, 8, 16) == [[(0, 8)], []]

    def test_decode_row_visits_selected_pages_and_the_diagonal(self):
        """TQ = 1 over 60 keys on 8-token pages: pages 0 and 3 selected, plus
        the partial newest page 7."""
        row = np.zeros((1, num_blocks(60, 8)), dtype=bool)
        row[0, [0, 3, 7]] = True
        assert _visited_spans(row, 8, 60) == [[(0, 8), (24, 32), (56, 60)]]

    @given(seed=st.integers(0, 2**16), nqb=st.integers(1, 6), nkb=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_property_spans_are_maximal_runs_of_the_mask(self, seed, nqb, nkb):
        kb = 4
        mask = np.random.default_rng(seed).random((nqb, nkb)) < 0.5
        spans_of = _visited_spans(mask, kb, nkb * kb)
        np.testing.assert_array_equal(spans_as_block_mask(spans_of, kb, nkb), mask)
        for spans in spans_of:
            assert all(lo < hi for lo, hi in spans)
            # Ascending, and separated by at least one skipped block.
            assert all(prev[1] < nxt[0] for prev, nxt in zip(spans, spans[1:]))
