"""Tests for token- and block-level attention masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.masks import (
    block_causal_mask,
    block_sparsity,
    block_streaming_mask,
    causal_mask,
    mask_from_block_mask,
    num_blocks,
    streaming_mask,
)


class TestNumBlocks:
    @pytest.mark.parametrize(
        "n, block, expected",
        [(0, 16, 0), (1, 16, 1), (16, 16, 1), (17, 16, 2), (128, 64, 2), (129, 64, 3)],
    )
    def test_values(self, n, block, expected):
        assert num_blocks(n, block) == expected

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            num_blocks(10, 0)

    def test_negative_tokens(self):
        with pytest.raises(ValueError):
            num_blocks(-1, 16)


class TestCausalMask:
    def test_square_case(self):
        mask = causal_mask(3, 3)
        expected = np.tril(np.ones((3, 3), dtype=bool))
        np.testing.assert_array_equal(mask, expected)

    def test_decode_case_single_query(self):
        mask = causal_mask(1, 5)
        np.testing.assert_array_equal(mask, np.ones((1, 5), dtype=bool))

    def test_prefix_case(self):
        # 2 new queries appended to a 3-token prefix.
        mask = causal_mask(2, 5)
        expected = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(mask, expected)

    def test_rejects_nkv_smaller_than_nq(self):
        with pytest.raises(ValueError):
            causal_mask(5, 3)


class TestStreamingMask:
    def test_sink_and_local_visible(self):
        mask = streaming_mask(8, 8, sink=2, local=3)
        # Last query: sinks 0-1 and locals 5-7 visible, middle hidden.
        np.testing.assert_array_equal(
            mask[-1], np.array([1, 1, 0, 0, 0, 1, 1, 1], dtype=bool)
        )

    def test_subset_of_causal(self):
        full = causal_mask(10, 10)
        stream = streaming_mask(10, 10, sink=1, local=2)
        assert np.all(stream <= full)

    def test_zero_sink_zero_local_only_self_excluded(self):
        mask = streaming_mask(4, 4, sink=0, local=1)
        np.testing.assert_array_equal(mask, np.eye(4, dtype=bool))

    def test_large_windows_recover_causal(self):
        mask = streaming_mask(6, 6, sink=6, local=6)
        np.testing.assert_array_equal(mask, causal_mask(6, 6))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            streaming_mask(4, 4, sink=-1, local=2)


class TestBlockMasks:
    def test_block_causal_shape(self):
        mask = block_causal_mask(64, 64, 16, 16)
        assert mask.shape == (4, 4)
        np.testing.assert_array_equal(mask, np.tril(np.ones((4, 4), dtype=bool)))

    def test_block_causal_decode(self):
        mask = block_causal_mask(1, 128, 1, 16)
        assert mask.shape == (1, 8)
        assert mask.all()

    def test_block_streaming_keeps_sink_and_diagonal(self):
        mask = block_streaming_mask(128, 128, 16, 16, sink_blocks=1, local_blocks=2)
        # Last query block sees block 0 (sink) and blocks 6,7 (local).
        np.testing.assert_array_equal(
            mask[-1], np.array([1, 0, 0, 0, 0, 0, 1, 1], dtype=bool)
        )

    def test_block_streaming_subset_of_block_causal(self):
        causal = block_causal_mask(96, 96, 16, 16)
        stream = block_streaming_mask(96, 96, 16, 16, 1, 2)
        assert np.all(stream <= causal)

    def test_mask_expansion_matches_token_streaming(self):
        n = 64
        blk = 16
        block = block_streaming_mask(n, n, blk, blk, sink_blocks=1, local_blocks=2)
        expanded = mask_from_block_mask(block, n, n, blk, blk, causal=True)
        # The expanded mask must cover the token-level streaming mask with the
        # corresponding sink/local token counts (block granularity is coarser,
        # so it may include extra tokens but never fewer).
        token = streaming_mask(n, n, sink=blk, local=blk)
        assert np.all(expanded >= token)
        assert np.all(expanded <= causal_mask(n, n))

    def test_mask_expansion_shape_validation(self):
        block = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            mask_from_block_mask(block, 64, 64, 16, 16)

    def test_block_sparsity_values(self):
        mask = np.array([[True, False], [True, True]])
        assert block_sparsity(mask) == pytest.approx(0.25)
        ref = np.array([[True, False], [True, True]])
        assert block_sparsity(mask, ref) == pytest.approx(0.0)
        # Fig. 4(b): 10 of the 21 causal tiles kept => 1 / (1 - r) = 2.1x theoretical speedup.
        causal = block_causal_mask(96, 96, 16, 16)
        kept = np.eye(6, dtype=bool)  # the diagonal tile of every query block ...
        kept[1:5, 0] = True  # ... and four more
        r = block_sparsity(kept, causal)
        assert r == pytest.approx(11 / 21)
        assert 1.0 / (1.0 - r) == pytest.approx(2.1)

    def test_block_sparsity_empty(self):
        assert block_sparsity(np.zeros((0, 0), dtype=bool)) == 0.0

    @given(
        n=st.integers(1, 200),
        blk=st.sampled_from([1, 4, 16, 32]),
        sink=st.integers(0, 4),
        local=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_streaming_block_count_constant(self, n, blk, sink, local):
        """Streaming attention touches at most sink+local blocks per query row."""
        mask = block_streaming_mask(n, n, blk, blk, sink, local)
        per_row = mask.sum(axis=1)
        assert np.all(per_row <= sink + local)
