"""Tests for streaming-head static sparsity helpers."""

import numpy as np
import pytest

from repro.attention.masks import block_causal_mask, block_streaming_mask
from repro.core.streaming import build_prefill_block_masks, expand_kv_head_mask


class TestExpandKVHeadMask:
    def test_expansion(self):
        mask = expand_kv_head_mask(np.array([True, False]), gqa_group_size=3)
        np.testing.assert_array_equal(mask, [True, True, True, False, False, False])

    def test_mha_identity(self):
        mask = np.array([True, False, True])
        np.testing.assert_array_equal(expand_kv_head_mask(mask, 1), mask)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_kv_head_mask(np.ones((2, 2), dtype=bool), 2)
        with pytest.raises(ValueError):
            expand_kv_head_mask(np.ones(2, dtype=bool), 0)


class TestBuildPrefillBlockMasks:
    def test_shapes_and_patterns(self):
        head_mask = np.array([False, True, True, False])
        masks = build_prefill_block_masks(128, 128, 16, 16, head_mask, 16, 32)
        assert masks.shape == (4, 8, 8)
        causal = block_causal_mask(128, 128, 16, 16)
        np.testing.assert_array_equal(masks[0], causal)
        np.testing.assert_array_equal(masks[3], causal)
        # Streaming heads must skip some causal blocks at this length.
        assert masks[1].sum() < causal.sum()
        np.testing.assert_array_equal(masks[1], masks[2])

    def test_streaming_subset_of_causal(self):
        masks = build_prefill_block_masks(256, 256, 32, 32, np.array([True]), 16, 16)
        causal = block_causal_mask(256, 256, 32, 32)
        assert np.all(masks[0] <= causal)

    @pytest.mark.parametrize(
        "sink_tokens,local_tokens,block,sink_blocks,local_blocks",
        [(64, 256, 64, 1, 4), (64, 256, 16, 4, 16), (0, 256, 64, 0, 4), (65, 1, 64, 2, 1)],
    )
    def test_windows_round_up_to_whole_blocks(self, sink_tokens, local_tokens, block, sink_blocks, local_blocks):
        """The sink rounds up to whole blocks (none for no sink), the window too, at least the diagonal."""
        masks = build_prefill_block_masks(1024, 1024, block, block, np.array([True]), sink_tokens, local_tokens)
        expected = block_streaming_mask(
            1024, 1024, block, block, sink_blocks=sink_blocks, local_blocks=local_blocks
        )
        np.testing.assert_array_equal(masks[0], expected)

    @pytest.mark.parametrize("q_block,kv_block", [(16, 64), (64, 16), (32, 8)])
    def test_windows_round_on_the_kv_block(self, q_block, kv_block):
        """Both windows count KV blocks, whatever the query block."""
        masks = build_prefill_block_masks(512, 512, q_block, kv_block, np.array([True]), 40, 72)
        expected = block_streaming_mask(
            512, 512, q_block, kv_block,
            sink_blocks=-(-40 // kv_block), local_blocks=-(-72 // kv_block),
        )
        np.testing.assert_array_equal(masks[0], expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_prefill_block_masks(64, 64, 16, 16, np.ones((2, 2), dtype=bool), 64, 256)
