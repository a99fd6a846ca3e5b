"""Reference attention substrate.

This subpackage provides the numerical building blocks that the LServe core
is built on: a numerically stable softmax, causal and Λ-shaped (streaming)
masks, rotary position embeddings, a dense GQA/MHA attention reference, and a
block-wise online-softmax attention (``flash_reference``) that mirrors the
sequential KV-block loop of the GPU kernel and supports skipping whole blocks.
"""

from repro.attention.softmax import softmax
from repro.attention.masks import (
    causal_mask,
    streaming_mask,
    block_causal_mask,
    block_streaming_mask,
    mask_from_block_mask,
)
from repro.attention.rope import RotaryEmbedding, apply_rope
from repro.attention.dense import dense_attention, attention_weights, repeat_kv
from repro.attention.flash_reference import blockwise_attention

__all__ = [
    "softmax",
    "causal_mask",
    "streaming_mask",
    "block_causal_mask",
    "block_streaming_mask",
    "mask_from_block_mask",
    "RotaryEmbedding",
    "apply_rope",
    "dense_attention",
    "attention_weights",
    "repeat_kv",
    "blockwise_attention",
]
