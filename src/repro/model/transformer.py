"""A runnable NumPy decoder-only transformer with a pluggable attention backend.

The :class:`TinyTransformer` is the functional substrate used by examples and
integration tests: small enough to run on a CPU in milliseconds, but with the
same structure as the models the paper serves (RMSNorm, RoPE, GQA attention,
SwiGLU FFN, tied decode loop over a KV cache).  The attention backend is a
callable, so the same model can be run with dense attention, streaming-head
attention, or the full LServe unified sparse attention engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.rope import RotaryEmbedding, apply_rope
from repro.attention.softmax import softmax
from repro.model.configs import ModelConfig
from repro.model.weights import SyntheticWeights

__all__ = ["KVCacheProtocol", "SimpleKVCache", "AttentionBackend", "TinyTransformer"]


class KVCacheProtocol(Protocol):
    """Minimal interface the transformer needs from a KV cache."""

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append new key/value tokens ``(n_new, n_kv_heads, head_dim)`` to a layer."""

    def get(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the full cached keys and values for a layer."""

    def seq_len(self) -> int:
        """Number of cached tokens (identical across layers)."""


@dataclass
class SimpleKVCache:
    """Contiguous (non-paged) KV cache — the baseline cache layout."""

    n_layers: int
    _keys: list[list[np.ndarray]] = field(init=False)
    _values: list[list[np.ndarray]] = field(init=False)

    def __post_init__(self) -> None:
        self._keys = [[] for _ in range(self.n_layers)]
        self._values = [[] for _ in range(self.n_layers)]

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        if k.shape != v.shape:
            raise ValueError("k and v must have matching shapes")
        self._keys[layer].append(np.asarray(k, dtype=np.float64))
        self._values[layer].append(np.asarray(v, dtype=np.float64))

    def get(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        if not self._keys[layer]:
            raise ValueError(f"layer {layer} cache is empty")
        return np.concatenate(self._keys[layer]), np.concatenate(self._values[layer])

    def seq_len(self) -> int:
        if not self._keys[0]:
            return 0
        return int(sum(chunk.shape[0] for chunk in self._keys[0]))


# An attention backend maps (layer, q, k, v, n_new_tokens) -> output.
# q has shape (n_new, n_heads, head_dim); k/v are the *full* cached
# keys/values (n_ctx, n_kv_heads, head_dim) including the new tokens.
AttentionBackend = Callable[[int, np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (Llama-style, no mean centering)."""
    # np.mean's sum and divide, without its Python wrapper (one call per norm per step).
    variance = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(variance + eps) * weight


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation used by the SwiGLU feed-forward network."""
    return x / (1.0 + np.exp(-x))


# Internal aliases kept for readability inside the layer loop.
_rms_norm = rms_norm
_silu = silu


def dense_backend(
    layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray, n_new: int
) -> np.ndarray:
    """Default attention backend: dense causal GQA attention."""
    del layer, n_new
    return dense_attention(q, k, v, causal=True)


class TinyTransformer:
    """Decoder-only transformer running on NumPy.

    Parameters
    ----------
    config:
        Architecture configuration (use :func:`repro.model.tiny_model_config`
        for test-sized models).
    weights:
        Optional pre-built :class:`SyntheticWeights`; generated from ``seed``
        when omitted.
    attention_backend:
        Callable computing attention for one layer; defaults to dense causal
        attention.  The LServe engine installs its unified sparse attention
        here.
    """

    def __init__(
        self,
        config: ModelConfig,
        weights: SyntheticWeights | None = None,
        seed: int = 0,
        attention_backend: AttentionBackend | None = None,
    ) -> None:
        self.config = config
        self.weights = weights if weights is not None else SyntheticWeights(config, seed=seed)
        if self.weights.config is not config and self.weights.config != config:
            raise ValueError("weights were built for a different configuration")
        self.attention_backend: AttentionBackend = attention_backend or dense_backend
        self.rope = RotaryEmbedding(
            head_dim=config.head_dim,
            base=config.rope_base,
            scaling_factor=config.rope_scaling,
        )

    # -- construction helpers ------------------------------------------------
    def new_cache(self) -> SimpleKVCache:
        """Fresh contiguous KV cache sized for this model."""
        return SimpleKVCache(n_layers=self.config.n_layers)

    # -- forward passes -------------------------------------------------------
    def forward(
        self,
        token_ids: np.ndarray,
        cache: KVCacheProtocol,
        return_hidden: bool = False,
    ) -> np.ndarray:
        """Run the model over ``token_ids`` (1-D int array of new tokens).

        New keys/values are appended to ``cache``; attention sees the whole
        cache (prefix + new tokens).  Returns logits of shape
        ``(n_new, vocab_size)``, or the final hidden states when
        ``return_hidden`` is set.
        """
        cfg = self.config
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError(f"token_ids must be 1-D, got shape {token_ids.shape}")
        if np.any((token_ids < 0) | (token_ids >= cfg.vocab_size)):
            raise ValueError("token id out of vocabulary range")
        n_new = token_ids.shape[0]
        if n_new == 0:
            raise ValueError("forward requires at least one token")
        start = cache.seq_len()
        positions = np.arange(start, start + n_new)

        hidden = self.weights.embedding[token_ids]
        for layer_idx, layer in enumerate(self.weights.layers):
            attn_in = _rms_norm(hidden, layer.attn_norm)
            q = (attn_in @ layer.wq).reshape(n_new, cfg.n_heads, cfg.head_dim)
            k = (attn_in @ layer.wk).reshape(n_new, cfg.n_kv_heads, cfg.head_dim)
            v = (attn_in @ layer.wv).reshape(n_new, cfg.n_kv_heads, cfg.head_dim)
            q = apply_rope(q, positions, self.rope)
            k = apply_rope(k, positions, self.rope)
            cache.append(layer_idx, k, v)
            k_all, v_all = cache.get(layer_idx)
            attn_out = self.attention_backend(layer_idx, q, k_all, v_all, n_new)
            attn_out = attn_out.reshape(n_new, cfg.hidden_size)
            hidden = hidden + attn_out @ layer.wo

            ffn_in = _rms_norm(hidden, layer.ffn_norm)
            gate = _silu(ffn_in @ layer.w_gate) * (ffn_in @ layer.w_up)
            hidden = hidden + gate @ layer.w_down

        hidden = _rms_norm(hidden, self.weights.final_norm)
        if return_hidden:
            return hidden
        return hidden @ self.weights.lm_head

    def prefill(self, token_ids: np.ndarray) -> tuple[np.ndarray, SimpleKVCache]:
        """Prefill a fresh cache with a prompt; returns (logits, cache)."""
        cache = self.new_cache()
        logits = self.forward(token_ids, cache)
        return logits, cache

    def decode_step(self, token_id: int, cache: KVCacheProtocol) -> np.ndarray:
        """Run one decode step; returns logits of shape ``(vocab_size,)``."""
        logits = self.forward(np.array([token_id]), cache)
        return logits[0]

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        temperature: float = 0.0,
        seed: int = 0,
        stop_token: int | None = None,
    ) -> list[int]:
        """Greedy (or temperature) generation loop exercising prefill + decode."""
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = np.random.default_rng(seed)
        logits, cache = self.prefill(np.asarray(prompt_ids))
        next_logits = logits[-1]
        generated: list[int] = []
        for _ in range(max_new_tokens):
            if temperature <= 0.0:
                next_id = int(np.argmax(next_logits))
            else:
                probs = softmax(next_logits / temperature)
                next_id = int(rng.choice(len(probs), p=probs))
            generated.append(next_id)
            if stop_token is not None and next_id == stop_token:
                break
            next_logits = self.decode_step(next_id, cache)
        return generated
