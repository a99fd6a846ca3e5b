"""Independent implementations the engine and its page pool are checked against.

The reference model, an independent layer loop: :class:`ReferenceTransformer` runs a :class:`~repro.model.transformer.TinyTransformer`'s
weights through its own forward pass over a contiguous KV cache, with a
swappable attention backend (dense causal by default; ``test_engine.py``'s
``hybrid_reference_backend`` applies LServe's block-granular Λ mask).  It
shares no code with :func:`~repro.model.transformer.run_layers` beyond the
norm and activation, so an engine-vs-oracle match checks the engine's loop,
its paged cache and its kernels together.  :func:`oracle_head_gates` is
DuoAttention's calibration recorded through this forward.

The pool's two stored formats, computed at once over raw arrays:
:func:`fake_quantize` is what a low-bit pool hands back for rows it was
written (``decode(encode(x))`` of :mod:`repro.kvcache.quantization`, bit for
bit) and :func:`compute_page_key_stats` the per-logical-page key statistics
the pool folds as rows arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.masks import streaming_mask
from repro.attention.rope import apply_rope
from repro.attention.softmax import softmax
from repro.core.head_classifier import optimize_gate_values
from repro.kvcache.quantization import SUPPORTED_BITS
from repro.model.configs import ModelConfig
from repro.model.transformer import TinyTransformer, rms_norm, silu
from repro.model.weights import SyntheticWeights

__all__ = [
    "KVCacheProtocol",
    "SimpleKVCache",
    "AttentionBackend",
    "dense_backend",
    "ReferenceTransformer",
    "oracle_head_gates",
    "fake_quantize",
    "quantization_error_bound",
    "compute_page_key_stats",
]


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


# Internal aliases kept for readability inside the layer loop.
_rms_norm = rms_norm
_silu = silu


def dense_backend(
    layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray, n_new: int
) -> np.ndarray:
    """Default attention backend: dense causal GQA attention."""
    del layer, n_new
    return dense_attention(q, k, v, causal=True)


class ReferenceTransformer(TinyTransformer):
    """A :class:`TinyTransformer` with its own forward pass and a pluggable attention backend.

    ``attention_backend`` computes attention for one layer; defaults to
    dense causal attention.  Being a :class:`TinyTransformer`, an instance
    can also be served by :class:`~repro.core.engine.LServeEngine`, which
    reads only its weights and RoPE.
    """

    def __init__(
        self,
        config: ModelConfig,
        weights: SyntheticWeights | None = None,
        seed: int = 0,
        attention_backend: AttentionBackend | None = None,
    ) -> None:
        super().__init__(config, weights, seed)
        self.attention_backend: AttentionBackend = attention_backend or dense_backend

    # -- construction helpers ------------------------------------------------
    def new_cache(self) -> SimpleKVCache:
        """Fresh contiguous KV cache sized for this model."""
        return SimpleKVCache(n_layers=self.config.n_layers)

    # -- forward passes -------------------------------------------------------
    def forward(
        self,
        token_ids: np.ndarray,
        cache: KVCacheProtocol,
    ) -> np.ndarray:
        """Run the model over ``token_ids`` (1-D int array of new tokens).

        New keys/values are appended to ``cache``; attention sees the whole
        cache (prefix + new tokens).  Returns logits of shape
        ``(n_new, vocab_size)``.
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


def oracle_head_gates(
    model: TinyTransformer,
    calibration_tokens: np.ndarray,
    sink_tokens: int,
    local_tokens: int,
    penalty: float = 1e-2,
) -> np.ndarray:
    """Per-layer, per-KV-head gates from q/k/v recorded through :meth:`ReferenceTransformer.forward`.

    The calibration pass as a recording attention backend on the reference
    model: every layer's q and cached k/v are kept, its dense output feeds
    the next layer, and the gates are computed afterwards from the records.
    """
    cfg = model.config
    recorded: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def recording_backend(layer, q, k, v, n_new):
        recorded.append((q, k, v))
        return dense_attention(q, k, v, causal=True)

    reference = ReferenceTransformer(cfg, weights=model.weights, attention_backend=recording_backend)
    reference.prefill(np.asarray(calibration_tokens))
    assert len(recorded) == cfg.n_layers

    gates = np.zeros((cfg.n_layers, cfg.n_kv_heads))
    for layer, (q, k, v) in enumerate(recorded):
        n = q.shape[0]
        full = dense_attention(q, k, v, causal=True)
        stream = dense_attention(q, k, v, mask=streaming_mask(n, n, sink_tokens, local_tokens))
        per_query_head = optimize_gate_values(full, stream, penalty=penalty)
        gates[layer] = per_query_head.reshape(cfg.n_kv_heads, cfg.gqa_group_size).mean(axis=1)
    return gates


def _check_bits(bits: int) -> None:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")


def fake_quantize(x: np.ndarray, bits: int, group_axis: int = -1) -> np.ndarray:
    """What a low-bit store hands back for ``x``, in one pass.

    Asymmetric uniform quantization with one scale/zero per group (a slice
    along ``group_axis``) and its reconstruction.  One fresh array carries
    the whole round trip in place — ``x - zero``, ``/= scale``, ``rint``,
    ``clip``, ``*= scale``, ``+= zero`` — with no ``uint8`` codes: every
    code is a whole number in ``[0, 2**bits - 1]`` (``x - min`` is ``+0`` or
    more), so the integer cast is exact and the bytes equal the two-step
    form.  ``x`` itself is not written; ``bits == 16`` returns a float64 copy.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 16:
        return x.copy()
    zero = x.min(axis=group_axis, keepdims=True)
    scale = x.max(axis=group_axis, keepdims=True)
    scale -= zero
    scale /= (1 << bits) - 1
    # Guard constant groups, as the codec does.
    scale[scale <= 0.0] = 1.0
    out = x - zero
    out /= scale
    np.rint(out, out=out)
    np.clip(out, 0, (1 << bits) - 1, out=out)
    out *= scale
    out += zero
    return out


def quantization_error_bound(x: np.ndarray, bits: int, group_axis: int = -1) -> np.ndarray:
    """Worst-case absolute reconstruction error per group: ``scale / 2``."""
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if bits == 16:
        return np.zeros_like(x.max(axis=group_axis, keepdims=True))
    qmax = (1 << bits) - 1
    spread = x.max(axis=group_axis, keepdims=True) - x.min(axis=group_axis, keepdims=True)
    return spread / qmax / 2.0


def compute_page_key_stats(keys: np.ndarray, logical_page_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise ``(kmin, kmax)`` of every logical page of ``keys``.

    ``keys`` is ``(n_tokens, n_kv_heads, head_dim)``; both results are
    ``(n_logical_pages, n_kv_heads, head_dim)``, the shape the page selector
    scores.  A trailing page may be partial.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim != 3:
        raise ValueError(f"keys must be (n_tokens, n_kv_heads, head_dim), got {keys.shape}")
    if logical_page_size <= 0:
        raise ValueError("logical_page_size must be positive")
    if keys.shape[0] == 0:
        return keys.copy(), keys.copy()
    starts = np.arange(0, keys.shape[0], logical_page_size)
    return np.minimum.reduceat(keys, starts, axis=0), np.maximum.reduceat(keys, starts, axis=0)
