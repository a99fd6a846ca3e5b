"""A NumPy decoder-only transformer: its weights, RoPE, and the one layer loop.

:class:`TinyTransformer` holds what a model is — its configuration,
weights and rotary embedding — with the same structure as the models the
paper serves (RMSNorm, RoPE, GQA attention, SwiGLU FFN).  :func:`run_layers`
is the only loop over its layers: :class:`~repro.core.engine.LServeEngine`
runs prefills, decode steps and speculative chunks through it, and head
calibration (:func:`~repro.core.head_classifier.collect_head_gates`) runs a
dense pass through it before any engine exists.  What attention sees and
where K/V go are the caller's callbacks.
"""

from __future__ import annotations

import numpy as np

from repro.attention.rope import RotaryEmbedding, apply_rope
from repro.model.configs import ModelConfig
from repro.model.weights import SyntheticWeights

__all__ = ["TinyTransformer", "run_layers"]


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (Llama-style, no mean centering)."""
    # np.mean's sum and divide, without its Python wrapper (one call per norm per step).
    variance = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(variance + eps) * weight


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation used by the SwiGLU feed-forward network."""
    return x / (1.0 + np.exp(-x))


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with per-row results independent of the batch size.

    BLAS routes single-row matmuls to a GEMV kernel whose accumulation order
    differs from the GEMM kernels used for taller inputs; duplicating the lone
    row forces the GEMM path, so a decode batch of one produces byte-identical
    rows to the same sequence decoded inside any larger batch.
    """
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    return x @ w


class TinyTransformer:
    """A decoder-only transformer's configuration, weights and RoPE.

    Parameters
    ----------
    config:
        Architecture configuration (use :func:`repro.model.tiny_model_config`
        for test-sized models).
    weights:
        Optional pre-built :class:`SyntheticWeights`; generated from ``seed``
        when omitted.
    """

    def __init__(
        self,
        config: ModelConfig,
        weights: SyntheticWeights | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.weights = weights if weights is not None else SyntheticWeights(config, seed=seed)
        if self.weights.config is not config and self.weights.config != config:
            raise ValueError("weights were built for a different configuration")
        self.rope = RotaryEmbedding(
            head_dim=config.head_dim,
            base=config.rope_base,
            scaling_factor=config.rope_scaling,
        )


def run_layers(
    model: TinyTransformer,
    token_ids: np.ndarray,
    positions: np.ndarray,
    write,
    attend,
    keep_from: int = 0,
    chunk: int | None = None,
) -> np.ndarray:
    """The model forward over ``token_ids`` rows; returns logits ``(rows - keep_from, vocab)``.

    The one transformer layer loop: prefills, decode steps, speculative
    chunks and the calibration pass differ only in their callbacks.  Each
    layer is two passes over the rows, ``chunk`` rows at a time (all of them
    when ``None``).  Pass 1 forms every row's post-RoPE K/V and hands each
    chunk to ``write(layer_idx, lo, k, v)``, ``lo`` its first row, which
    writes it to the cache; pass 2 forms each chunk's queries and takes
    ``attend(layer_idx, lo, q)``'s attention output ``(len(q), n_heads,
    head_dim)`` through ``wo``, the FFN and the residual.  Every projection
    goes through :func:`_rowwise_matmul` and every other op is row-local, so
    a row's bytes never depend on how many rows ride the same call or chunk
    — a one-token prefill, a decode step and a verify chunk all take the
    GEMM route.

    ``keep_from`` cuts the rows nobody reads.  Every row's K/V is needed in
    every layer, but past the last layer's ``wk``/``wv`` a row feeds only its
    own logits: there pass 2, the final norm and the LM head run on rows
    ``keep_from:`` alone (the first of its chunks starts at ``keep_from``).
    The kept rows' bytes are those of ``keep_from = 0`` whenever
    ``attend``'s are — the prefill kernel's, for a cut on a query-block
    boundary.
    """
    cfg = model.config
    weights = model.weights
    rope = model.rope
    rows = token_ids.shape[0]
    step = chunk or max(rows, 1)
    hidden = weights.embedding[token_ids]
    cos, sin = rope.cos_sin(positions)  # one table per forward, not per use
    last = len(weights.layers) - 1
    for layer_idx, layer in enumerate(weights.layers):
        for kv_from in range(0, rows, step):
            at = slice(kv_from, kv_from + step)
            kv_in = rms_norm(hidden[at], layer.attn_norm)
            n = kv_in.shape[0]
            k = _rowwise_matmul(kv_in, layer.wk).reshape(n, cfg.n_kv_heads, cfg.head_dim)
            v = _rowwise_matmul(kv_in, layer.wv).reshape(n, cfg.n_kv_heads, cfg.head_dim)
            write(layer_idx, kv_from, apply_rope(k, positions[at], rope, (cos[at], sin[at])), v)
        lo = keep_from if layer_idx == last else 0
        while lo < rows:
            at = slice(lo, (lo // step + 1) * step)
            lo = at.stop
            h = hidden[at]  # a view: the residual adds land in place
            # The last K/V chunk's norm is still at hand: a decode step's only one.
            attn_in = kv_in[at.start - kv_from :] if at.start >= kv_from else rms_norm(h, layer.attn_norm)
            n = attn_in.shape[0]
            q = _rowwise_matmul(attn_in, layer.wq).reshape(n, cfg.n_heads, cfg.head_dim)
            attn_out = attend(layer_idx, at.start, apply_rope(q, positions[at], rope, (cos[at], sin[at])))
            h += _rowwise_matmul(attn_out.reshape(n, cfg.hidden_size), layer.wo)
            ffn_in = rms_norm(h, layer.ffn_norm)
            gate = silu(_rowwise_matmul(ffn_in, layer.w_gate)) * _rowwise_matmul(ffn_in, layer.w_up)
            h += _rowwise_matmul(gate, layer.w_down)

    hidden = rms_norm(hidden[keep_from:], weights.final_norm)
    return _rowwise_matmul(hidden, weights.lm_head)
