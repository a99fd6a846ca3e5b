"""Retrieval / streaming head identification (paper §3.3, following DuoAttention).

DuoAttention learns a gate value ``α ∈ [0, 1]`` per attention head by
minimising the distortion introduced when the head's full-attention output is
replaced by a mixture ``α · O_full + (1 - α) · O_streaming`` under an L1
penalty pushing gates toward zero.  Heads whose output changes little when
restricted to the Λ mask end up with small gates (streaming heads); heads that
genuinely retrieve from the middle of the context keep gates near one
(retrieval heads).  A sparsity quantile then thresholds the gates (e.g. the
median for 50% streaming heads).

With the mixture objective

``L(α) = ‖(1 - α) · (O_full - O_stream)‖² + λ · α``

the per-head minimiser has the closed form ``α* = clip(1 - λ / (2‖D‖²), 0, 1)``
where ``D = O_full - O_stream`` is accumulated over a calibration set.  We use
that closed form rather than stochastic gradient descent; it preserves the
ordering DuoAttention's optimisation produces (heads are ranked by how much
their output depends on non-local context), which is all the quantile
threshold consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attention.dense import dense_attention
from repro.attention.masks import streaming_mask
from repro.model.transformer import TinyTransformer, run_layers

__all__ = [
    "HeadClassification",
    "optimize_gate_values",
    "collect_head_gates",
    "classify_heads",
]


@dataclass(frozen=True)
class HeadClassification:
    """Result of head classification.

    ``gate_values`` has shape ``(n_layers, n_kv_heads)``;
    ``streaming_mask`` marks KV heads converted to streaming heads.
    """

    gate_values: np.ndarray
    streaming_mask: np.ndarray
    threshold: float


def optimize_gate_values(
    full_output: np.ndarray, streaming_output: np.ndarray, penalty: float = 1e-2
) -> np.ndarray:
    """Closed-form DuoAttention gate values per head.

    ``full_output`` and ``streaming_output`` have shape
    ``(n_tokens, n_heads, head_dim)``.  Returns gates in ``[0, 1]`` of shape
    ``(n_heads,)``; larger means "retrieval head".
    """
    full_output = np.asarray(full_output, dtype=np.float64)
    streaming_output = np.asarray(streaming_output, dtype=np.float64)
    if full_output.shape != streaming_output.shape:
        raise ValueError("full and streaming outputs must have the same shape")
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    diff = full_output - streaming_output
    # Mean squared deviation per head, normalised by the output scale so the
    # penalty has a comparable effect across heads.
    dist = np.mean(diff**2, axis=(0, 2))
    scale = np.mean(full_output**2, axis=(0, 2)) + 1e-12
    normalised = dist / scale
    gates = 1.0 - penalty / (2.0 * np.maximum(normalised, 1e-12))
    return np.clip(gates, 0.0, 1.0)


def collect_head_gates(
    model: TinyTransformer,
    calibration_tokens: np.ndarray,
    sink_tokens: int,
    local_tokens: int,
    penalty: float = 1e-2,
) -> np.ndarray:
    """Run the calibration pass and return per-layer, per-KV-head gate values.

    One dense pass of the model's layer loop (:func:`run_layers`) over the
    calibration tokens: each layer's post-RoPE q, k and v are compared under
    full causal attention and under the streaming (``sink_tokens`` +
    ``local_tokens``) Λ mask per head, and query-head gates are averaged
    within each GQA group (classification is at KV-head granularity,
    matching the two-way KV cache).  The full-attention output feeds the
    next layer, so the pass needs the model alone: it runs before an engine
    builds its pools from the head split it decides.
    """
    cfg = model.config
    tokens = np.asarray(calibration_tokens)
    kv: list[np.ndarray] = []
    gates = np.zeros((cfg.n_layers, cfg.n_kv_heads))

    def write(layer_idx, lo, k, v):
        kv[:] = k, v

    def attend(layer_idx, lo, q):
        n = q.shape[0]
        full = dense_attention(q, *kv, causal=True)
        stream = dense_attention(q, *kv, mask=streaming_mask(n, n, sink_tokens, local_tokens))
        per_query_head = optimize_gate_values(full, stream, penalty=penalty)
        gates[layer_idx] = per_query_head.reshape(cfg.n_kv_heads, cfg.gqa_group_size).mean(axis=1)
        return full

    run_layers(model, tokens, np.arange(len(tokens)), write, attend)
    return gates


def classify_heads(gate_values: np.ndarray, sparsity: float = 0.5) -> HeadClassification:
    """Threshold gate values at the sparsity quantile (paper §3.3).

    ``sparsity`` is the target fraction of streaming heads; the threshold τ is
    the corresponding quantile of all gate values, so exactly that fraction of
    heads (up to ties) falls below it and is converted to streaming heads.
    """
    gates = np.asarray(gate_values, dtype=np.float64)
    if gates.ndim == 1:
        gates = gates[None]
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    flat = gates.ravel()
    if sparsity == 0.0:
        threshold = -np.inf
        streaming = np.zeros_like(gates, dtype=bool)
    elif sparsity == 1.0:
        threshold = np.inf
        streaming = np.ones_like(gates, dtype=bool)
    else:
        threshold = float(np.quantile(flat, sparsity))
        streaming = gates < threshold
        # Quantile ties can under-shoot the target count; fill up with the
        # smallest remaining gates to honour the requested sparsity.
        target = int(round(sparsity * flat.size))
        if streaming.sum() < target:
            order = np.argsort(flat, kind="stable")
            fill = [i for i in order if not streaming.ravel()[i]][: target - int(streaming.sum())]
            flat_mask = streaming.ravel()
            flat_mask[fill] = True
            streaming = flat_mask.reshape(gates.shape)
    return HeadClassification(
        gate_values=gates, streaming_mask=streaming, threshold=float(threshold)
    )
