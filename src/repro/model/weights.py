"""Deterministic synthetic weights for the NumPy transformer.

There are no pretrained checkpoints available in this environment, so the
functional tests and examples run a :class:`~repro.model.transformer.TinyTransformer`
whose weights are drawn from a seeded Gaussian with fan-in scaling.  The point
of the functional path is to exercise the *attention data path* (paged KV
cache, block-sparse kernels, page selection), for which any fixed weights
suffice; accuracy experiments use the synthetic retrieval harness instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.configs import ModelConfig

__all__ = ["LayerWeights", "SyntheticWeights"]


@dataclass
class LayerWeights:
    """Weights of a single transformer layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    attn_norm: np.ndarray
    ffn_norm: np.ndarray


@dataclass
class SyntheticWeights:
    """Deterministic per-layer weights generated from ``seed``."""

    config: ModelConfig
    seed: int = 0
    layers: list[LayerWeights] = field(default_factory=list, init=False)
    embedding: np.ndarray = field(default=None, init=False)  # type: ignore[assignment]
    final_norm: np.ndarray = field(default=None, init=False)  # type: ignore[assignment]
    lm_head: np.ndarray = field(default=None, init=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        cfg = self.config
        h, kv, inter = cfg.hidden_size, cfg.kv_dim, cfg.intermediate_size

        def init(fan_in: int, fan_out: int) -> np.ndarray:
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))

        self.embedding = rng.normal(0.0, 0.02, size=(cfg.vocab_size, h))
        self.final_norm = np.ones(h)
        self.lm_head = init(h, cfg.vocab_size)
        self.layers = [
            LayerWeights(
                wq=init(h, h),
                wk=init(h, kv),
                wv=init(h, kv),
                wo=init(h, h),
                w_gate=init(h, inter),
                w_up=init(h, inter),
                w_down=init(inter, h),
                attn_norm=np.ones(h),
                ffn_norm=np.ones(h),
            )
            for _ in range(cfg.n_layers)
        ]
