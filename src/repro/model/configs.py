"""Transformer architecture configurations.

The latency experiments in the paper (Figures 2, 10, 11, 12, 14, 15, 16 and
Tables 1, 5, 7) depend only on the model *shape* — number of layers, heads,
KV heads, head dimension, hidden/intermediate sizes.  These configs mirror the
published architectures of the models the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ModelConfig",
    "LLAMA_3_8B",
    "LLAMA_2_7B",
    "MINITRON_4B",
    "DS_R1_LLAMA_8B",
    "MODEL_REGISTRY",
    "get_model_config",
    "tiny_model_config",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a decoder-only transformer."""

    name: str
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    hidden_size: int
    intermediate_size: int
    vocab_size: int
    max_context_length: int
    rope_base: float = 10_000.0
    rope_scaling: float = 1.0

    def __post_init__(self) -> None:
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads "
                f"({self.n_kv_heads})"
            )
        if self.hidden_size != self.n_heads * self.head_dim:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must equal n_heads * head_dim "
                f"({self.n_heads * self.head_dim})"
            )
        for field_name in (
            "n_layers",
            "n_heads",
            "n_kv_heads",
            "head_dim",
            "hidden_size",
            "intermediate_size",
            "vocab_size",
            "max_context_length",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    # -- derived quantities ------------------------------------------------
    @property
    def gqa_group_size(self) -> int:
        """Number of query heads sharing each KV head."""
        return self.n_heads // self.n_kv_heads

    @property
    def kv_dim(self) -> int:
        """Width of the key (or value) projection output."""
        return self.n_kv_heads * self.head_dim

    def kv_bytes_per_token(self, bytes_per_element: float = 2.0) -> float:
        """KV-cache bytes per token across all layers (keys + values)."""
        return 2.0 * self.n_layers * self.kv_dim * bytes_per_element

    def linear_weight_bytes(self, bytes_per_element: float = 2.0) -> float:
        """Total weight bytes of all linear layers (used for decode memory traffic)."""
        per_layer = (
            self.hidden_size * self.hidden_size  # Q
            + 2 * self.hidden_size * self.kv_dim  # K, V
            + self.hidden_size * self.hidden_size  # O
            + 3 * self.hidden_size * self.intermediate_size  # SwiGLU
        )
        total = self.n_layers * per_layer + self.hidden_size * self.vocab_size
        return total * bytes_per_element


# Published architectures ---------------------------------------------------

LLAMA_3_8B = ModelConfig(
    name="Llama-3-8B",
    n_layers=32,
    n_heads=32,
    n_kv_heads=8,
    head_dim=128,
    hidden_size=4096,
    intermediate_size=14336,
    vocab_size=128_256,
    max_context_length=524_288,
    rope_base=500_000.0,
    rope_scaling=4.0,
)

LLAMA_2_7B = ModelConfig(
    name="Llama-2-7B",
    n_layers=32,
    n_heads=32,
    n_kv_heads=32,
    head_dim=128,
    hidden_size=4096,
    intermediate_size=11008,
    vocab_size=32_000,
    max_context_length=262_144,
    rope_base=10_000.0,
    rope_scaling=8.0,
)

MINITRON_4B = ModelConfig(
    name="Minitron-4B",
    n_layers=32,
    n_heads=24,
    n_kv_heads=8,
    head_dim=128,
    hidden_size=3072,
    intermediate_size=9216,
    vocab_size=256_000,
    max_context_length=524_288,
    rope_base=500_000.0,
    rope_scaling=4.0,
)

DS_R1_LLAMA_8B = ModelConfig(
    name="DeepSeek-R1-Distill-Llama-8B",
    n_layers=32,
    n_heads=32,
    n_kv_heads=8,
    head_dim=128,
    hidden_size=4096,
    intermediate_size=14336,
    vocab_size=128_256,
    max_context_length=131_072,
    rope_base=500_000.0,
    rope_scaling=1.0,
)

MODEL_REGISTRY: dict[str, ModelConfig] = {
    cfg.name: cfg for cfg in (LLAMA_3_8B, LLAMA_2_7B, MINITRON_4B, DS_R1_LLAMA_8B)
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a registered architecture by name (case-insensitive)."""
    for key, cfg in MODEL_REGISTRY.items():
        if key.lower() == name.lower():
            return cfg
    raise KeyError(
        f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
    )


def tiny_model_config(
    n_layers: int = 2,
    n_heads: int = 4,
    n_kv_heads: int = 2,
    head_dim: int = 16,
    intermediate_size: int = 128,
    vocab_size: int = 512,
    max_context_length: int = 4096,
    name: str = "tiny",
) -> ModelConfig:
    """Small configuration for functional tests and examples."""
    return ModelConfig(
        name=name,
        n_layers=n_layers,
        n_heads=n_heads,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        hidden_size=n_heads * head_dim,
        intermediate_size=intermediate_size,
        vocab_size=vocab_size,
        max_context_length=max_context_length,
    )
