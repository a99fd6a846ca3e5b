"""Model substrate: architecture configs, synthetic weights, toy tokenizer,
and a NumPy transformer (its weights and RoPE) with the one layer loop that
serving and head calibration run."""

from repro.model.configs import (
    ModelConfig,
    LLAMA_3_8B,
    LLAMA_2_7B,
    MINITRON_4B,
    DS_R1_LLAMA_8B,
    MODEL_REGISTRY,
    get_model_config,
    tiny_model_config,
)
from repro.model.tokenizer import ToyTokenizer
from repro.model.weights import SyntheticWeights
from repro.model.transformer import TinyTransformer, run_layers

__all__ = [
    "ModelConfig",
    "LLAMA_3_8B",
    "LLAMA_2_7B",
    "MINITRON_4B",
    "DS_R1_LLAMA_8B",
    "MODEL_REGISTRY",
    "get_model_config",
    "tiny_model_config",
    "ToyTokenizer",
    "SyntheticWeights",
    "TinyTransformer",
    "run_layers",
]
