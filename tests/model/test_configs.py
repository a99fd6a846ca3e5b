"""Tests for model architecture configurations."""

import pytest

from repro.model.configs import (
    DS_R1_LLAMA_8B,
    LLAMA_2_7B,
    LLAMA_3_8B,
    MINITRON_4B,
    MODEL_REGISTRY,
    ModelConfig,
    get_model_config,
    tiny_model_config,
)


class TestRegisteredConfigs:
    def test_llama3_is_gqa(self):
        assert LLAMA_3_8B.gqa_group_size == 4
        assert LLAMA_3_8B.kv_dim == 1024

    def test_llama2_is_mha(self):
        assert LLAMA_2_7B.gqa_group_size == 1

    def test_registry_contains_all_paper_models(self):
        assert set(MODEL_REGISTRY) == {
            "Llama-3-8B",
            "Llama-2-7B",
            "Minitron-4B",
            "DeepSeek-R1-Distill-Llama-8B",
        }

    def test_lookup_case_insensitive(self):
        assert get_model_config("llama-3-8b") is LLAMA_3_8B

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model_config("gpt-17")

    def test_kv_bytes_per_token_llama3_fp16(self):
        # 2 (K+V) * 32 layers * 1024 dims * 2 bytes = 131072 bytes per token.
        assert LLAMA_3_8B.kv_bytes_per_token(2.0) == pytest.approx(131072)

    def test_kv_cache_smaller_for_gqa_than_mha(self):
        assert LLAMA_3_8B.kv_bytes_per_token() < LLAMA_2_7B.kv_bytes_per_token()

    def test_minitron_smaller_than_llama3(self):
        assert MINITRON_4B.linear_weight_bytes() < LLAMA_3_8B.linear_weight_bytes()

    def test_ds_r1_shares_llama3_architecture(self):
        assert DS_R1_LLAMA_8B.n_heads == LLAMA_3_8B.n_heads
        assert DS_R1_LLAMA_8B.kv_dim == LLAMA_3_8B.kv_dim


class TestValidation:
    def test_heads_divisible_by_kv_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", n_layers=1, n_heads=6, n_kv_heads=4, head_dim=8,
                hidden_size=48, intermediate_size=64, vocab_size=10,
                max_context_length=128,
            )

    def test_hidden_size_consistency(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", n_layers=1, n_heads=4, n_kv_heads=4, head_dim=8,
                hidden_size=64, intermediate_size=64, vocab_size=10,
                max_context_length=128,
            )

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            tiny_model_config(n_layers=0)

    def test_tiny_config_valid(self):
        cfg = tiny_model_config()
        assert cfg.hidden_size == cfg.n_heads * cfg.head_dim
        assert cfg.gqa_group_size == 2
