"""Tests for LServeConfig."""

from dataclasses import replace

import pytest

from repro.core.config import LServeConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = LServeConfig()
        assert cfg.streaming_head_ratio == 0.5
        assert cfg.token_budget == 4096
        assert cfg.logical_pages_per_physical == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(streaming_head_ratio=1.5),
            dict(streaming_head_ratio=-0.1),
            dict(sink_tokens=-1),
            dict(sink_tokens=65, physical_page_size=64),
            dict(local_tokens=0),
            dict(token_budget=0),
            dict(physical_page_size=0),
            dict(physical_page_size=48, logical_page_size=32),
            dict(reuse_interval=0),
            dict(kv_bits=3),
            dict(q_block_size=0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            LServeConfig(**kwargs)


class TestDerivedGeometry:
    def test_sink_and_local_pages(self):
        cfg = LServeConfig(sink_tokens=64, local_tokens=256, physical_page_size=64)
        assert cfg.sink_pages == 1
        assert cfg.local_pages == 4

    def test_sink_pages_at_least_one(self):
        cfg = LServeConfig(sink_tokens=0)
        assert cfg.sink_pages == 1

    def test_budget_pages(self):
        assert LServeConfig(token_budget=4096, physical_page_size=64).budget_pages == 64
        assert LServeConfig(token_budget=10, physical_page_size=16, logical_page_size=16, sink_tokens=16, local_tokens=8).budget_pages == 1

    def test_dynamic_sparsity_activation(self):
        cfg = LServeConfig(token_budget=4096)
        assert not cfg.dynamic_sparsity_active(4096)
        assert cfg.dynamic_sparsity_active(4097)
        off = LServeConfig(dynamic_sparsity_enabled=False)
        assert not off.dynamic_sparsity_active(100_000)


class TestFactories:
    def test_dense_baseline(self):
        cfg = LServeConfig.dense_baseline()
        assert cfg.streaming_head_ratio == 0.0
        assert not cfg.dynamic_sparsity_enabled
        assert cfg.kv_bits == 16

    def test_static_only(self):
        cfg = LServeConfig.static_only()
        assert cfg.streaming_head_ratio == 0.5
        assert not cfg.dynamic_sparsity_enabled

    def test_dynamic_only(self):
        cfg = LServeConfig.dynamic_only()
        assert cfg.streaming_head_ratio == 0.0
        assert cfg.dynamic_sparsity_enabled

    def test_replace_validates(self):
        cfg = LServeConfig()
        assert replace(cfg, token_budget=8192).token_budget == 8192
        with pytest.raises(ValueError):
            replace(cfg, token_budget=-1)
