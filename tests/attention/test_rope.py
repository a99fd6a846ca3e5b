"""Tests for rotary position embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.rope import RotaryEmbedding, apply_rope


@pytest.fixture()
def rope():
    return RotaryEmbedding(head_dim=16)


class TestRotaryEmbedding:
    def test_rejects_odd_head_dim(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=15)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=16, base=0.0)

    def test_position_zero_is_identity(self, rope, rng=np.random.default_rng(0)):
        x = rng.normal(size=(1, 2, 16))
        out = apply_rope(x, np.array([0]), rope)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_preserves_norm(self, rope):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3, 16))
        out = apply_rope(x, np.arange(5), rope)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-10
        )

    def test_relative_position_property(self, rope):
        """q(m) . k(n) depends only on m - n (the defining property of RoPE)."""
        rng = np.random.default_rng(9)
        q = rng.normal(size=(1, 1, 16))
        k = rng.normal(size=(1, 1, 16))
        def dot(m, n):
            qm = apply_rope(q, np.array([m]), rope)[0, 0]
            kn = apply_rope(k, np.array([n]), rope)[0, 0]
            return float(qm @ kn)
        np.testing.assert_allclose(dot(10, 4), dot(106, 100), rtol=1e-8)
        np.testing.assert_allclose(dot(3, 3), dot(50, 50), rtol=1e-8)

    def test_scaling_factor_stretches_positions(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 1, 16))
        base_rope = RotaryEmbedding(head_dim=16, scaling_factor=1.0)
        scaled = RotaryEmbedding(head_dim=16, scaling_factor=4.0)
        out_scaled = apply_rope(x, np.array([8]), scaled)
        out_base = apply_rope(x, np.array([2]), base_rope)
        np.testing.assert_allclose(out_scaled, out_base, rtol=1e-10)

    def test_prebuilt_table_rotates_identically(self, rope):
        """One ``cos_sin`` table handed to every call (as the engine's forward does) changes no bit."""
        rng = np.random.default_rng(6)
        positions = np.array([0, 7, 7, 4095])
        table = rope.cos_sin(positions)
        for n_heads in (8, 4):  # q and k share the table
            x = rng.normal(size=(4, n_heads, 16))
            np.testing.assert_array_equal(apply_rope(x, positions, rope, table), apply_rope(x, positions, rope))

    def test_shape_validation(self, rope):
        with pytest.raises(ValueError):
            apply_rope(np.zeros((3, 16)), np.arange(3), rope)
        with pytest.raises(ValueError):
            apply_rope(np.zeros((3, 2, 16)), np.arange(4), rope)
        with pytest.raises(ValueError):
            apply_rope(np.zeros((3, 2, 8)), np.arange(3), rope)

    @given(pos=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_norm_preserved_any_position(self, pos):
        rope = RotaryEmbedding(head_dim=8)
        rng = np.random.default_rng(pos)
        x = rng.normal(size=(1, 1, 8))
        out = apply_rope(x, np.array([pos]), rope)
        np.testing.assert_allclose(
            np.linalg.norm(out), np.linalg.norm(x), rtol=1e-9
        )
