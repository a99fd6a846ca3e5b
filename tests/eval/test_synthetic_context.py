"""Tests for the synthetic long-context generator."""

import numpy as np
import pytest

from repro.eval.synthetic_context import generate_needle_context


class TestGenerator:
    def test_shapes_and_determinism(self):
        ctx = generate_needle_context(1024, 0.5, seed=3)
        assert ctx.keys.shape == (1024, 1, 64)
        assert ctx.query.shape == (1, 64)
        ctx2 = generate_needle_context(1024, 0.5, seed=3)
        np.testing.assert_array_equal(ctx.keys, ctx2.keys)
        ctx3 = generate_needle_context(1024, 0.5, seed=4)
        assert not np.allclose(ctx.keys, ctx3.keys)

    def test_needle_position_respects_depth(self):
        shallow = generate_needle_context(2048, 0.0, needle_length=8)
        deep = generate_needle_context(2048, 1.0, needle_length=8)
        middle = generate_needle_context(2048, 0.5, needle_length=8)
        assert shallow.needle_positions[0] == 0
        assert deep.needle_positions[-1] == 2047
        assert 900 < middle.needle_positions[0] < 1100

    def test_needle_tokens_align_with_query(self):
        ctx = generate_needle_context(2048, 0.5, seed=1)
        dots = np.einsum("td,d->t", ctx.keys[:, 0, :], ctx.query[0])
        needle_mean = dots[ctx.needle_positions].mean()
        haystack = np.delete(dots, ctx.needle_positions)
        assert needle_mean > haystack.mean() + 5 * haystack.std()

    def test_haystack_locality(self):
        """Adjacent haystack keys are positively correlated (AR(1) structure)."""
        ctx = generate_needle_context(4096, 0.0, needle_length=1, spike_rate=0.0, seed=2)
        keys = ctx.keys[10:, 0, :]
        sims = np.sum(keys[1:] * keys[:-1], axis=1) / (
            np.linalg.norm(keys[1:], axis=1) * np.linalg.norm(keys[:-1], axis=1)
        )
        assert sims.mean() > 0.5

    def test_extra_needles(self):
        ctx = generate_needle_context(2048, 0.5, n_extra_needles=3, seed=5)
        assert len(ctx.extra_needles) == 3
        assert len(ctx.needle_directions) == 4

    def test_distinct_directions(self):
        ctx = generate_needle_context(
            2048, 0.5, n_extra_needles=2, distinct_extra_directions=True, seed=6
        )
        d0, d1 = ctx.needle_directions[0], ctx.needle_directions[1]
        assert abs(float(d0 @ d1)) < 0.5
        q1 = ctx.query_for_needle(1)
        assert q1.shape == ctx.query.shape

    def test_needle_recall(self):
        ctx = generate_needle_context(256, 0.5, needle_length=8, seed=7)
        assert ctx.needle_recall(np.arange(256)) == 1.0
        assert ctx.needle_recall(np.array([])) == 0.0
        half = ctx.needle_positions[:4]
        assert ctx.needle_recall(half) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_needle_context(0, 0.5)
        with pytest.raises(ValueError):
            generate_needle_context(100, 1.5)
        with pytest.raises(ValueError):
            generate_needle_context(100, 0.5, needle_length=200)
