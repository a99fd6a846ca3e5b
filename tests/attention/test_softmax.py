"""Tests for the numerically stable softmax helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attention.softmax import NEG_INF, softmax


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_matches_naive_definition(self):
        x = np.array([0.5, -1.0, 2.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), expected, rtol=1e-12)

    def test_invariant_to_constant_shift(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-12)

    def test_large_values_do_not_overflow(self):
        x = np.array([1e5, 1e5 + 1.0])
        out = softmax(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_fully_masked_row_returns_zeros(self):
        x = np.full((2, 4), NEG_INF)
        out = softmax(x)
        np.testing.assert_array_equal(out, np.zeros_like(x))

    def test_partially_masked_row(self):
        x = np.array([1.0, NEG_INF, 2.0])
        out = softmax(x)
        assert out[1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_axis_argument(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        out0 = softmax(x, axis=0)
        np.testing.assert_allclose(out0.sum(axis=0), 1.0)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_rows_sum_to_one_and_nonnegative(self, x):
        out = softmax(x)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)

    @given(
        hnp.arrays(np.float64, (5,), elements=st.floats(-30, 30)),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_monotonic(self, x):
        # Softmax is order-preserving: sorting inputs sorts outputs.
        out = softmax(x)
        order = np.argsort(x, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)
