"""Tests for the oracle of per-logical-page key statistics (what the pool folds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import compute_page_key_stats



class TestComputePageKeyStats:
    def test_single_full_page(self, rng):
        keys = rng.normal(size=(8, 2, 4))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=8)
        assert kmin.shape == kmax.shape == (1, 2, 4)
        np.testing.assert_array_equal(kmin[0], keys.min(axis=0))
        np.testing.assert_array_equal(kmax[0], keys.max(axis=0))

    def test_partial_last_page(self, rng):
        keys = rng.normal(size=(10, 2, 4))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=4)
        assert kmin.shape == (3, 2, 4)
        np.testing.assert_array_equal(kmin[2], keys[8:].min(axis=0))
        np.testing.assert_array_equal(kmax[2], keys[8:].max(axis=0))

    def test_bounds_contain_all_keys(self, rng):
        keys = rng.normal(size=(13, 3, 5))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=4)
        for i in range(kmin.shape[0]):
            chunk = keys[i * 4 : (i + 1) * 4]
            assert np.all(chunk >= kmin[i][None] - 1e-12)
            assert np.all(chunk <= kmax[i][None] + 1e-12)

    def test_coarse_pages_reduce_fine_ones(self, rng):
        """A 16-token page's stats are the min/max over its four 4-token pages."""
        keys = rng.normal(size=(16, 2, 4))
        fine_min, fine_max = compute_page_key_stats(keys, logical_page_size=4)
        flat_min, flat_max = compute_page_key_stats(keys, logical_page_size=16)
        np.testing.assert_array_equal(fine_min.min(axis=0), flat_min[0])
        np.testing.assert_array_equal(fine_max.max(axis=0), flat_max[0])

    def test_no_keys_no_pages(self):
        kmin, kmax = compute_page_key_stats(np.zeros((0, 2, 3)), 4)
        assert kmin.shape == kmax.shape == (0, 2, 3)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            compute_page_key_stats(rng.normal(size=(4, 4)), 2)
        with pytest.raises(ValueError):
            compute_page_key_stats(rng.normal(size=(4, 2, 2)), 0)

    @given(n=st.integers(1, 40), lps=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=30, deadline=None)
    def test_property_page_count(self, n, lps):
        rng = np.random.default_rng(n)
        keys = rng.normal(size=(n, 1, 2))
        kmin, kmax = compute_page_key_stats(keys, lps)
        assert kmin.shape == kmax.shape == (-(-n // lps), 1, 2)
        for page in range(kmin.shape[0]):
            chunk = keys[page * lps : (page + 1) * lps]
            np.testing.assert_array_equal(kmin[page], chunk.min(axis=0))
            np.testing.assert_array_equal(kmax[page], chunk.max(axis=0))
