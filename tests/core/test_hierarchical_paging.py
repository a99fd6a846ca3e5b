"""Tests for hierarchical paging and the Eq. 2 importance score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical_paging import (
    HierarchicalPagingConfig,
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from repro.kvcache.kv_stats import compute_page_key_stats


class TestConfig:
    def test_defaults(self):
        cfg = HierarchicalPagingConfig()
        assert cfg.logical_pages_per_physical == 4
        assert cfg.budget_pages == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalPagingConfig(physical_page_size=48, logical_page_size=32)
        with pytest.raises(ValueError):
            HierarchicalPagingConfig(token_budget=0)

    def test_budget_at_least_one_page(self):
        assert HierarchicalPagingConfig(
            physical_page_size=64, logical_page_size=16, token_budget=10
        ).budget_pages == 1


class TestLogicalPageScores:
    def test_upper_bounds_true_dot_products(self, rng):
        """Eq. 2 is an upper bound on q . k for every key in the page."""
        keys = rng.normal(size=(32, 2, 8))
        stats = compute_page_key_stats(keys, logical_page_size=8)
        kmin = np.stack([s.kmin for s in stats])
        kmax = np.stack([s.kmax for s in stats])
        q = rng.normal(size=(2, 8))
        scores = logical_page_scores(q, kmin, kmax, gqa_group_size=1)
        for p in range(4):
            for h in range(2):
                true_dots = keys[p * 8 : (p + 1) * 8, h] @ q[h]
                assert scores[h, p] >= true_dots.max() - 1e-9

    def test_exact_for_single_token_pages(self, rng):
        keys = rng.normal(size=(5, 1, 4))
        stats = compute_page_key_stats(keys, logical_page_size=1)
        kmin = np.stack([s.kmin for s in stats])
        kmax = np.stack([s.kmax for s in stats])
        q = rng.normal(size=(1, 4))
        scores = logical_page_scores(q, kmin, kmax)
        np.testing.assert_allclose(scores[0], keys[:, 0] @ q[0], rtol=1e-10)

    def test_gqa_group_max(self, rng):
        keys = rng.normal(size=(8, 1, 4))
        stats = compute_page_key_stats(keys, logical_page_size=4)
        kmin = np.stack([s.kmin for s in stats])
        kmax = np.stack([s.kmax for s in stats])
        q = rng.normal(size=(2, 4))  # two query heads sharing one KV head
        grouped = logical_page_scores(q, kmin, kmax, gqa_group_size=2)
        h0 = logical_page_scores(q[:1], kmin, kmax)
        h1 = logical_page_scores(q[1:], kmin, kmax)
        np.testing.assert_allclose(grouped, np.maximum(h0, h1))

    def test_empty_pages(self, rng):
        q = rng.normal(size=(2, 4))
        scores = logical_page_scores(q, np.zeros((0, 2, 4)), np.zeros((0, 2, 4)))
        assert scores.shape == (2, 0)

    def test_validation(self, rng):
        q = rng.normal(size=(2, 4))
        stats = np.zeros((3, 2, 4))
        with pytest.raises(ValueError):
            logical_page_scores(q[0], stats, stats)
        with pytest.raises(ValueError):
            logical_page_scores(q, stats, np.zeros((3, 2, 5)))
        with pytest.raises(ValueError):
            logical_page_scores(q, stats, stats, gqa_group_size=3)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(16, 1, 6))
        stats = compute_page_key_stats(keys, logical_page_size=4)
        kmin = np.stack([s.kmin for s in stats])
        kmax = np.stack([s.kmax for s in stats])
        q = rng.normal(size=(1, 6))
        scores = logical_page_scores(q, kmin, kmax)
        for p in range(4):
            assert scores[0, p] >= (keys[p * 4 : (p + 1) * 4, 0] @ q[0]).max() - 1e-9


    @pytest.mark.parametrize("batch", [(), (5,)], ids=["one-query", "batch"])
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_equals_the_one_expression_form(self, rng, batch, group):
        """Looping over a group's query heads moves no bit of the five-axis broadcast it replaced."""
        n_kv_heads, n_pages, dim = 3, 11, 16
        query = rng.normal(size=(*batch, n_kv_heads * group, dim))
        kmin = rng.normal(size=(*batch, n_pages, n_kv_heads, dim))
        kmax = kmin + rng.random(size=kmin.shape)
        q_grouped = query.reshape(*batch, 1, n_kv_heads, group, dim)
        per_channel = np.maximum(q_grouped * kmax[..., None, :], q_grouped * kmin[..., None, :])
        expected = np.swapaxes(per_channel.sum(axis=-1).max(axis=-1), -1, -2)
        np.testing.assert_array_equal(logical_page_scores(query, kmin, kmax, gqa_group_size=group), expected)


class TestPhysicalPageScores:
    def test_max_reduction(self):
        logical = np.array([[1.0, 5.0, 2.0, 3.0, 7.0, 0.0]])
        phys = physical_page_scores(logical, logical_pages_per_physical=2)
        np.testing.assert_allclose(phys, [[5.0, 3.0, 7.0]])

    def test_partial_trailing_physical_page(self):
        logical = np.array([[1.0, 2.0, 9.0]])
        phys = physical_page_scores(logical, 2)
        np.testing.assert_allclose(phys, [[2.0, 9.0]])

    @pytest.mark.parametrize("n_logical", [12, 11], ids=["whole-pages", "partial-tail"])
    def test_equals_the_padded_form(self, rng, n_logical):
        """A whole number of physical pages max-reduces a reshape, with no ``-inf`` padding: same maxima."""
        logical = np.swapaxes(rng.normal(size=(5, n_logical, 3)), -1, -2)  # as logical_page_scores returns it
        padded = np.full((5, 3, 12), -np.inf)
        padded[..., :n_logical] = logical
        expected = padded.reshape(5, 3, 3, 4).max(axis=-1)
        np.testing.assert_array_equal(physical_page_scores(logical, 4), expected)

    def test_identity_when_ratio_one(self, rng):
        logical = rng.normal(size=(3, 7))
        np.testing.assert_allclose(physical_page_scores(logical, 1), logical)

    def test_empty(self):
        assert physical_page_scores(np.zeros((2, 0)), 4).shape == (2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            physical_page_scores(np.zeros(3), 2)
        with pytest.raises(ValueError):
            physical_page_scores(np.zeros((1, 4)), 0)


class TestSelectTopPages:
    def test_selects_highest_scores(self):
        scores = np.array([[0.0, 10.0, 1.0, 9.0, 2.0, 3.0]])
        sel = select_top_pages(scores, budget_pages=4, sink_pages=1, local_pages=1)
        np.testing.assert_array_equal(sel[0], [0, 1, 3, 5])

    def test_budget_covers_everything(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        sel = select_top_pages(scores, budget_pages=8)
        np.testing.assert_array_equal(sel[0], [0, 1, 2])

    def test_sink_and_local_always_kept(self, rng):
        scores = rng.normal(size=(2, 20))
        scores[:, 0] = -100.0
        scores[:, -1] = -100.0
        sel = select_top_pages(scores, budget_pages=5, sink_pages=1, local_pages=1)
        for per_head in sel:
            assert 0 in per_head and 19 in per_head
            assert len(per_head) == 5

    def test_budget_respected_per_head(self, rng):
        scores = rng.normal(size=(3, 50))
        sel = select_top_pages(scores, budget_pages=7, sink_pages=2, local_pages=2)
        assert all(len(p) == 7 for p in sel)

    def test_tiny_budget_keeps_newest_page(self, rng):
        scores = rng.normal(size=(1, 10))
        sel = select_top_pages(scores, budget_pages=2, sink_pages=2, local_pages=2)
        assert len(sel[0]) == 2
        assert 9 in sel[0]

    def test_sorted_output(self, rng):
        scores = rng.normal(size=(1, 30))
        sel = select_top_pages(scores, budget_pages=10)[0]
        assert np.all(np.diff(sel) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_top_pages(np.zeros(4), 2)
        with pytest.raises(ValueError):
            select_top_pages(np.zeros((1, 4)), 0)
        with pytest.raises(ValueError):
            select_top_pages(np.zeros((1, 4)), 2, sink_pages=-1)

    @given(seed=st.integers(0, 500), budget=st.integers(1, 12), n_pages=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_property_budget_and_validity(self, seed, budget, n_pages):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(2, n_pages))
        sel = select_top_pages(scores, budget_pages=budget, sink_pages=1, local_pages=1)
        for per_head in sel:
            assert len(per_head) <= max(budget, n_pages if n_pages <= budget else budget)
            assert len(set(per_head.tolist())) == len(per_head)
            if n_pages > 0:
                assert per_head.min() >= 0 and per_head.max() < n_pages
