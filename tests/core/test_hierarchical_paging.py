"""Tests for hierarchical paging and the Eq. 2 importance score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical_paging import (
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from tests.oracle import compute_page_key_stats


class TestLogicalPageScores:
    def test_upper_bounds_true_dot_products(self, rng):
        """Eq. 2 is an upper bound on q . k for every key in the page."""
        keys = rng.normal(size=(32, 2, 8))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=8)
        q = rng.normal(size=(2, 8))
        scores = logical_page_scores(q, kmin, kmax, gqa_group_size=1)
        for p in range(4):
            for h in range(2):
                true_dots = keys[p * 8 : (p + 1) * 8, h] @ q[h]
                assert scores[h, p] >= true_dots.max() - 1e-9

    def test_exact_for_single_token_pages(self, rng):
        keys = rng.normal(size=(5, 1, 4))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=1)
        q = rng.normal(size=(1, 4))
        scores = logical_page_scores(q, kmin, kmax)
        np.testing.assert_allclose(scores[0], keys[:, 0] @ q[0], rtol=1e-10)

    def test_gqa_group_max(self, rng):
        keys = rng.normal(size=(8, 1, 4))
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=4)
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
        kmin, kmax = compute_page_key_stats(keys, logical_page_size=4)
        q = rng.normal(size=(1, 6))
        scores = logical_page_scores(q, kmin, kmax)
        for p in range(4):
            assert scores[0, p] >= (keys[p * 4 : (p + 1) * 4, 0] @ q[0]).max() - 1e-9


    # Stats the scores are compared on (see ``scoring_case``).
    STATS = ["random", "integer-tied", "near-tied"]

    @staticmethod
    def scoring_case(rng, kind, batch, group, n_kv_heads=3, n_pages=23, dim=16):
        """A query and ``kmin <= kmax`` stats of one kind.

        ``integer-tied`` draws small integers: every product and sum is
        exact in any order, so scores tie constantly and both forms see the
        same ties.  ``near-tied`` pages copy one set of stats with each entry
        moved by 0-3 ulps, and each query head has at most two nonzero
        channels of ±1, ±2 or ±4: a score is then one correctly rounded sum
        of two exact products whatever the summation order, so pages a few
        ulps apart are ordered (or tied) alike by both forms.
        """
        shape = (*batch, n_pages, n_kv_heads, dim)
        if kind == "random":
            query = rng.normal(size=(*batch, n_kv_heads * group, dim))
            kmin = rng.normal(size=shape)
            return query, kmin, kmin + rng.random(size=shape)
        if kind == "integer-tied":
            query = rng.integers(-2, 3, size=(*batch, n_kv_heads * group, dim)).astype(float)
            kmin = rng.integers(-2, 2, size=shape).astype(float)
            return query, kmin, kmin + rng.integers(0, 3, size=shape)
        query = np.zeros((*batch, n_kv_heads * group, dim))
        for head in query.reshape(-1, dim):
            channels = rng.choice(dim, size=2, replace=False)
            head[channels] = rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0], size=2) * rng.integers(0, 2, size=2)
        low = rng.uniform(-1.5, 1.5, size=(n_kv_heads, dim))
        high = low + rng.uniform(0.25, 1.0, size=low.shape)

        def nudged(x):
            return x + rng.integers(0, 4, size=shape) * np.spacing(np.abs(x))

        return query, nudged(low), nudged(high)

    @pytest.mark.parametrize("kind", STATS)
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["one-query", "batch"])
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_close_to_the_elementwise_form(self, rng, kind, batch, group):
        """The GEMM ``[q⁺ | q⁻] @ [kmax | kmin]ᵀ`` is Eq. 2 summed in another order."""
        query, kmin, kmax = self.scoring_case(rng, kind, batch, group)
        np.testing.assert_allclose(
            logical_page_scores(query, kmin, kmax, gqa_group_size=group),
            elementwise_scores(query, kmin, kmax, group),
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("kind", STATS)
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["one-query", "batch"])
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_selects_the_elementwise_forms_pages(self, rng, kind, batch, group):
        """Top-k over the GEMM's scores keeps the pages the elementwise scores keep, ties included."""
        query, kmin, kmax = self.scoring_case(rng, kind, batch, group)
        scores = logical_page_scores(query, kmin, kmax, gqa_group_size=group)
        oracle = elementwise_scores(query, kmin, kmax, group)
        for lpp, budget in [(1, 6), (2, 5), (4, 3), (4, 2)]:
            np.testing.assert_array_equal(
                select_top_pages(physical_page_scores(scores, lpp), budget),
                select_top_pages(physical_page_scores(oracle, lpp), budget),
            )

    @pytest.mark.parametrize("kind", STATS)
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_a_member_scores_as_if_alone(self, rng, kind, group):
        """Each member of a batch gets bitwise the scores of scoring it alone."""
        query, kmin, kmax = self.scoring_case(rng, kind, (6,), group)
        batched = logical_page_scores(query, kmin, kmax, gqa_group_size=group)
        for i in range(6):
            np.testing.assert_array_equal(
                batched[i], logical_page_scores(query[i], kmin[i], kmax[i], gqa_group_size=group)
            )


def elementwise_scores(query, kmin, kmax, group):
    """Eq. 2 as the paper writes it (the test oracle): per-channel max, summed, a group's max."""
    batch, (n_kv_heads, dim) = query.shape[:-2], kmin.shape[-2:]
    q_grouped = query.reshape(*batch, 1, n_kv_heads, group, dim)
    per_channel = np.maximum(q_grouped * kmax[..., None, :], q_grouped * kmin[..., None, :])
    return np.swapaxes(per_channel.sum(axis=-1).max(axis=-1), -1, -2)


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
        """One logical page per physical page: a bitwise copy (flat selection scores through it)."""
        logical = rng.normal(size=(3, 7))
        physical = physical_page_scores(logical, 1)
        np.testing.assert_array_equal(physical, logical)
        assert not np.shares_memory(physical, logical)

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
