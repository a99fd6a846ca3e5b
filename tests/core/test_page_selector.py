"""Tests for the (reusable) dynamic page selector."""

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.hierarchical_paging import (
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from repro.core.page_selector import PageSelector, ReusablePageSelector
from tests.oracle import compute_page_key_stats


def make_config(token_budget=32, physical=16, logical=4, sink_pages=1, local_pages=1, reuse_interval=4):
    """A geometry whose sink and local windows are whole physical pages."""
    return LServeConfig(
        physical_page_size=physical,
        logical_page_size=logical,
        token_budget=token_budget,
        sink_tokens=sink_pages * physical,
        local_tokens=local_pages * physical,
        reuse_interval=reuse_interval,
    )


def make_selector(**kwargs) -> PageSelector:
    return PageSelector(make_config(**kwargs))


def select_one(selector, query, kmin, kmax, gqa_group_size=1):
    """One decode query's selection: a batch of one."""
    return selector.select_batch(query[None], kmin[None], kmax[None], gqa_group_size=gqa_group_size)[0]


class TestPageSelector:
    def test_selects_needle_page(self, rng):
        """A page containing keys aligned with the query must be selected."""
        n_tokens, n_kv_heads, dim = 256, 1, 16
        keys = rng.normal(scale=0.1, size=(n_tokens, n_kv_heads, dim))
        q = rng.normal(size=(1, dim))
        needle_slice = slice(130, 140)
        keys[needle_slice, 0] = q[0] * 2.0  # strongly aligned with the query
        kmin, kmax = compute_page_key_stats(keys, 4)
        selector = make_selector(token_budget=64, physical=16, logical=4)
        selection = select_one(selector, q, kmin, kmax)
        needle_pages = {130 // 16, 139 // 16}
        assert needle_pages <= set(selection.pages[0].tolist())

    def test_selection_respects_budget(self, rng):
        keys = rng.normal(size=(512, 2, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        q = rng.normal(size=(2, 8))
        selector = make_selector(token_budget=64, physical=16, logical=4)
        selection = select_one(selector, q, kmin, kmax)
        assert selection.pages.shape == (2, 4)  # 64-token budget / 16-token pages
        assert selection.n_physical_pages == 32

    def test_short_context_keeps_all_pages(self, rng):
        keys = rng.normal(size=(24, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        q = rng.normal(size=(1, 8))
        selector = make_selector(token_budget=64, physical=16, logical=4)
        selection = select_one(selector, q, kmin, kmax)
        np.testing.assert_array_equal(selection.pages[0], [0, 1])
        assert selection.n_physical_pages == 2

    def test_counts_invocations(self, rng):
        keys = rng.normal(size=(64, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        q = rng.normal(size=(1, 8))
        selector = make_selector()
        for _ in range(3):
            select_one(selector, q, kmin, kmax)
        assert selector.num_invocations == 3

    @pytest.mark.parametrize("sink_pages,local_pages", [(1, 3), (3, 1), (2, 4), (4, 2)])
    def test_windows_come_from_the_config(self, rng, sink_pages, local_pages):
        """The always-kept leading and trailing pages are the config's sink and
        local pages, each on its own side, under the config's budget."""
        config = make_config(token_budget=128, sink_pages=sink_pages, local_pages=local_pages)
        selector = PageSelector(config)
        assert (selector.sink_pages, selector.local_pages) == (config.sink_pages, config.local_pages)
        assert selector.budget_pages == config.budget_pages == 8
        keys = rng.normal(size=(320, 2, 8))  # 20 physical pages
        kmin, kmax = compute_page_key_stats(keys, 4)
        selection = select_one(selector, rng.normal(size=(2, 8)), kmin, kmax)
        assert selection.pages.shape == (2, 8)
        always = set(range(sink_pages)) | set(range(20 - local_pages, 20))
        for pages in selection.pages:
            assert always <= set(pages.tolist())

    def test_the_default_group_is_one_query_head_per_kv_head(self, rng):
        """Left at its default (the accuracy harness leaves it there), every
        query head scores the pages of its own KV head."""
        kmin, kmax = compute_page_key_stats(rng.normal(size=(320, 4, 8)), 4)
        q = rng.normal(size=(4, 8))
        selector = make_selector(token_budget=64)
        got = selector.select_batch(q[None], kmin[None], kmax[None])[0]
        np.testing.assert_array_equal(got.pages, select_one(selector, q, kmin, kmax, gqa_group_size=1).pages)


class TestReusablePageSelector:
    def test_select_defaults_to_one_query_head_per_kv_head(self, rng):
        """``select`` left at its default group (as the RULER harness calls it)
        scores as an explicit group of one."""
        kmin, kmax = compute_page_key_stats(rng.normal(size=(320, 4, 8)), 4)
        q = rng.normal(size=(4, 8))
        got = ReusablePageSelector(make_config(token_budget=64)).select({}, "s", q, kmin, kmax)
        want = ReusablePageSelector(make_config(token_budget=64)).select({}, "s", q, kmin, kmax, gqa_group_size=1)
        np.testing.assert_array_equal(got.pages, want.pages)

    def test_overhead_reduction_before_any_query_is_one(self):
        """No query served, no selector call: no reuse to report, and no division by zero."""
        assert ReusablePageSelector(make_config()).overhead_reduction() == 1.0

    def test_reuse_reduces_selector_calls(self, rng):
        keys = rng.normal(size=(256, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        entries = {}
        for _ in range(16):
            reusable.select(entries, "seq", rng.normal(size=(1, 8)), kmin, kmax)
        assert reusable.num_queries == 16
        assert reusable.num_selector_calls == 4
        assert reusable.overhead_reduction() == pytest.approx(4.0)

    def test_interval_one_selects_every_time(self, rng):
        keys = rng.normal(size=(64, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(reuse_interval=1))
        entries = {}
        for _ in range(5):
            reusable.select(entries, "seq", rng.normal(size=(1, 8)), kmin, kmax)
        assert reusable.num_selector_calls == 5

    def test_new_page_forces_reselection(self, rng):
        keys = rng.normal(size=(256, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=8))
        q = rng.normal(size=(1, 8))
        entries = {}
        reusable.select(entries, "seq", q, kmin, kmax)
        # Growing the context by a physical page invalidates the cached choice.
        keys2 = np.concatenate([keys, rng.normal(size=(16, 1, 8))])
        kmin2, kmax2 = compute_page_key_stats(keys2, 4)
        reusable.select(entries, "seq", q, kmin2, kmax2)
        assert reusable.num_selector_calls == 2

    def test_new_logical_page_forces_reselection(self, rng):
        """Fresh key stats inside the same physical page must refresh the cache.

        Regression: the cached selection used to be refreshed only when the
        *physical* page count grew, so tokens landing in a fresh logical page
        of the same physical page changed kmin/kmax without a refresh.
        """
        keys = rng.normal(size=(252, 1, 8))  # 63 logical pages, 16 physical
        kmin, kmax = compute_page_key_stats(keys, 4)
        assert kmin.shape[0] == 63
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=8))
        q = rng.normal(size=(1, 8))
        entries = {}
        reusable.select(entries, "seq", q, kmin, kmax)
        # Four more tokens: 64 logical pages, physical count still 16.
        keys2 = np.concatenate([keys, rng.normal(size=(4, 1, 8))])
        kmin2, kmax2 = compute_page_key_stats(keys2, 4)
        assert kmin2.shape[0] == 64
        assert -(-64 // 4) == -(-63 // 4)  # physical page count unchanged
        reusable.select(entries, "seq", q, kmin2, kmax2)
        assert reusable.num_selector_calls == 2

    @pytest.mark.parametrize("interval", [1, 3, 4])
    def test_refreshes_predicts_lookup(self, rng, interval):
        """``refreshes`` flags exactly the queries ``select`` scores afresh, from no
        entry or from any reuse phase, across logical and physical pages; and one
        ``lookup(queries=R)`` over a run of hits leaves the entry ``R`` lookups leave."""
        keys = rng.normal(size=(160, 1, 8))
        q = rng.normal(size=(1, 8))
        for first, warm in ((90, 0), (90, 2), (99, 1), (127, 3)):
            reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=interval))
            entries = {}
            for context in range(first - warm, first):
                reusable.select(entries, "s", q, *compute_page_key_stats(keys[:context], 4))
            contexts = range(first, first + 24)
            flags = reusable.refreshes(entries.get("s"), [-(-c // 4) for c in contexts])
            for context, fresh in zip(contexts, flags):
                calls = reusable.num_selector_calls
                reusable.select(entries, "s", q, *compute_page_key_stats(keys[:context], 4))
                assert (reusable.num_selector_calls > calls) == fresh, (first, warm, context)
            # The last run of hits, served again from its start in one lookup.
            start = max(j for j, fresh in enumerate(flags) if fresh)
            run = len(flags) - start - 1
            if run:
                replay = {"s": entries["s"][:1] + (entries["s"][1] - run,)}
                queries = reusable.num_queries
                n_logical = -(-contexts[-1] // 4)
                assert reusable.lookup(replay, "s", n_logical, queries=run) is entries["s"][0]
                assert replay["s"][1] == entries["s"][1] and reusable.num_queries == queries + run
                assert reusable.lookup(replay, "s", n_logical, queries=interval) is None

    def test_per_sequence_caches(self, rng):
        keys = rng.normal(size=(128, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        q = rng.normal(size=(1, 8))
        entries = {}
        reusable.select(entries, "a", q, kmin, kmax)
        reusable.select(entries, "b", q, kmin, kmax)
        assert reusable.num_selector_calls == 2

    def test_dropped_entry_reselects(self, rng):
        """The state is the caller's mapping: dropping an entry is a cold start."""
        keys = rng.normal(size=(128, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        q = rng.normal(size=(1, 8))
        entries = {}
        reusable.select(entries, "a", q, kmin, kmax)
        del entries["a"]
        reusable.select(entries, "a", q, kmin, kmax)
        assert reusable.num_selector_calls == 2
        reusable.select({}, "a", q, kmin, kmax)
        assert reusable.num_selector_calls == 3

    def test_cached_selection_identical(self, rng):
        keys = rng.normal(size=(256, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        entries = {}
        first = reusable.select(entries, "s", rng.normal(size=(1, 8)), kmin, kmax)
        second = reusable.select(entries, "s", rng.normal(size=(1, 8)), kmin, kmax)
        assert first is second

    def test_entries_are_replaced_not_mutated(self, rng):
        """A copied entry keeps its own reuse phase: what a fork or snapshot relies on."""
        keys = rng.normal(size=(256, 1, 8))
        kmin, kmax = compute_page_key_stats(keys, 4)
        reusable = ReusablePageSelector(make_config(token_budget=48, reuse_interval=3))
        q = rng.normal(size=(1, 8))
        entries = {}
        selection = reusable.select(entries, "a", q, kmin, kmax)
        snapshot = entries["b"] = entries["a"]
        assert snapshot == (selection, 1)
        assert reusable.lookup(entries, "a", kmin.shape[0]) is selection
        assert snapshot == (selection, 1) and entries["a"] == (selection, 2)
        # "b" still has two queries of its interval left, "a" one.
        for _ in range(2):
            assert reusable.lookup(entries, "b", kmin.shape[0]) is selection
        assert reusable.lookup(entries, "b", kmin.shape[0]) is None
        assert reusable.lookup(entries, "a", kmin.shape[0]) is selection
        assert reusable.lookup(entries, "a", kmin.shape[0]) is None


def reference_top_pages(scores, budget_pages, sink_pages, local_pages):
    """The scalar per-head set/sort selection the vectorised one must equal."""
    n_kv_heads, n_pages = scores.shape
    selections = []
    for h in range(n_kv_heads):
        if n_pages <= budget_pages:
            selections.append(np.arange(n_pages))
            continue
        always = set(range(min(sink_pages, n_pages)))
        always |= set(range(max(0, n_pages - local_pages), n_pages))
        remaining_budget = max(0, budget_pages - len(always))
        candidates = [p for p in range(n_pages) if p not in always]
        chosen = set()
        if remaining_budget and candidates:
            order = np.argsort(-scores[h, candidates], kind="stable")[:remaining_budget]
            chosen = {candidates[i] for i in order}
        selected = sorted(always | chosen)
        if len(selected) > budget_pages:
            keep_last = n_pages - 1
            others = [p for p in selected if p != keep_last]
            others.sort(key=lambda p: scores[h, p], reverse=True)
            selected = sorted(others[: budget_pages - 1] + [keep_last])
        selections.append(np.asarray(selected, dtype=np.int64))
    return selections


class TestBatchedSelection:
    """Batched ``select`` against the scalar per-sequence, per-head loop."""

    # (token_budget, sink_pages, local_pages): roomy, tight, and budgets that
    # sink + local alone exceed (the tiny-budget branch); page size 16.
    BUDGETS = [(96, 1, 1), (64, 2, 2), (48, 2, 2), (16, 1, 1), (32, 2, 3)]

    @staticmethod
    def tied_stats(rng, batch, n_logical, n_kv_heads, dim):
        """Small-integer stats and queries: scores collide constantly."""
        low = rng.integers(-2, 2, size=(batch, n_logical, n_kv_heads, dim)).astype(float)
        high = low + rng.integers(0, 3, size=low.shape)
        return low, high

    @pytest.mark.parametrize("group", [1, 2, 4])
    @pytest.mark.parametrize("token_budget,sink_pages,local_pages", BUDGETS)
    def test_matches_scalar_loop(self, rng, group, token_budget, sink_pages, local_pages):
        n_kv_heads, dim, lpp = 2, 4, 4
        # Logical-page counts below, at and above the budget, partial
        # trailing physical pages included.
        for n_logical in (3, 8, 16, 23, 41):
            selector = make_selector(
                token_budget=token_budget, sink_pages=sink_pages, local_pages=local_pages
            )
            kmin, kmax = self.tied_stats(rng, 5, n_logical, n_kv_heads, dim)
            queries = rng.integers(-2, 3, size=(5, n_kv_heads * group, dim)).astype(float)
            batched = selector.select_batch(queries, kmin, kmax, gqa_group_size=group)
            assert selector.num_invocations == 5
            for i, selection in enumerate(batched):
                logical = logical_page_scores(queries[i], kmin[i], kmax[i], gqa_group_size=group)
                physical = physical_page_scores(logical, lpp)
                expected = reference_top_pages(
                    physical, selector.budget_pages, sink_pages, local_pages
                )
                assert selection.n_logical_pages == n_logical
                assert selection.n_physical_pages == physical.shape[1]
                assert len(selection.pages) == n_kv_heads
                for got, want in zip(selection.pages, expected):
                    np.testing.assert_array_equal(got, want)
                if local_pages:
                    # The newest page closes every row: decode masks only its slack.
                    assert (selection.pages[:, -1] == physical.shape[1] - 1).all()
                # A batch of one is the same implementation.
                alone = select_one(selector, queries[i], kmin[i], kmax[i], gqa_group_size=group)
                np.testing.assert_array_equal(alone.pages, selection.pages)

    def test_mixed_logical_page_counts_group_by_count(self, rng):
        """Misses scored per logical-page-count group equal one-at-a-time selection."""
        counts = [9, 17, 9, 30, 17, 9]
        stats = [self.tied_stats(rng, 1, n, 2, 4) for n in counts]
        queries = rng.integers(-2, 3, size=(len(counts), 4, 4)).astype(float)
        one_by_one = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        grouped = ReusablePageSelector(make_config(token_budget=48, reuse_interval=4))
        solo_entries, grouped_entries = {}, {}
        for i, (kmin, kmax) in enumerate(stats):
            one_by_one.select(solo_entries, ("s", i), queries[i], kmin[0], kmax[0], gqa_group_size=2)
        for count in sorted(set(counts)):
            members = [i for i, n in enumerate(counts) if n == count]
            assert all(grouped.lookup(grouped_entries, ("s", i), count) is None for i in members)
            grouped.select_batch(
                grouped_entries,
                [("s", i) for i in members],
                queries[members],
                np.concatenate([stats[i][0] for i in members]),
                np.concatenate([stats[i][1] for i in members]),
                gqa_group_size=2,
            )
        assert grouped.num_queries == one_by_one.num_queries == len(counts)
        assert grouped.num_selector_calls == one_by_one.num_selector_calls == len(counts)
        for i, count in enumerate(counts):
            got = grouped.lookup(grouped_entries, ("s", i), count)
            want = one_by_one.lookup(solo_entries, ("s", i), count)
            np.testing.assert_array_equal(got.pages, want.pages)

    def test_select_top_pages_ties_any_leading_shape(self, rng):
        scores = rng.integers(0, 3, size=(3, 2, 4, 19)).astype(float)
        for budget, sink, local in [(6, 1, 1), (5, 2, 2), (3, 2, 2), (1, 1, 1), (19, 1, 1), (4, 0, 0)]:
            got = select_top_pages(scores, budget, sink_pages=sink, local_pages=local)
            assert got.shape[:-1] == scores.shape[:-1]
            flat = scores.reshape(-1, scores.shape[-1])
            want = reference_top_pages(flat, budget, sink, local)
            for got_row, want_row in zip(got.reshape(len(flat), -1), want):
                np.testing.assert_array_equal(got_row, want_row)
