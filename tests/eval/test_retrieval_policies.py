"""Tests for token-selection policies and the accuracy phenomena they produce."""

import numpy as np
import pytest

from repro.core.hierarchical_paging import (
    logical_page_scores,
    physical_page_scores,
    select_top_pages,
)
from repro.eval.retrieval_policies import (
    DenseSelection,
    HierarchicalPageSelection,
    StreamingSelection,
    policy_for_system,
)
from repro.eval.synthetic_context import generate_needle_context
from tests.oracle import compute_page_key_stats


@pytest.fixture(scope="module")
def mid_needle_context():
    return generate_needle_context(16384, 0.5, seed=11)


class TestBasicPolicies:
    def test_dense_selects_everything(self, mid_needle_context):
        sel = DenseSelection().select_tokens(mid_needle_context)
        assert sel.size == mid_needle_context.context_length
        assert mid_needle_context.needle_recall(sel) == 1.0

    def test_streaming_misses_middle_needle(self, mid_needle_context):
        sel = StreamingSelection(sink_tokens=128, local_tokens=256).select_tokens(
            mid_needle_context
        )
        assert sel.size <= 384
        assert mid_needle_context.needle_recall(sel) == 0.0

    def test_streaming_keeps_recent_needle(self):
        ctx = generate_needle_context(8192, 1.0, seed=3)
        sel = StreamingSelection(sink_tokens=128, local_tokens=256).select_tokens(ctx)
        assert ctx.needle_recall(sel) == 1.0

    def test_policy_for_system(self):
        assert isinstance(policy_for_system("Dense"), DenseSelection)
        quest = policy_for_system("Quest")
        assert isinstance(quest, HierarchicalPageSelection)
        assert quest.logical_page_size == quest.physical_page_size
        assert isinstance(policy_for_system("LServe"), HierarchicalPageSelection)
        assert isinstance(policy_for_system("StreamingLLM"), StreamingSelection)
        assert policy_for_system("LServe-8192", token_budget=8192).token_budget == 8192
        with pytest.raises(KeyError):
            policy_for_system("unknown-system")


class TestPageSizeDilemma:
    """The paper's core accuracy phenomena (Figs. 6 and 13).

    The paper observes them at 256K context with a 4096-token budget; the
    tests use a 64K context with a 2048-token budget, which has the same
    budget-to-context ratio and therefore the same selection pressure.
    """

    CONTEXT = 65_536
    BUDGET = 2_048
    SEEDS = range(5)

    def _recalls(self, policy_factory):
        recalls = []
        for seed in self.SEEDS:
            ctx = generate_needle_context(self.CONTEXT, 0.5, seed=100 + seed)
            recalls.append(ctx.needle_recall(policy_factory().select_tokens(ctx)))
        return float(np.mean(recalls))

    def test_quest_small_pages_recover_needle(self):
        recall = self._recalls(
            lambda: HierarchicalPageSelection(16, 16, self.BUDGET)
        )
        assert recall > 0.9

    def test_quest_large_pages_fail(self):
        """Flat selection with 64-token pages loses the needle on most contexts."""
        large = self._recalls(lambda: HierarchicalPageSelection(64, 64, self.BUDGET))
        small = self._recalls(lambda: HierarchicalPageSelection(16, 16, self.BUDGET))
        assert large < small - 0.2

    def test_hierarchical_paging_restores_accuracy(self):
        """64-token physical pages with 16-token logical pages match page-16 Quest."""
        flat64 = self._recalls(lambda: HierarchicalPageSelection(64, 64, self.BUDGET))
        hier64 = self._recalls(
            lambda: HierarchicalPageSelection(
                physical_page_size=64, logical_page_size=16, token_budget=self.BUDGET
            )
        )
        assert hier64 > 0.9
        assert hier64 > flat64 + 0.2

    def test_hierarchical_respects_budget(self, mid_needle_context):
        sel = HierarchicalPageSelection(token_budget=2048).select_tokens(mid_needle_context)
        assert sel.size <= 2048 + 64

    def test_budget_one_needs_no_selection(self):
        ctx = generate_needle_context(1024, 0.5, seed=1)
        sel = HierarchicalPageSelection(token_budget=4096).select_tokens(ctx)
        assert sel.size == 1024

    def test_larger_budget_helps_flat_selection_but_not_fully(self):
        """Fig. 6(e,f): a larger budget does not fully rescue large flat pages."""
        small_budget = self._recalls(
            lambda: HierarchicalPageSelection(64, 64, self.BUDGET)
        )
        big_budget = self._recalls(
            lambda: HierarchicalPageSelection(64, 64, 2 * self.BUDGET)
        )
        assert big_budget >= small_budget
        assert small_budget < 1.0


def oracle_tokens(ctx, physical, logical, budget):
    """The harness's selection before it went through the engine's selector.

    Stats per logical page, Eq. 2 per page, max-reduced onto physical pages
    (skipped for flat pages), top pages under the budget with one sink and
    one local page, expanded to tokens.
    """
    kmin, kmax = compute_page_key_stats(ctx.keys, logical)
    scores = logical_page_scores(ctx.query, kmin, kmax, gqa_group_size=1)
    if logical != physical:
        scores = physical_page_scores(scores, physical // logical)
    pages = select_top_pages(scores, max(1, budget // physical), sink_pages=1, local_pages=1)[0]
    n = ctx.context_length
    return np.concatenate([np.arange(p * physical, min((p + 1) * physical, n)) for p in pages])


class TestThroughTheEngineSelector:
    """The policy scores through ``PageSelector`` and selects what the elementwise path selected."""

    BUDGET = 512

    @pytest.fixture(scope="class")
    def contexts(self):
        return [generate_needle_context(4096, depth, seed=seed) for seed, depth in enumerate((0.2, 0.5, 0.8))]

    @pytest.mark.parametrize("physical", [16, 32, 64])
    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "logical-16"])
    def test_selects_the_oracles_tokens(self, contexts, physical, flat):
        logical = physical if flat else 16
        policy = HierarchicalPageSelection(physical, logical, self.BUDGET)
        for ctx in contexts:
            got = policy.select_tokens(ctx)
            np.testing.assert_array_equal(got, oracle_tokens(ctx, physical, logical, self.BUDGET))
            assert got.size == self.BUDGET

    @pytest.mark.parametrize("physical, logical", [(64, 16), (16, 16), (64, 64)])
    @pytest.mark.parametrize("length", [4096, 8229])
    def test_reads_the_pools_statistics_bitwise(self, physical, logical, length):
        """The statistics a one-layer pool folds are the oracle's over the raw keys, bit for
        bit: hierarchical and flat (Quest) geometries, and a context ending inside a page."""
        ctx = generate_needle_context(length, 0.5, n_kv_heads=2, seed=length)
        kmin, kmax = HierarchicalPageSelection(physical, logical).key_stats(ctx)
        want_min, want_max = compute_page_key_stats(ctx.keys, logical)
        assert kmin.shape == want_min.shape == (-(-length // logical), 2, ctx.head_dim)
        assert kmin.tobytes() == want_min.tobytes() and kmax.tobytes() == want_max.tobytes()

    def test_a_batch_of_one_scores_as_the_unbatched_call(self, contexts):
        for ctx in contexts:
            kmin, kmax = compute_page_key_stats(ctx.keys, 16)
            np.testing.assert_array_equal(
                logical_page_scores(ctx.query[None], kmin[None], kmax[None])[0],
                logical_page_scores(ctx.query, kmin, kmax),
            )

    def test_the_config_is_the_policys_geometry(self):
        config = HierarchicalPageSelection(32, 8, 1024).config
        assert (config.physical_page_size, config.logical_page_size, config.token_budget) == (32, 8, 1024)
        assert config.sink_pages == config.local_pages == 1
