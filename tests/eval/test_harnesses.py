"""Tests for the NIAH / RULER / LongBench / reasoning harnesses."""

import numpy as np
import pytest

from repro.eval.longbench import DENSE_ANCHORS, LONGBENCH_TASKS, run_longbench
from repro.eval.niah import NIAHConfig, run_niah
from repro.eval.reasoning import ReasoningConfig, run_reasoning_eval
from repro.eval.retrieval_policies import (
    DenseSelection,
    HierarchicalPageSelection,
    StreamingSelection,
)
from repro.eval.ruler import RulerConfig, run_ruler, reuse_interval_sweep
from repro.eval.scoring import coverage_score, grid_average, recall_to_accuracy
from repro.eval.synthetic_context import generate_needle_context


SMALL_NIAH = NIAHConfig(context_lengths=(4096, 8192), depth_fractions=(0.0, 0.5, 1.0))
SMALL_RULER = RulerConfig(context_lengths=(8192,), samples_per_task=1)


class TestScoring:
    def test_recall_to_accuracy(self):
        assert recall_to_accuracy(1.0) == 1.0
        assert recall_to_accuracy(0.95) == 1.0
        assert recall_to_accuracy(0.45) == pytest.approx(0.5)
        assert recall_to_accuracy(0.0) == 0.0
        assert recall_to_accuracy(0.5, threshold=0.5) == 1.0
        with pytest.raises(ValueError):
            recall_to_accuracy(1.5)

    def test_coverage_score(self):
        assert coverage_score(np.array([1, 2, 3]), np.array([2, 3, 4])) == pytest.approx(2 / 3)
        assert coverage_score(np.array([]), np.array([])) == 1.0

    def test_grid_average(self):
        assert grid_average(np.array([[1.0, 0.0], [1.0, 0.0]])) == 0.5
        with pytest.raises(ValueError):
            grid_average(np.zeros((0, 0)))


class TestNIAH:
    def test_dense_scores_one_everywhere(self):
        result = run_niah(DenseSelection(), SMALL_NIAH)
        np.testing.assert_allclose(result.grid, 1.0)
        assert result.average_accuracy == 1.0

    def test_lserve_matches_dense_at_moderate_lengths(self):
        """Fig. 9: LServe preserves NIAH accuracy."""
        result = run_niah(HierarchicalPageSelection(token_budget=2048), SMALL_NIAH)
        assert result.average_accuracy > 0.95

    def test_streaming_fails_mid_depth(self):
        result = run_niah(StreamingSelection(sink_tokens=64, local_tokens=128), SMALL_NIAH)
        depths = SMALL_NIAH.depth_fractions
        mid = depths.index(0.5)
        last = depths.index(1.0)
        assert np.all(result.grid[:, mid] < 0.5)
        assert np.all(result.grid[:, last] == 1.0)

    def test_result_helpers(self):
        result = run_niah(DenseSelection(), SMALL_NIAH)
        assert result.accuracy_at_length(4096) == 1.0
        rows = result.to_rows()
        assert len(rows) == len(SMALL_NIAH.context_lengths) * len(SMALL_NIAH.depth_fractions)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NIAHConfig(context_lengths=())
        with pytest.raises(ValueError):
            NIAHConfig(samples_per_cell=0)


class TestRuler:
    def test_dense_scores_high(self):
        result = run_ruler(DenseSelection(), SMALL_RULER)
        assert result.composite(8192) > 0.95
        assert result.average() > 0.95

    def test_lserve_close_to_dense(self):
        dense = run_ruler(DenseSelection(), SMALL_RULER)
        lserve = run_ruler(HierarchicalPageSelection(token_budget=2048), SMALL_RULER)
        assert lserve.composite(8192) > 0.8 * dense.composite(8192)

    def test_bigger_budget_not_worse(self):
        """Table 3: LServe-8192 >= LServe-4096 on average."""
        cfg = RulerConfig(context_lengths=(16384,), samples_per_task=1)
        small = run_ruler(HierarchicalPageSelection(token_budget=1024), cfg)
        large = run_ruler(HierarchicalPageSelection(token_budget=4096), cfg)
        assert large.average() >= small.average() - 1e-9

    def test_streaming_much_worse(self):
        dense = run_ruler(DenseSelection(), SMALL_RULER)
        stream = run_ruler(StreamingSelection(sink_tokens=64, local_tokens=128), SMALL_RULER)
        assert stream.average() < dense.average() - 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RulerConfig(context_lengths=())
        with pytest.raises(ValueError):
            RulerConfig(n_keys=0)
        with pytest.raises(ValueError):
            RulerConfig(aggregation_fraction=0.0)


class TestReuseIntervalSweep:
    def test_degradation_is_monotone_and_gentle(self):
        """Table 6: little loss up to interval 4, visible loss by 16."""
        sweep = reuse_interval_sweep(
            HierarchicalPageSelection(token_budget=2048),
            reuse_intervals=(1, 4, 16),
            context_length=8192,
            decode_steps=24,
            focus_period=12,
            n_needles=4,
            samples=2,
        )
        assert sweep[1] >= sweep[4] >= sweep[16]
        assert sweep[1] - sweep[4] < 0.1
        assert sweep[16] < sweep[1]

    def test_refreshes_at_every_multiple_of_the_interval(self):
        """The engine's reuse rule serves a selection for exactly C queries: a fresh one at every step % C == 0."""
        policy = HierarchicalPageSelection(token_budget=1024)
        steps, period, needles = 12, 2, 3
        sweep = reuse_interval_sweep(
            policy, reuse_intervals=(1, 2, 3, 5), context_length=4096, decode_steps=steps,
            focus_period=period, n_needles=needles, samples=1,
        )
        ctx = generate_needle_context(
            4096, depth_fraction=0.5, head_dim=64, n_extra_needles=needles - 1,
            distinct_extra_directions=True, seed=0,
        )
        for interval, accuracy in sweep.items():
            scores = []
            for step in range(steps):
                focus = (step // period) % needles
                if step % interval == 0:
                    selected = policy.select_tokens(ctx, query=ctx.query_for_needle(focus))
                scores.append(recall_to_accuracy(ctx.needle_recall(selected, -1 if focus == 0 else focus - 1)))
            assert accuracy == float(np.mean(scores))
        assert sweep[3] < sweep[2] == 1.0  # a stale selection straddles a focus switch

    def test_validation(self):
        with pytest.raises(ValueError, match="reuse_interval must be >= 1"):
            reuse_interval_sweep(HierarchicalPageSelection(), reuse_intervals=(0,))
        with pytest.raises(ValueError):
            reuse_interval_sweep(HierarchicalPageSelection(), decode_steps=0)


class TestLongBench:
    def test_dense_reproduces_anchors(self):
        scores = run_longbench(DenseSelection(), model_name="Llama-3-8B", samples_per_task=1)
        for task in LONGBENCH_TASKS:
            assert scores[task.name] == pytest.approx(DENSE_ANCHORS["Llama-3-8B"][task.name])

    def test_lserve_close_to_dense(self):
        """Table 2: LServe average within ~1 point of dense."""
        dense = run_longbench(DenseSelection(), samples_per_task=1)
        lserve = run_longbench(HierarchicalPageSelection(token_budget=4096), samples_per_task=1)
        assert abs(dense["Average"] - lserve["Average"]) < 2.0

    def test_streaming_noticeably_worse(self):
        dense = run_longbench(DenseSelection(), samples_per_task=1)
        stream = run_longbench(
            StreamingSelection(sink_tokens=64, local_tokens=256), samples_per_task=1
        )
        assert stream["Average"] < dense["Average"]

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            run_longbench(DenseSelection(), model_name="GPT-5")


class TestReasoning:
    def test_dense_matches_anchor(self):
        cfg = ReasoningConfig(benchmark="MATH500", trace_length=8192, n_problems=4)
        assert run_reasoning_eval(DenseSelection(), cfg) == pytest.approx(84.2)

    def test_lserve_close_to_dense(self):
        """Table 4: LServe maintains reasoning accuracy."""
        cfg = ReasoningConfig(benchmark="AIME@2024", trace_length=8192, n_problems=4)
        dense = run_reasoning_eval(DenseSelection(), cfg)
        lserve = run_reasoning_eval(HierarchicalPageSelection(token_budget=4096), cfg)
        assert abs(dense - lserve) < 3.0

    def test_config_validation(self):
        with pytest.raises(KeyError):
            ReasoningConfig(benchmark="GSM8K")
        with pytest.raises(ValueError):
            ReasoningConfig(trace_length=0)
