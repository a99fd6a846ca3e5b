"""RULER-style long-context evaluation on the synthetic substrate.

RULER stresses behaviours beyond single-needle search; the synthetic suite
mirrors its task families:

* **single** — single-needle retrieval (NIAH).
* **multikey** — several needles must all be recovered.
* **multihop** — variable-tracking: a chain of facts where each hop issues a
  fresh query that can only be answered if the previous hop was recovered.
* **aggregation** — the answer depends on broad coverage of relevant tokens
  scattered through the context (common-words style), which punishes small
  token budgets more than needle tasks do.

The composite score is the mean over task families, evaluated per context
length — the layout of Table 3.  ``reuse_interval_sweep`` additionally models
Table 6 through the engine's reusable selector: with a reuse interval of C the
selector's query is up to C-1 decode steps stale, and accuracy degrades only
once the query has drifted too far.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.page_selector import ReusablePageSelector
from repro.eval.retrieval_policies import HierarchicalPageSelection, SelectionPolicy
from repro.eval.scoring import coverage_score, recall_to_accuracy
from repro.eval.synthetic_context import generate_needle_context

__all__ = ["RulerConfig", "RulerResult", "run_ruler", "reuse_interval_sweep"]

TASK_FAMILIES = ("single", "multikey", "multihop", "aggregation")


@dataclass(frozen=True)
class RulerConfig:
    """Parameters of the synthetic RULER suite."""

    context_lengths: tuple[int, ...] = (8192, 16384, 32768)
    needle_length: int = 32
    head_dim: int = 64
    n_keys: int = 4  # needles in the multikey task
    n_hops: int = 3  # chain length in the multihop task
    aggregation_fraction: float = 0.02  # fraction of tokens that are "relevant"
    samples_per_task: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.context_lengths:
            raise ValueError("context_lengths must be non-empty")
        if self.n_keys <= 0 or self.n_hops <= 0 or self.samples_per_task <= 0:
            raise ValueError("n_keys, n_hops and samples_per_task must be positive")
        if not 0.0 < self.aggregation_fraction <= 1.0:
            raise ValueError("aggregation_fraction must be in (0, 1]")


@dataclass
class RulerResult:
    """Per-length, per-task accuracy of one policy."""

    policy_name: str
    config: RulerConfig
    scores: dict[int, dict[str, float]]

    def composite(self, context_length: int) -> float:
        per_task = self.scores[context_length]
        return float(np.mean([per_task[t] for t in TASK_FAMILIES]))

    def composites(self) -> dict[int, float]:
        return {length: self.composite(length) for length in self.scores}

    def average(self) -> float:
        return float(np.mean(list(self.composites().values())))


def _single_task(policy, length, cfg, seed) -> float:
    scores = []
    for s in range(cfg.samples_per_task):
        ctx = generate_needle_context(
            length, depth_fraction=0.5, needle_length=cfg.needle_length,
            head_dim=cfg.head_dim, seed=seed + s,
        )
        selected = policy.select_tokens(ctx)
        scores.append(recall_to_accuracy(ctx.needle_recall(selected)))
    return float(np.mean(scores))


def _multikey_task(policy, length, cfg, seed) -> float:
    scores = []
    for s in range(cfg.samples_per_task):
        ctx = generate_needle_context(
            length, depth_fraction=0.3, needle_length=cfg.needle_length,
            head_dim=cfg.head_dim, n_extra_needles=cfg.n_keys - 1, seed=seed + s,
        )
        selected = policy.select_tokens(ctx)
        recalls = [
            ctx.needle_recall(selected, needle_index=i)
            for i in range(-1, len(ctx.extra_needles))
        ]
        # All keys must be recovered; the task score is the product of per-key
        # success probabilities (graded like exact-match over multiple answers).
        scores.append(float(np.prod([recall_to_accuracy(r) for r in recalls])))
    return float(np.mean(scores))


def _multihop_task(policy, length, cfg, seed) -> float:
    scores = []
    rng = np.random.default_rng(seed)
    for s in range(cfg.samples_per_task):
        depths = rng.permutation(np.linspace(0.15, 0.85, cfg.n_hops))
        hop_score = 1.0
        for hop, depth in enumerate(depths):
            ctx = generate_needle_context(
                length, depth_fraction=float(depth), needle_length=cfg.needle_length,
                head_dim=cfg.head_dim, seed=seed + 977 * s + hop,
            )
            selected = policy.select_tokens(ctx)
            hop_score *= recall_to_accuracy(ctx.needle_recall(selected))
            if hop_score == 0.0:
                break
        scores.append(hop_score)
    return float(np.mean(scores))


def _aggregation_task(policy, length, cfg, seed) -> float:
    scores = []
    rng = np.random.default_rng(seed + 13)
    for s in range(cfg.samples_per_task):
        ctx = generate_needle_context(
            length, depth_fraction=0.5, needle_length=cfg.needle_length,
            head_dim=cfg.head_dim, seed=seed + 31 * s,
        )
        n_relevant = max(1, int(cfg.aggregation_fraction * length))
        relevant = rng.choice(length, size=n_relevant, replace=False)
        selected = policy.select_tokens(ctx)
        # Aggregation answers are mostly carried by frequent/recent evidence, so
        # coverage translates sub-linearly into accuracy.
        coverage = coverage_score(selected, relevant)
        scores.append(float(np.sqrt(coverage)))
    return float(np.mean(scores))


_TASK_RUNNERS = {
    "single": _single_task,
    "multikey": _multikey_task,
    "multihop": _multihop_task,
    "aggregation": _aggregation_task,
}


def run_ruler(policy: SelectionPolicy, config: RulerConfig | None = None) -> RulerResult:
    """Evaluate one policy on the synthetic RULER suite."""
    config = config or RulerConfig()
    scores: dict[int, dict[str, float]] = {}
    for i, length in enumerate(config.context_lengths):
        per_task = {}
        for j, task in enumerate(TASK_FAMILIES):
            per_task[task] = _TASK_RUNNERS[task](
                policy, length, config, seed=config.seed + 1009 * i + 211 * j
            )
        scores[length] = per_task
    return RulerResult(policy_name=policy.name, config=config, scores=scores)


def reuse_interval_sweep(
    policy: HierarchicalPageSelection,
    reuse_intervals: tuple[int, ...] = (1, 2, 4, 8, 16),
    context_length: int = 16384,
    decode_steps: int = 48,
    focus_period: int = 12,
    n_needles: int = 6,
    head_dim: int = 64,
    samples: int = 3,
    seed: int = 0,
) -> dict[int, float]:
    """Accuracy as a function of the page-selection reuse interval (Table 6).

    Adjacent decode queries attend to similar history (temporal locality), but
    the fact a query needs does change occasionally: here the *focus needle*
    switches every ``focus_period`` decode steps among ``n_needles`` facts with
    distinct directions.  Each interval ``C`` decodes through the engine's
    :class:`~repro.core.page_selector.ReusablePageSelector` on ``policy``'s
    geometry with ``reuse_interval=C``, so a selection serves ``C`` queries
    and was computed with a query up to ``C - 1`` steps stale; it can
    straddle a focus switch.  Accuracy is the average recall of the *current*
    focus needle.  Small intervals lose essentially nothing, large intervals
    start missing the switches — the behaviour of Table 6.
    """
    if decode_steps <= 0 or samples <= 0 or focus_period <= 0 or n_needles <= 0:
        raise ValueError("decode_steps, samples, focus_period and n_needles must be positive")
    configs = {c: replace(policy.config, reuse_interval=c) for c in reuse_intervals}
    contexts = []
    for s in range(samples):
        ctx = generate_needle_context(
            context_length,
            depth_fraction=0.5,
            head_dim=head_dim,
            n_extra_needles=n_needles - 1,
            distinct_extra_directions=True,
            seed=seed + 53 * s,
        )
        contexts.append((ctx, *policy.key_stats(ctx)))
    results: dict[int, float] = {}
    for interval, config in configs.items():
        selector = ReusablePageSelector(config)
        step_scores = []
        for s, (ctx, kmin, kmax) in enumerate(contexts):
            entries: dict = {}
            for step in range(decode_steps):
                focus = (step // focus_period) % n_needles
                selection = selector.select(entries, s, ctx.query_for_needle(focus), kmin, kmax)
                needle_index = -1 if focus == 0 else focus - 1
                step_scores.append(
                    recall_to_accuracy(ctx.needle_recall(policy.tokens(selection, ctx), needle_index))
                )
        results[interval] = float(np.mean(step_scores))
    return results
