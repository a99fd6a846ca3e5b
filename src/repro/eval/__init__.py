"""Accuracy-evaluation harnesses on synthetic long-context retrieval workloads.

The datasets the paper evaluates (NIAH, RULER, LongBench, AIME/MATH500) are
not available offline, and running them would require the real model weights.
The accuracy phenomena the paper reports, however, are properties of *which KV
tokens the sparse attention policy keeps*: a needle is answered iff the pages
holding it survive page selection; RULER's harder tasks need several scattered
pages at once; reasoning traces need the model to re-read facts it generated
earlier.  This subpackage therefore generates synthetic key/query geometry
with the same structure (locality-preserving haystack, distractor spikes,
query-aligned needles) and measures retrieval recall under each system's
selection policy — reproducing the page-size dilemma (Fig. 6), hierarchical
paging's fix (Fig. 13), the token-budget and reuse-interval sensitivities
(Tables 3/6) and the dense-vs-LServe accuracy parity (Tables 2/4/8).
"""

from repro.eval.synthetic_context import SyntheticContext, generate_needle_context
from repro.eval.retrieval_policies import (
    SelectionPolicy,
    DenseSelection,
    StreamingSelection,
    HierarchicalPageSelection,
    policy_for_system,
)
from repro.eval.niah import NIAHConfig, NIAHResult, run_niah
from repro.eval.ruler import RulerConfig, RulerResult, run_ruler, reuse_interval_sweep
from repro.eval.longbench import LONGBENCH_TASKS, run_longbench
from repro.eval.reasoning import ReasoningConfig, run_reasoning_eval

__all__ = [
    "SyntheticContext",
    "generate_needle_context",
    "SelectionPolicy",
    "DenseSelection",
    "StreamingSelection",
    "HierarchicalPageSelection",
    "policy_for_system",
    "NIAHConfig",
    "NIAHResult",
    "run_niah",
    "RulerConfig",
    "RulerResult",
    "run_ruler",
    "reuse_interval_sweep",
    "LONGBENCH_TASKS",
    "run_longbench",
    "ReasoningConfig",
    "run_reasoning_eval",
]
