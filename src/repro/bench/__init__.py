"""Experiment runners that regenerate every table and figure of the paper.

Each function returns a :class:`~repro.bench.tables.Table` whose rows mirror
the corresponding table/figure in the paper.  The ``benchmarks/`` directory
wraps each runner in a pytest-benchmark target and writes the formatted table
to ``benchmarks/results/``.
"""

from repro.bench.tables import Table
from repro.bench.efficiency import (
    fig02_latency_breakdown,
    tab01_page_size_latency,
    fig10_decode_speed,
    fig11_prefill_speed,
    tab05_quest_comparison,
    fig14_selector_overhead,
    fig15_attention_breakdown,
    fig16_e2e_breakdown,
    tab07_artifact_latency,
    ablation_head_ratio,
    kernel_functional_check,
)
from repro.bench.accuracy import (
    fig06_page_size_dilemma,
    fig09_niah,
    fig13_hierarchical_paging,
    tab02_longbench,
    tab03_ruler,
    tab04_reasoning,
    tab06_reuse_interval,
)

__all__ = [
    "Table",
    "fig02_latency_breakdown",
    "tab01_page_size_latency",
    "fig10_decode_speed",
    "fig11_prefill_speed",
    "tab05_quest_comparison",
    "fig14_selector_overhead",
    "fig15_attention_breakdown",
    "fig16_e2e_breakdown",
    "tab07_artifact_latency",
    "ablation_head_ratio",
    "kernel_functional_check",
    "fig06_page_size_dilemma",
    "fig09_niah",
    "fig13_hierarchical_paging",
    "tab02_longbench",
    "tab03_ruler",
    "tab04_reasoning",
    "tab06_reuse_interval",
]
