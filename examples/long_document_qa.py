"""Long-document QA: the page-size dilemma, hierarchical paging, and serving cost.

Plants a needle fact in a 64K-token synthetic document and compares which
sparse-attention policies can still find it under a 2048-token KV budget:
StreamingLLM (sink + window), Quest-style flat page selection at several page
sizes, and LServe's hierarchical paging.  Then serves the same QA workload
through the ``ServingEngine`` front door to compare what each system's
answer latency would cost on an A100.

Run with:  python examples/long_document_qa.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines.systems import all_serving_baselines
from repro.eval.retrieval_policies import (
    DenseSelection,
    HierarchicalPageSelection,
    StreamingSelection,
)
from repro.eval.synthetic_context import generate_needle_context
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator, OutOfMemoryError
from repro.model.configs import LLAMA_3_8B
from repro.serving import Request, SchedulerConfig, ServingEngine

CONTEXT_LENGTH = 65_536
TOKEN_BUDGET = 2_048
DEPTHS = (0.1, 0.3, 0.5, 0.7, 0.9)
SEEDS = range(3)


def main() -> None:
    policies = [
        DenseSelection(),
        StreamingSelection(sink_tokens=128, local_tokens=256, name="StreamingLLM"),
        HierarchicalPageSelection(16, 16, TOKEN_BUDGET, name="Quest (page 16)"),
        HierarchicalPageSelection(64, 64, TOKEN_BUDGET, name="Quest (page 64)"),
        HierarchicalPageSelection(
            physical_page_size=64, logical_page_size=16, token_budget=TOKEN_BUDGET,
            name="LServe (64/16)",
        ),
    ]
    print(f"Needle retrieval over a {CONTEXT_LENGTH // 1024}K-token document, "
          f"{TOKEN_BUDGET}-token KV budget\n")
    print(f"{'policy':<18} {'avg recall':>10}   {'tokens read':>11}")
    for policy in policies:
        recalls, reads = [], []
        for depth in DEPTHS:
            for seed in SEEDS:
                ctx = generate_needle_context(CONTEXT_LENGTH, depth, seed=seed)
                selected = policy.select_tokens(ctx)
                recalls.append(ctx.needle_recall(selected))
                reads.append(selected.size)
        print(f"{policy.name:<18} {np.mean(recalls):>10.2f}   {np.mean(reads):>11.0f}")

    print("\nTakeaway: flat selection works at 16-token pages but collapses at the "
          "64-token pages that quantized KV needs; hierarchical paging keeps the "
          "64-token memory layout while selecting with 16-token statistics.")

    print(f"\nServing the QA workload ({CONTEXT_LENGTH // 1024}K-token document, "
          "128-token answer) through ServingEngine on the A100 cost model")
    request = Request("qa", prompt_tokens=CONTEXT_LENGTH, max_new_tokens=128)
    for policy in all_serving_baselines():
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, policy)
        server = ServingEngine(
            latency.as_backend(), SchedulerConfig(max_batch_size=1)
        )
        try:
            metrics = server.run([request])
        except OutOfMemoryError:
            print(f"  {policy.name:<14} OOM")
            continue
        record = metrics.records[0]
        print(f"  {policy.name:<14} TTFT {record.ttft_s:6.1f} s, "
              f"answer in {record.finish_time_s - record.arrival_time_s:6.1f} s "
              f"({record.time_per_output_token_s * 1e3:6.1f} ms/token)")


if __name__ == "__main__":
    main()
