"""Names, units and definitions of every metric, and the arithmetic behind them.

``END_TO_END`` and ``PER_LAYER`` are the single list ``BENCHMARK.json``, the
README tables, ``compare.py`` and the self-test agree with.  End-to-end
metrics come from client-side records of the untraced pass, as the median over
accepted blocks of a per-block value; per-layer metrics from the spans of the
traced pass (:mod:`trace`).  Times and counts of the traced pass are **per
accepted block**: every block of a workload carries the same work, and a timed
run accepts however many blocks fit its ``--seconds``.

No numpy and no ``repro`` import: the self-test loads this file on its own.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit, better, bound): bound is the share by which the metric may worsen.  About three
# times the spread between runs of the same code on the sandbox this was written on (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ttft_p50_ms", "ms", "lower", 0.25),
    ("tpot_p50_ms", "ms", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("output_tok_s", "tok/s", "higher", 0.25),
    ("prompt_tok_s", "tok/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

_S, _N = "s/block", "1/block"
# (name, unit, better)
PER_LAYER = (
    # load generator (observer)
    ("client.req_s", "1/s", "higher"),
    ("client.ttft_p99_ms", "ms", "lower"),
    ("client.itl_p99_ms", "ms", "lower"),
    ("client.requests", _N, "higher"),
    ("client.failed", "count", "lower"),
    # serving.http
    ("http.ingress_ms_p50", "ms", "lower"),
    ("http.delivery_ms_p50", "ms", "lower"),
    ("http.requests", _N, "higher"),
    ("http.errors", "count", "lower"),
    # serving.frontend
    ("frontend.step_gap_ms_p50", "ms", "lower"),
    ("frontend.busy_frac", "ratio", "higher"),
    ("frontend.steps", _N, "lower"),
    ("frontend.submit_s", _S, "lower"),
    ("frontend.loop_s", _S, "lower"),
    ("frontend.idle_s", _S, "lower"),
    # serving.engine
    ("serving.step_self_s", _S, "lower"),
    ("serving.step_self_ms_p50.decode", "ms", "lower"),
    ("serving.step_self_ms_p50.prefill", "ms", "lower"),
    ("serving.steps.prefill", _N, "lower"),
    ("serving.steps.decode", _N, "lower"),
    ("serving.steps.idle", _N, "lower"),
    ("serving.batch_size_mean", "count", "higher"),
    ("serving.sample_s", _S, "lower"),
    ("serving.tax_ratio", "ratio", "lower"),
    ("serving.block_drift_ratio", "ratio", "higher"),
    # serving.scheduler
    ("scheduler.self_s", _S, "lower"),
    ("scheduler.queue_wait_ms_p50", "ms", "lower"),
    ("scheduler.preemptions", "count", "lower"),
    # serving.backend
    ("backend.prefill_s", _S, "lower"),
    ("backend.decode_s", _S, "lower"),
    ("backend.spec_verify_s", _S, "lower"),
    ("backend.spec_commit_s", _S, "lower"),
    ("backend.release_s", _S, "lower"),
    ("backend.self_s", _S, "lower"),
    ("backend.prefill_calls", _N, "lower"),
    ("backend.decode_calls", _N, "lower"),
    ("backend.spec_calls", _N, "lower"),
    # serving.speculative
    ("spec.propose_s", _S, "lower"),
    ("spec.proposed_tokens", _N, "lower"),
    ("spec.accepted_tokens", _N, "higher"),
    ("spec.acceptance_rate", "ratio", "higher"),
    ("spec.tokens_per_verify", "count", "higher"),
    ("spec.speedup_vs_plain", "ratio", "higher"),
    # core.engine
    ("engine.prefill_s", _S, "lower"),
    ("engine.decode_batch_s", _S, "lower"),
    ("engine.decode_spec_batch_s", _S, "lower"),
    ("engine.commit_spec_s", _S, "lower"),
    ("engine.decode_step_ms_p50", "ms", "lower"),
    ("engine.prefill_ms_per_ktok_p50", "ms", "lower"),
    ("engine.self_s.prefill", _S, "lower"),
    ("engine.self_s.decode", _S, "lower"),
    ("engine.self_s.spec", _S, "lower"),
    ("engine.decode_kv_compression", "ratio", "lower"),
    ("engine.prefill_block_sparsity", "ratio", "higher"),
    # core.page_selector
    ("selector.lookup_calls", _N, "lower"),
    ("selector.select_calls", _N, "lower"),
    ("selector.select_s", _S, "lower"),
    ("selector.lookup_s", _S, "lower"),
    ("selector.reuse_hit_rate", "ratio", "higher"),
    # core.unified_sparse_attention
    ("attn.prefill_s", _S, "lower"),
    ("attn.prefill_calls", _N, "lower"),
    ("attn.decode_s", _S, "lower"),
    ("attn.decode_calls", _N, "lower"),
    ("attn.decode_kv_bytes", "B/block", "lower"),
    # kvcache
    ("kv.append_s", _S, "lower"),
    ("kv.append_calls", _N, "lower"),
    ("kv.gather_selected_s", _S, "lower"),
    ("kv.gather_selected_calls", _N, "lower"),
    ("kv.gather_bytes", "B/block", "lower"),
    ("kv.get_dense_s", _S, "lower"),
    ("kv.key_stats_s", _S, "lower"),
    ("kv.selected_count_s", _S, "lower"),
    ("kv.fork_s", _S, "lower"),
    ("kv.fork_calls", _N, "lower"),
    ("kv.release_s", _S, "lower"),
    ("kv.pages_peak", "count", "lower"),
    ("kv.page_fill_frac", "ratio", "higher"),
    ("kv.leaked_pages", "count", "lower"),
    # the benchmark itself
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.spans", _N, "lower"),
    ("calib.ref_ms", "ms", "lower"),
    ("calib.blocks_rerun", "count", "lower"),
    ("calib.state", "flag", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- end to end: client-side records of accepted blocks ------------------------------


def block_end_to_end(block: dict) -> tuple[dict[str, float], dict[str, int]]:
    """The five client-side metrics of one block, and their sample counts.

    A block is ``{"wall_s", "records": [{"prompt_tokens", "sent_at",
    "token_times", "done_at"}, ...]}``.
    """
    ttft, tpot, latency = [], [], []
    out_tokens = prompt_tokens = 0
    for r in block["records"]:
        times = r["token_times"]
        prompt_tokens += r["prompt_tokens"]
        out_tokens += len(times)
        latency.append((r["done_at"] - r["sent_at"]) * 1e3)
        if times:
            ttft.append((times[0] - r["sent_at"]) * 1e3)
        if len(times) > 1:
            tpot.append((times[-1] - times[0]) / (len(times) - 1) * 1e3)
    values = {
        "ttft_p50_ms": median(ttft),
        "tpot_p50_ms": median(tpot),
        "latency_p50_ms": median(latency),
        "output_tok_s": out_tokens / block["wall_s"],
        "prompt_tok_s": prompt_tokens / block["wall_s"],
    }
    counts = {
        "ttft_p50_ms": len(ttft),
        "tpot_p50_ms": len(tpot),
        "latency_p50_ms": len(latency),
        "output_tok_s": out_tokens,
        "prompt_tok_s": prompt_tokens,
    }
    return values, counts


def end_to_end(blocks: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Per metric the median over accepted ``blocks`` of its per-block value, and the samples behind it.

    Every block carries the same work, so the blocks are repeated measurements
    of one quantity; their median shrugs off the block during which the
    machine changed speed between two fast calibration readings.
    """
    per_block = [block_end_to_end(b) for b in blocks]
    values = {name: median([v[name] for v, _ in per_block]) for name in per_block[0][0]}
    counts = {name: sum(c[name] for _, c in per_block) for name in per_block[0][1]}
    return values, counts


# -- per layer: spans of accepted traced blocks ------------------------------------------


class LayerFold:
    """Sums and sample series over the accepted blocks of the traced pass."""

    def __init__(self, names: list[str]) -> None:
        self.names = names  # the tracer's span names, by the id spans carry
        self.blocks = 0
        self.wall_s = 0.0
        self.spans = 0
        self.total: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.series: dict[str, list[float]] = defaultdict(list)
        self.sums: dict[str, float] = defaultdict(float)
        self.block_req_s: list[float] = []
        self.pages_peak = 0
        self.fill_at_peak = 0.0

    def add_block(self, spans, selfs, block: dict, page_size: int) -> None:
        """Fold one accepted block: its spans, and the client records that go with them.

        ``block`` is an end-to-end block (see :func:`end_to_end`) whose records
        also carry ``request_id``; ``selfs`` is ``trace.self_times(spans)``.
        """
        self.blocks += 1
        self.wall_s += block["wall_s"]
        self.spans += len(spans)
        self.block_req_s.append(len(block["records"]) / block["wall_s"])
        names, total, series, sums = self.names, self.total, self.series, self.sums
        submit_at: dict[str, float] = {}
        prefill_at: dict[str, float] = {}
        emitted_at: dict[str, list[float]] = defaultdict(list)
        cursor = block["start"]
        has_work = False
        last_step_end = None
        for s, self_s in zip(spans, selfs):
            name = names[s[0]]
            start, end, note = s[1], s[2], s[4]
            dur = end - start
            row = total[name]
            row[0] += 1
            row[1] += dur
            row[2] += self_s
            if s[3] < 0:  # a root: the time since the previous root is event-loop time
                sums["frontend.loop_s" if has_work else "frontend.idle_s"] += start - cursor
                cursor = end
            if name == "serving.step":
                outcome, has_work, pages, tokens = note
                if last_step_end is not None:
                    series["step_gap_ms"].append((start - last_step_end) * 1e3)
                last_step_end = end if has_work else None
                if pages > self.pages_peak:
                    self.pages_peak = pages
                    self.fill_at_peak = tokens / (pages * page_size)
                kind = outcome.kind if outcome is not None else "none"
                sums[f"steps.{kind}"] += 1
                series[f"step_self_ms.{kind}"].append(self_s * 1e3)
                if outcome is None:
                    continue
                if kind == "decode":
                    sums["decode_step_wall_s"] += dur
                    sums["decode_batch_members"] += len(outcome.request_ids)
                elif kind == "prefill":
                    prefill_at[outcome.request_ids[0]] = start
                sums["spec.proposed"] += outcome.draft_proposed
                sums["spec.accepted"] += outcome.draft_accepted
                for request_id, _ in outcome.emitted_tokens:
                    emitted_at[request_id].append(end)
            elif name == "frontend.submit":
                submit_at[note] = start
                has_work = True
            elif name in ("engine.decode_batch", "engine.decode_spec_batch"):
                series["engine_decode_ms"].append(dur * 1e3)
                sums["engine_decode_wall_s"] += dur
                if name == "engine.decode_spec_batch":
                    sums["spec.chunks"] += note if note is not None else 1
            elif name == "engine.commit_spec":
                sums["engine_decode_wall_s"] += dur
            elif name == "engine.prefill":
                series["prefill_ms_per_ktok"].append(dur * 1e6 / note)
            elif name == "attn.decode":
                sums["attn.decode_kv_bytes"] += note
            elif name == "kv.gather_selected":
                sums["kv.gather_bytes"] += note
        sums["frontend.loop_s" if has_work else "frontend.idle_s"] += block["end"] - cursor

        for r in block["records"]:
            rid = r["request_id"]
            if rid in submit_at:
                if rid in prefill_at:
                    series["queue_wait_ms"].append((prefill_at[rid] - submit_at[rid]) * 1e3)
                if block["http"]:
                    series["ingress_ms"].append((submit_at[rid] - r["sent_at"]) * 1e3)
            times = r["token_times"]
            series["ttft_ms"].append((times[0] - r["sent_at"]) * 1e3 if times else 0.0)
            series["itl_ms"].extend((b - a) * 1e3 for a, b in zip(times, times[1:]))
            if block["http"]:
                series["delivery_ms"].extend(
                    (seen - emitted) * 1e3 for emitted, seen in zip(emitted_at[rid], times)
                )

    @property
    def requests(self) -> int:
        """Requests the load generator completed in the folded blocks."""
        return len(self.series["ttft_ms"])

    def metrics(self) -> dict[str, float]:
        """Every span-derived per-layer metric; the caller adds what spans cannot give."""
        n = max(self.blocks, 1)
        t, series, sums = self.total, self.series, self.sums

        def calls(name):
            return t[name][0] / n

        def secs(name):
            return t[name][1] / n

        def self_s(name):
            return t[name][2] / n

        span_self = sum(row[2] for row in t.values())
        scheduler = (
            "scheduler.schedule_prefill",
            "scheduler.decode_batch",
            "scheduler.preempt_for_pressure",
            "scheduler.retire_finished",
        )
        backend = ("backend.prefill", "backend.decode", "backend.spec_verify",
                   "backend.spec_commit", "backend.release")
        lookups, selects = t["selector.lookup"][0], t["selector.select"][0]
        chunks = sums["spec.chunks"]
        decode_steps = sums["steps.decode"]
        wall = self.wall_s or 1.0
        return {
            "client.req_s": self.requests / wall,
            "client.ttft_p99_ms": percentile(series["ttft_ms"], 99),
            "client.itl_p99_ms": percentile(series["itl_ms"], 99),
            "client.requests": self.requests / n,
            "http.ingress_ms_p50": median(series["ingress_ms"]),
            "http.delivery_ms_p50": median(series["delivery_ms"]),
            "frontend.step_gap_ms_p50": median(series["step_gap_ms"]),
            "frontend.busy_frac": t["serving.step"][1] / wall,
            "frontend.steps": calls("serving.step"),
            "frontend.submit_s": self_s("frontend.submit"),
            "frontend.loop_s": sums["frontend.loop_s"] / n,
            "frontend.idle_s": sums["frontend.idle_s"] / n,
            "serving.step_self_s": self_s("serving.step"),
            "serving.step_self_ms_p50.decode": median(series["step_self_ms.decode"]),
            "serving.step_self_ms_p50.prefill": median(series["step_self_ms.prefill"]),
            "serving.steps.prefill": sums["steps.prefill"] / n,
            "serving.steps.decode": decode_steps / n,
            "serving.steps.idle": sums["steps.idle"] / n,
            "serving.batch_size_mean": sums["decode_batch_members"] / decode_steps if decode_steps else 0.0,
            "serving.sample_s": secs("serving.sample"),
            "serving.tax_ratio": (
                sums["decode_step_wall_s"] / sums["engine_decode_wall_s"]
                if sums["engine_decode_wall_s"]
                else 0.0
            ),
            "serving.block_drift_ratio": self.block_req_s[-1] / self.block_req_s[0] if self.blocks else 0.0,
            "scheduler.self_s": sum(self_s(name) for name in scheduler),
            "scheduler.queue_wait_ms_p50": median(series["queue_wait_ms"]),
            "backend.prefill_s": secs("backend.prefill"),
            "backend.decode_s": secs("backend.decode"),
            "backend.spec_verify_s": secs("backend.spec_verify"),
            "backend.spec_commit_s": secs("backend.spec_commit"),
            "backend.release_s": secs("backend.release"),
            "backend.self_s": sum(self_s(name) for name in backend),
            "backend.prefill_calls": calls("backend.prefill"),
            "backend.decode_calls": calls("backend.decode"),
            "backend.spec_calls": calls("backend.spec_verify"),
            "spec.propose_s": secs("spec.propose"),
            "spec.proposed_tokens": sums["spec.proposed"] / n,
            "spec.accepted_tokens": sums["spec.accepted"] / n,
            "spec.acceptance_rate": sums["spec.accepted"] / sums["spec.proposed"] if sums["spec.proposed"] else 0.0,
            "spec.tokens_per_verify": (sums["spec.accepted"] + chunks) / chunks if chunks else 0.0,
            "engine.prefill_s": secs("engine.prefill"),
            "engine.decode_batch_s": secs("engine.decode_batch"),
            "engine.decode_spec_batch_s": secs("engine.decode_spec_batch"),
            "engine.commit_spec_s": secs("engine.commit_spec"),
            "engine.decode_step_ms_p50": median(series["engine_decode_ms"]),
            "engine.prefill_ms_per_ktok_p50": median(series["prefill_ms_per_ktok"]),
            "engine.self_s.prefill": self_s("engine.prefill"),
            "engine.self_s.decode": self_s("engine.decode_batch"),
            "engine.self_s.spec": self_s("engine.decode_spec_batch") + self_s("engine.commit_spec"),
            "selector.lookup_calls": lookups / n,
            "selector.select_calls": selects / n,
            "selector.select_s": secs("selector.select"),
            "selector.lookup_s": secs("selector.lookup"),
            "selector.reuse_hit_rate": 1.0 - selects / lookups if lookups else 0.0,
            "attn.prefill_s": secs("attn.prefill"),
            "attn.prefill_calls": calls("attn.prefill"),
            "attn.decode_s": secs("attn.decode"),
            "attn.decode_calls": calls("attn.decode"),
            "attn.decode_kv_bytes": sums["attn.decode_kv_bytes"] / n,
            "kv.append_s": secs("kv.append"),
            "kv.append_calls": calls("kv.append"),
            "kv.gather_selected_s": secs("kv.gather_selected"),
            "kv.gather_selected_calls": calls("kv.gather_selected"),
            "kv.gather_bytes": sums["kv.gather_bytes"] / n,
            "kv.get_dense_s": secs("kv.get_dense"),
            "kv.key_stats_s": secs("kv.key_stats"),
            "kv.selected_count_s": secs("kv.selected_count"),
            "kv.fork_s": secs("kv.fork"),
            "kv.fork_calls": calls("kv.fork"),
            "kv.release_s": secs("kv.release"),
            "kv.pages_peak": float(self.pages_peak),
            "kv.page_fill_frac": self.fill_at_peak,
            "trace.coverage_frac": span_self / wall,
            "trace.spans": self.spans / n,
        }
