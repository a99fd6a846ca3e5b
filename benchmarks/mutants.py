"""Mutation check: each entry breaks one rule of ``src/`` and names the tests that must catch it.

For every mutant in :data:`MUTANTS` the runner copies ``src/`` into a
temporary directory, replaces one exact snippet of one file in the copy, and
runs the entry's test node ids with ``PYTHONPATH`` pointing at the copy. The
working tree is never edited. Each mutant ends as one of:

* ``killed`` — the tests fail;
* ``SURVIVED`` — they pass: the tests no longer guard the rule;
* ``ORPHANED`` — the snippet is not in the file exactly once (the code
  moved: update the entry, do not drop it);
* ``equivalent`` — a change no test can see, listed with the reason; only its
  snippet is checked.

Before any mutant runs, every named test must pass on an unmutated copy, so a
kill means the mutation, not a broken test id. Exit status 0 when every
mutant is killed or equivalent, 1 otherwise. BLAS is pinned to one thread.

    python benchmarks/mutants.py              # the whole table
    python benchmarks/mutants.py --only NAME  # one entry (repeatable)
    python benchmarks/mutants.py --list       # entries and their tests; runs nothing
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can see it; such an entry runs no test


COMMIT = "repro/core/engine.py"
POOL = "repro/kvcache/paged_cache.py"
SELECTOR = "repro/core/page_selector.py"
SPEC_BATCH = "tests/serving/test_speculative_batch.py"
POOL_TESTS = "tests/kvcache/test_paged_cache.py"
BLOCK_TESTS = "tests/kvcache/test_operand_blocks.py"
HTTP_TESTS = "tests/serving/test_http.py"
CODEC = "repro/kvcache/quantization.py"
CODEC_TESTS = "tests/kvcache/test_quantization.py"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "commit_rows_in_reverse_member_order",
        COMMIT,
        "np.concatenate([chunk.k_per_layer[layer_idx][:n] for _, chunk, n in commits])",
        "np.concatenate([chunk.k_per_layer[layer_idx][:n] for _, chunk, n in commits[::-1]])",
        (f"{SPEC_BATCH}::TestBatchedCommit::test_together_equals_one_at_a_time",),
    ),
    Mutant(
        "commit_slides_only_the_first_member",
        COMMIT,
        "        for seq_id in seq_ids:\n            self.cache.slide(seq_id)\n",
        "        for seq_id in seq_ids[:1]:\n            self.cache.slide(seq_id)\n",
        (f"{SPEC_BATCH}::TestBatchedCommit::test_together_equals_one_at_a_time",),
    ),
    Mutant(
        "commit_duplicate_check_removed",
        COMMIT,
        "            if seq_id in seen:\n",
        "            if False:\n",
        (f"{SPEC_BATCH}::TestBatchedCommit::test_a_bad_member_moves_no_member",),
    ),
    Mutant(
        "eq2_q_minus_zeroed",
        "repro/core/hierarchical_paging.py",
        "np.minimum(q_grouped, 0.0)",
        "np.zeros_like(q_grouped)",
        ("tests/core/test_hierarchical_paging.py::TestLogicalPageScores",),
    ),
    Mutant(
        "eq2_group_max_dropped",
        "repro/core/hierarchical_paging.py",
        "scores[..., 0, :] if gqa_group_size == 1 else scores.max(axis=-2)",
        "scores[..., 0, :]",
        ("tests/core/test_hierarchical_paging.py::TestLogicalPageScores",),
    ),
    Mutant(
        "serving_commits_only_its_first_member",
        "repro/serving/engine.py",
        "for h, chunk, toks in zip(handles, batch_result.chunks, sampled)]",
        "for h, chunk, toks in zip(handles, batch_result.chunks, sampled)][:1]",
        (f"{SPEC_BATCH}::TestFusedServingDifferential::test_all_spec_batch_byte_identical",),
    ),
    Mutant(
        "decode_plain_evicts_every_named_member",
        "repro/serving/engine.py",
        "                victims = victims[:1]\n"
        "                states = [s for s in states if s is not victims[0]]\n",
        "                states = [s for s in states if s not in victims]\n",
        ("tests/serving/test_page_exhaustion.py",),
    ),
    Mutant(
        "one_row_takes_the_gemv_route",
        "repro/model/transformer.py",
        "    if x.shape[0] == 1:\n        return (np.concatenate([x, x]) @ w)[:1]\n",
        "",
        ("tests/core/test_decode_vectorized.py",),
    ),
    Mutant(
        "kv8_group_spans_tokens",
        CODEC,
        "    zero = x.min(axis=-1, keepdims=True)\n    scale = x.max(axis=-1, keepdims=True)\n",
        "    zero = x.min(axis=0, keepdims=True)\n    scale = x.max(axis=0, keepdims=True)\n",
        (f"{CODEC_TESTS}::TestQuantize::test_fake_quantize_is_the_round_trip_bit_for_bit",),
    ),
    Mutant(
        "selection_served_past_reuse_interval",
        "repro/core/page_selector.py",
        "served + queries <= self.reuse_interval",
        "served + queries <= self.reuse_interval + 1",
        (
            "tests/core/test_page_selector.py",
            "tests/eval/test_harnesses.py::TestReuseIntervalSweep::test_refreshes_at_every_multiple_of_the_interval",
        ),
    ),
    Mutant(
        "verify_runs_past_a_stop_token",
        "repro/serving/engine.py",
        "            if logits_rows is not None and params.is_stop(token):\n                break\n",
        "",
        ("tests/serving/test_speculative.py::TestDifferentialMatrix::test_stop_token_inside_accepted_chunk",),
    ),
    Mutant(
        "prefill_cut_at_skip_not_at_a_query_block",
        COMMIT,
        "keep_from = (skip // q_block) * q_block",
        "keep_from = skip",
        ("tests/core/test_prefill_logits_to_keep.py::test_a_wanted_row_inside_a_block_keeps_the_whole_block",),
    ),
    Mutant(
        "http_drops_speculation_k",
        "repro/serving/http.py",
        "                    speculation_k=speculation_k,\n",
        "",
        ("tests/serving/test_http.py::TestCompletions::test_speculative_stream_matches_a_plain_run",),
    ),
    # -- the geometry read off LServeConfig --------------------------------------
    Mutant(
        "selector_local_pages_read_as_sink",
        SELECTOR,
        "        self.local_pages = config.local_pages\n",
        "        self.local_pages = config.sink_pages\n",
        (
            "tests/core/test_page_selector.py::TestPageSelector::test_windows_come_from_the_config",
            "tests/core/test_page_selector.py::TestBatchedSelection::test_matches_scalar_loop",
        ),
    ),
    Mutant(
        "prefill_sink_is_the_local_window",
        COMMIT,
        "                sink_tokens=self.config.sink_tokens,\n",
        "                sink_tokens=self.config.local_tokens,\n",
        ("tests/core/test_engine.py::TestSparseServing::test_prefill_matches_masked_reference",),
    ),
    Mutant(
        "policy_scores_physical_pages_as_logical",
        "repro/eval/retrieval_policies.py",
        "            logical_page_size=self.logical_page_size,\n",
        "            logical_page_size=self.physical_page_size,\n",
        ("tests/eval/test_retrieval_policies.py::TestThroughTheEngineSelector::test_selects_the_oracles_tokens",),
    ),
    # -- selections travel with the pages ------------------------------------------
    Mutant(
        "import_drops_selection_entries",
        POOL,
        "            if export.selections[layer] is not None:\n"
        "                self.page_selections[(seq_id, layer)] = export.selections[layer]\n",
        "",
        (
            f"{POOL_TESTS}::TestPageSelections::test_export_import_carries_them",
            "tests/core/test_engine.py::TestSelectionsTravelWithTheSequence"
            "::test_handoff_mid_interval_decodes_like_an_undisturbed_twin",
        ),
    ),
    # -- verify in place: rewind and commit ----------------------------------------
    Mutant(
        "rewind_restores_no_stat_row",
        POOL,
        "                if row is not None:\n"
        "                    page, slot = self._stat_slot(table, count)\n"
        "                    self._kmin[layer][page, slot], self._kmax[layer][page, slot] = row\n",
        "",
        (f"{SPEC_BATCH}::TestVerifySegments::test_logical_page_boundary",),
    ),
    Mutant(
        "rewind_restores_no_selection_entry",
        POOL,
        "                if entry is None:\n"
        "                    self.page_selections.pop((seq_id, layer), None)\n"
        "                else:\n"
        "                    self.page_selections[(seq_id, layer)] = entry\n",
        "",
        (f"{SPEC_BATCH}::TestVerifySegments::test_dynamic_sparsity_turns_on_mid_chunk",),
    ),
    Mutant(
        "commit_takes_a_stale_chunk",
        COMMIT,
        "            if self._verified.get(seq_id) is not chunk:\n",
        "            if False:\n",
        (f"{SPEC_BATCH}::TestFusedEngineDifferential::test_stale_chunk_is_refused",),
    ),
    Mutant(
        "rewind_keeps_a_selection_below_its_last_page",
        POOL,
        "                    if selection is not None and count < selection[:, -1].max() * self.config.page_size:\n",
        "                    if False:\n",
        (f"{BLOCK_TESTS}::TestDenseBlocks::test_rows_rewritten_below_the_last_page_are_read_again",),
    ),
    # -- one write, one advance ----------------------------------------------------
    Mutant(
        "constant_group_unguarded",
        CODEC,
        "    # Guard constant groups: any positive scale works since codes become 0.\n"
        "    scale[scale <= 0.0] = 1.0\n",
        "",
        (f"{CODEC_TESTS}::TestQuantize::test_constant_input_exact",),
    ),
    Mutant(
        "fold_slice_starts_a_row_early",
        POOL,
        "cuts.append(row + max(logical * lps - start, 0))",
        "cuts.append(row + max(logical * lps - start - 1, 0))",
        (f"{POOL_TESTS}::TestWriteThenAdvance::test_advance_is_split_invariant",),
    ),
    Mutant(
        "multi_row_write_indexed_as_one_row",
        POOL,
        "        if one_each:  # a row per sequence",
        "        if True:  # a row per sequence",
        (f"{POOL_TESTS}::TestWriteThenAdvance::test_prefill_sized_write_stores_the_bytes_of_a_bulk_append",),
    ),
    Mutant(
        "multi_sequence_fold_skips_a_partial_page",
        POOL,
        "            if start % lps:\n                partial.append(len(cuts))\n",
        "            if start % lps and not partial:\n                partial.append(len(cuts))\n",
        (f"{POOL_TESTS}::TestWriteThenAdvance::test_advance_is_split_invariant",),
    ),
    Mutant(
        "fork_shares_its_partly_filled_tail_page",
        POOL,
        "        tail = [self.install_page_image(self.page_image(ptable[n_full]))] if partial else []\n"
        "        child = ptable[:n_full]\n",
        "        tail = []\n        child = ptable[: n_full + bool(partial)]\n",
        (
            f"{POOL_TESTS}::TestPoolResidentKeyStats::test_fork_copies_the_tail_both_sides_fold_their_own",
            f"{BLOCK_TESTS}::TestReservation::test_a_forked_tail_needs_no_page_to_write",
        ),
    ),
    # -- verify attends once per run -----------------------------------------------
    Mutant(
        "refreshes_off_by_one",
        SELECTOR,
        "entry[2] < self.reuse_interval and",
        "entry[2] <= self.reuse_interval and",
        ("tests/core/test_page_selector.py::TestReusablePageSelector::test_refreshes_predicts_lookup",),
    ),
    Mutant(
        "lookup_counts_one_query_per_run",
        SELECTOR,
        "            entries[key] = (selection, served + queries)\n",
        "            entries[key] = (selection, served + 1)\n",
        (f"{SPEC_BATCH}::TestVerifySegments::test_logical_page_boundary",),
    ),
    Mutant(
        "score_ahead_without_the_new_logical_row",
        COMMIT,
        "                kmin, kmax = np.concatenate([kmin, new], axis=1), np.concatenate([kmax, new], axis=1)\n",
        "                pass\n",
        (f"{SPEC_BATCH}::TestFusedEngineDifferential::test_fused_matches_solo_and_sequential",),
    ),
    Mutant(
        "score_ahead_without_folding_into_the_open_row",
        COMMIT,
        "                kmin[:, -1:] = np.minimum(kmin[:, -1:], new)\n"
        "                kmax[:, -1:] = np.maximum(kmax[:, -1:], new)\n",
        "                pass\n",
        (),
        equivalent="the row folds into the newest logical page, which lies in the newest physical page, "
        "and every selection keeps that page whatever its score",
    ),
    Mutant(
        "padded_slots_enter_the_softmax_sum",
        "repro/core/unified_sparse_attention.py",
        "            scores[..., int(shortest) :] = -np.inf\n",
        "            scores[..., int(shortest) :] = 0.0\n",
        (
            "tests/core/test_unified_sparse_attention.py::TestDecodeBatchedAttentionRows"
            "::test_each_row_equals_its_solo_call_at_the_capacity",
        ),
    ),
    # -- HTTP admission --------------------------------------------------------------
    Mutant(
        "admission_yields_past_a_stalled_connection",
        "repro/serving/frontend.py",
        "            if progress is None or progress == seen:\n",
        "            if progress is None:\n",
        (
            f"{HTTP_TESTS}::TestAdmission::test_idle_connection_costs_at_most_one_extra_yield_per_step",
            f"{HTTP_TESTS}::TestAdmission::test_half_sent_head_costs_at_most_one_extra_yield_per_step",
        ),
    ),
    Mutant(
        "probe_ignores_accepted_connections",
        "repro/serving/http.py",
        "        if ready or accepted or self._admitting:\n",
        "        if ready or accepted:\n",
        (
            f"{HTTP_TESTS}::TestAdmission::test_second_request_connect_to_submit_spans_at_most_two_steps",
            f"{HTTP_TESTS}::TestClusterOverHTTP::test_admission_yields_reach_every_replica",
        ),
    ),
    Mutant(
        "http_serves_a_falsy_stop_as_none",
        "repro/serving/http.py",
        "            stop = payload.get(\"stop\")\n            if stop is None:\n",
        "            stop = payload.get(\"stop\")\n            if not stop:\n",
        (f"{HTTP_TESTS}::TestEndpoints::test_bad_json_and_bad_fields_400",),
    ),
    # -- hand-off and the cold tier ----------------------------------------------------
    Mutant(
        "handoff_stamps_kv8",
        "repro/serving/backend.py",
        "            kv_bits=engine.config.kv_bits,\n            payload=export,\n",
        "            kv_bits=8,\n            payload=export,\n",
        (
            "tests/serving/test_kv_tiering.py::test_a_demotion_round_trip_is_bit_exact_at_every_hot_width",
            "tests/serving/test_kv_tiering.py::test_restore_bill_is_the_parked_handoffs_transfer_latency",
        ),
    ),
    Mutant(
        "committed_chunk_left_in_verified",
        COMMIT,
        "        for seq_id in seq_ids:\n            del self._verified[seq_id]\n",
        "",
        (),
        equivalent="a second commit of the chunk is refused anyway (the sequence moved past its base_len), "
        "and the next decode step, verify or release of the sequence drops the entry",
    ),
    # -- the selector's defaults and guard -------------------------------------------
    Mutant(
        "selector_default_group_is_two",
        SELECTOR,
        "        gqa_group_size: int = 1,\n    ) -> list[PageSelection]:\n",
        "        gqa_group_size: int = 2,\n    ) -> list[PageSelection]:\n",
        (
            "tests/core/test_page_selector.py::TestPageSelector::test_the_default_group_is_one_query_head_per_kv_head",
        ),
    ),
    Mutant(
        "reusable_select_default_group_is_two",
        SELECTOR,
        "        gqa_group_size: int = 1,\n    ) -> PageSelection:\n",
        "        gqa_group_size: int = 2,\n    ) -> PageSelection:\n",
        (
            "tests/core/test_page_selector.py::TestReusablePageSelector"
            "::test_select_defaults_to_one_query_head_per_kv_head",
        ),
    ),
    Mutant(
        "overhead_reduction_unguarded",
        SELECTOR,
        "        if self.num_selector_calls == 0:\n            return 1.0\n",
        "",
        ("tests/core/test_page_selector.py::TestReusablePageSelector::test_overhead_reduction_before_any_query_is_one",),
    ),
    # -- page exhaustion ---------------------------------------------------------------
    Mutant(
        "unservable_prefill_fails_the_step",
        "repro/serving/engine.py",
        "        except OutOfPagesError:\n            return self._requeue(state)\n        state.record_scheduled",
        "        except OutOfPagesError:\n            if self._requeue(state) is None:\n                return None\n"
        "            raise\n        state.record_scheduled",
        (
            "tests/serving/test_page_exhaustion.py::TestPrefillRequeue"
            "::test_prefill_oom_with_nothing_decoding_ends_that_request_alone",
        ),
    ),
    Mutant(
        "pool_unchecked_at_the_door",
        "repro/serving/engine.py",
        "        if pool is not None and need > pool:\n",
        "        if False:\n",
        (
            f"{HTTP_TESTS}::TestEndpoints"
            "::test_a_prompt_the_pool_cannot_hold_is_refused_and_the_server_survives",
            "tests/serving/test_page_exhaustion.py::TestPrefillRequeue"
            "::test_a_request_the_pool_cannot_hold_is_refused_at_the_door",
        ),
    ),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else ""


def run(mutants: list[Mutant]) -> int:
    """Run ``mutants``; prints one line each, returns the exit status."""
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        probe = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(clean)), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(clean)):
            print(f"repro does not import from the copy: {probe.stdout or probe.stderr}")
            return 1
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if tests:
            start = time.perf_counter()
            result = _pytest(clean, tests)
            if result.returncode != 0:
                print(f"the table's tests fail on the unmutated tree:\n{result.stdout[-3000:]}")
                return 1
            print(f"{'(unmutated tree)':<42} {'passes':<10} {time.perf_counter() - start:5.1f}s")
        for i, mutant in enumerate(mutants):
            src = _copy_src(Path(tmp) / f"m{i}")
            path = src / mutant.file
            text = path.read_text()
            found = text.count(mutant.snippet)
            start = time.perf_counter()
            if found != 1:
                status, detail = "ORPHANED", f"snippet found {found} times in {mutant.file}"
            elif mutant.equivalent:
                status, detail = "equivalent", mutant.equivalent
            else:
                path.write_text(text.replace(mutant.snippet, mutant.replacement))
                result = _pytest(src, mutant.tests)
                # 1: tests failed; 2: collection failed on the mutated import.
                if result.returncode in (1, 2):
                    status, detail = "killed", _first_failure(result.stdout)
                elif result.returncode == 0:
                    status, detail = "SURVIVED", " ".join(mutant.tests)
                else:
                    status, detail = "ERROR", f"pytest exit {result.returncode}: {_first_failure(result.stdout)}"
            bad += status not in ("killed", "equivalent")
            print(f"{mutant.name:<42} {status:<10} {time.perf_counter() - start:5.1f}s  {detail}", flush=True)
            shutil.rmtree(src.parent)
    print(f"{len(mutants)} mutants, {bad} not killed or equivalent")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", default=[], metavar="NAME", help="run this entry only (repeatable)")
    parser.add_argument("--list", action="store_true", help="print the table and run nothing")
    args = parser.parse_args()
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.only if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [by_name[name] for name in args.only] if args.only else list(MUTANTS)
    if args.list:
        for m in mutants:
            print(f"{m.name:<42} {m.file}  {'equivalent: ' + m.equivalent if m.equivalent else ' '.join(m.tests)}")
        return 0
    return run(mutants)


if __name__ == "__main__":
    sys.exit(main())
