"""Fused batch speculative verification: the cross-batch differential matrix.

PR 10's acceptance-critical property: verifying every speculating sequence's
chunk in **one** fused engine pass (``decode_speculative_batch``) is
*bitwise* identical to verifying each chunk alone (``decode_speculative``),
which PR 9 already proved bitwise-identical to plain sequential decode.  The
``_rowwise_matmul`` GEMM pinning plus the no-padding signature-grouped
batched attention make every chunk row independent of its batchmates, so the
identity must hold for **every** batch composition.

The matrix crosses, at the engine level: head splits (all-dense /
all-streaming / mixed), heterogeneous k per member (1/3/5/7), forked
batchmates sharing pages, and a mid-batch verify-OOM that must fail
atomically (only the named member, batchmates untouched).  At the serving
level: fused vs per-member vs non-speculative runs over spec+plain mixes,
sampling modes, and an injected one-member verify-OOM mid-run.  Every
real-backend cell ends with the shared zero-leak audit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
from repro.kvcache import paged_cache
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    LServeBackend,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
    SpecBatchResult,
)
from tests.conftest import assert_no_leaked_pages, cached_selections, counted_calls, step_outcomes

HEAD_SPLITS = {
    "dense": np.array([False, False]),
    "streaming": np.array([True, True]),
    "mixed": np.array([False, True]),
}

HEAD_SPLIT_PARAMS = [
    pytest.param("dense", marks=pytest.mark.slow),
    pytest.param("streaming", marks=pytest.mark.slow),
    pytest.param("mixed"),
]


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def lserve_config(**overrides) -> LServeConfig:
    base = dict(
        streaming_head_ratio=0.5,
        dynamic_sparsity_enabled=True,
        kv_bits=8,
        physical_page_size=16,
        logical_page_size=4,
        sink_tokens=16,
        local_tokens=32,
        q_block_size=16,
        token_budget=64,
        reuse_interval=4,
    )
    base.update(overrides)
    return LServeConfig(**base)


def make_engine(model, split="mixed", num_pages=512, **overrides) -> LServeEngine:
    return LServeEngine(
        model,
        lserve_config(**overrides),
        streaming_kv_heads=HEAD_SPLITS[split],
        num_cache_pages=num_pages,
    )


def prompt_ids(model, seed: int, n: int = 48) -> list[int]:
    return [int(t) for t in (np.arange(n) * (seed * 2 + 3)) % model.config.vocab_size]


def chunk_tokens(model, seed: int, k: int) -> list[int]:
    return [int(t) for t in (np.arange(k) * 11 + seed * 5 + 1) % model.config.vocab_size]


def bytes_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_chunks_identical(solo, fused) -> None:
    """Every captured per-layer key array of a chunk must match bitwise."""
    assert solo.seq_id == fused.seq_id
    assert solo.base_len == fused.base_len
    assert np.array_equal(solo.tokens, fused.tokens)
    for a, b in zip(solo.k_per_layer, fused.k_per_layer):
        assert bytes_eq(a, b), f"chunk keys differ for {solo.seq_id!r}"


def kv_reads(engine: LServeEngine, seq_id: object) -> list[np.ndarray]:
    """Every KV read of one sequence: dense K/V, dense key statistics, streaming window."""
    cache = engine.cache
    return [
        np.array(array)
        for layer in range(engine.model.config.n_layers)
        for read in (cache.get_dense, cache.dense_key_stats, cache.get_streaming)
        for array in read(seq_id, layer)
    ]


def assert_reads_equal(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert bytes_eq(a, b)


def assert_same_entries(got: dict, want: dict) -> None:
    """The same selection entries, by identity (an entry is replaced, never mutated)."""
    assert got.keys() == want.keys()
    assert all(got[key] is want[key] for key in got)


def audit_engine(engine: LServeEngine) -> None:
    dense = engine.cache.dense_cache
    if dense is not None:
        assert_no_leaked_pages(dense.allocator)


def prefill_seqs(engine, model, lengths: list[int]) -> list[str]:
    seq_ids = []
    for i, n in enumerate(lengths):
        seq_id = f"s{i}"
        engine.prefill(seq_id, np.asarray(prompt_ids(model, i, n), dtype=np.int64))
        seq_ids.append(seq_id)
    return seq_ids


class TestFusedEngineDifferential:
    """decode_speculative_batch vs decode_speculative vs sequential decode."""

    @pytest.mark.parametrize("split", HEAD_SPLIT_PARAMS)
    def test_fused_matches_solo_and_sequential(self, model, split):
        """Heterogeneous k per member, every head split: logits and captured
        chunks bitwise-equal to per-sequence verification, and every chunk
        row bitwise-equal to plain one-token-at-a-time decode on a fork."""
        engine = make_engine(model, split)
        ks = [1, 3, 5, 7]
        seq_ids = prefill_seqs(engine, model, [40, 48, 56, 64])
        requests = [
            (sid, chunk_tokens(model, i, k))
            for i, (sid, k) in enumerate(zip(seq_ids, ks))
        ]

        solo = [engine.decode_speculative(sid, toks) for sid, toks in requests]
        fused = engine.decode_speculative_batch(requests)
        for (solo_logits, solo_chunk), (fused_logits, fused_chunk) in zip(solo, fused):
            assert bytes_eq(solo_logits, fused_logits)
            assert_chunks_identical(solo_chunk, fused_chunk)

        # Sequential ground truth: feed the same tokens one at a time through
        # a fork; row j of the fused logits is the distribution after
        # consuming tokens[: j + 1], bitwise.
        for (sid, toks), (fused_logits, _) in zip(requests, fused):
            ref = ("ref", sid)
            engine.fork_sequence(sid, ref)
            for j, tok in enumerate(toks):
                row = engine.decode(ref, int(tok))
                assert bytes_eq(row, fused_logits[j]), f"row {j} of {sid} differs"
            engine.release(ref)

        for sid in seq_ids:
            engine.release(sid)
        audit_engine(engine)

    def test_commit_after_fused_matches_solo_commit(self, model):
        """Committing fused-captured chunks leaves the engine byte-identical
        to committing solo-captured chunks: the next decoded rows match."""
        lengths, ks, n_commits = [40, 52, 47], [4, 3, 5], [3, 1, 4]
        fused_engine = make_engine(model)
        solo_engine = make_engine(model)
        seq_ids = prefill_seqs(fused_engine, model, lengths)
        prefill_seqs(solo_engine, model, lengths)
        requests = [
            (sid, chunk_tokens(model, i, k))
            for i, (sid, k) in enumerate(zip(seq_ids, ks))
        ]

        fused = fused_engine.decode_speculative_batch(requests)
        fused_engine.commit_speculative(
            [(sid, chunk, n) for (sid, _), (_, chunk), n in zip(requests, fused, n_commits)]
        )
        for sid, toks in requests:
            logits, chunk = solo_engine.decode_speculative(sid, toks)
            n = n_commits[seq_ids.index(sid)]
            solo_engine.commit_speculative([(sid, chunk, n)])

        probe = 17 % model.config.vocab_size
        after_fused = fused_engine.decode_batch(seq_ids, [probe] * len(seq_ids))
        after_solo = solo_engine.decode_batch(seq_ids, [probe] * len(seq_ids))
        assert bytes_eq(after_fused, after_solo)

        for engine in (fused_engine, solo_engine):
            for sid in seq_ids:
                engine.release(sid)
            audit_engine(engine)

    @pytest.mark.parametrize("split", HEAD_SPLIT_PARAMS)
    def test_commit_schedule_matches_sequential_decode(self, model, split):
        """66 verify(m) + commit(n) steps against one-at-a-time decode on a
        twin engine, compared after **every** commit: accepted logits rows,
        every KV read and every selector entry are byte-equal.  The schedule
        crosses ``token_budget`` inside a chunk, reuse-interval boundaries,
        logical- and physical-page boundaries, with ``n < m`` and ``n == m``.
        Verify serves each position's selector query once; commit serves none
        (it installs the state verify recorded)."""
        spec, twin = make_engine(model, split), make_engine(model, split)
        prompt = np.asarray(prompt_ids(model, 3, 57), dtype=np.int64)
        spec.prefill("s", prompt)
        twin.prefill("s", prompt)
        cfg = spec.config
        n_layers = model.config.n_layers
        has_dense = not HEAD_SPLITS[split].all()
        covered = set()

        for step in range(66):
            m = 1 + step % 6
            n = m if (step // 6) % 2 == 0 else 1 + (step * 5) % m
            tokens = chunk_tokens(model, step, m)
            base = spec.context_length("s")

            queries = spec.selector.num_queries
            logits, chunk = spec.decode_speculative("s", tokens)
            past_budget = sum(cfg.dynamic_sparsity_active(base + j + 1) for j in range(m))
            assert spec.selector.num_queries - queries == has_dense * n_layers * past_budget
            queries = spec.selector.num_queries
            spec.commit_speculative([("s", chunk, n)])
            assert spec.selector.num_queries == queries

            for j in range(n):
                assert bytes_eq(twin.decode("s", tokens[j]), logits[j]), f"step {step} row {j}"
            assert spec.context_length("s") == twin.context_length("s") == base + n
            for layer in range(n_layers):
                for read in ("get_dense", "dense_key_stats", "get_streaming"):
                    got = getattr(spec.cache, read)("s", layer)
                    want = getattr(twin.cache, read)("s", layer)
                    for a, b in zip(got, want):
                        assert bytes_eq(a, b), f"step {step}: {read} layer {layer} differs"
            got, want = cached_selections(spec, "s"), cached_selections(twin, "s")
            assert got.keys() == want.keys()
            for key, (selection, served) in got.items():
                ref_selection, ref_served = want[key]
                assert served == ref_served, f"step {step}: reuse phase of {key} differs"
                assert bytes_eq(selection.pages, ref_selection.pages)
                assert selection.n_logical_pages == ref_selection.n_logical_pages
                assert selection.n_physical_pages == ref_selection.n_physical_pages

            end = base + n
            covered.add("n<m" if n < m else "n==m")
            if base < cfg.token_budget < end:
                covered.add("budget inside chunk")
            if base > cfg.token_budget and n > cfg.reuse_interval:
                covered.add("reuse interval")
            if base // cfg.logical_page_size != (end - 1) // cfg.logical_page_size:
                covered.add("logical page")
            if base // cfg.physical_page_size != (end - 1) // cfg.physical_page_size:
                covered.add("physical page")
        assert covered == {
            "n<m", "n==m", "budget inside chunk", "reuse interval", "logical page", "physical page"
        }

        for engine in (spec, twin):
            engine.release("s")
            audit_engine(engine)

    def test_commit_writes_no_kv(self, model, monkeypatch):
        """commit_speculative takes back rows verify already wrote: no K/V
        append or quantisation in either pool, no selector ``lookup`` /
        ``select`` / ``select_batch`` replayed, and per layer the one entry
        verify recorded after the last committed row installed."""
        engine = make_engine(model)
        engine.prefill("s", np.asarray(prompt_ids(model, 1, 80), dtype=np.int64))
        _, chunk = engine.decode_speculative("s", chunk_tokens(model, 1, 6))

        owners = {
            "cache": engine.cache, "selector": engine.selector,
            "dense": engine.cache.dense_cache, "stream": engine.cache.streaming_cache,
        }
        names = [
            "cache.append", "cache.append_batch", "selector.lookup", "selector.select",
            "selector.select_batch", *(f"{pool}.{attr}" for pool in ("dense", "stream")
                                       for attr in ("write_past_count", "advance")),
        ]
        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        encode = paged_cache.encode
        encoded = calls["pools.encode"] = [0]  # what either pool keeps of written rows
        monkeypatch.setattr(paged_cache, "encode", lambda *a: encoded.__setitem__(0, encoded[0] + 1) or encode(*a))
        engine.commit_speculative([("s", chunk, 5)])
        assert {name: count[0] for name, count in calls.items()} == {
            "pools.encode": 0,
            **dict.fromkeys(names, 0), "dense.advance": model.config.n_layers, "stream.advance": model.config.n_layers,
        }
        assert engine.context_length("s") == 85
        for layer, states in enumerate(chunk.selector_per_layer):
            assert states[4] is not None
            assert engine.cache.dense_cache.page_selections[("s", layer)] is states[4]

        engine.release("s")
        audit_engine(engine)

    def test_verify_writes_each_layer_once(self, model):
        """A verify of 4 sequences x 5 rows writes each layer's 20 rows with one
        write per pool and appends nothing; per layer and attention phase one
        batched advance and one attention call step the counts.  The phases
        follow from the chunk geometry: at lengths 40, 48 and 56 the chunks
        stay under the 64-token budget and open no page inside (one full-read
        run each); at 64 every row is past the budget, the first scores a
        selection that serves rows 0..3 (reuse interval 4) and row 4 opens
        logical page 18 and refreshes — runs [0..3] and [4], two phases.  A
        decode step is the same core at one row per sequence: one write, one
        advance and one attention call per layer, and no mark or rewind."""
        engine = make_engine(model)
        seq_ids = prefill_seqs(engine, model, [40, 48, 56, 64])
        cache = engine.cache
        owners = {"engine": engine, "cache": cache, "dense": cache.dense_cache, "stream": cache.streaming_cache}
        names = [
            "engine._decode_attention_batch", "cache.append", "cache.append_batch", "cache.mark", "cache.rewind",
            *(f"{pool}.{attr}" for pool in ("dense", "stream") for attr in ("write_past_count", "advance")),
        ]
        n_layers = model.config.n_layers

        def counts(phases, marks):
            return {
                "engine._decode_attention_batch": phases, "cache.append": 0, "cache.append_batch": 0,
                "cache.mark": marks, "cache.rewind": marks,
                "dense.write_past_count": n_layers, "dense.advance": phases,
                "stream.write_past_count": n_layers, "stream.advance": phases,
            }

        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        engine.decode_speculative_batch([(sid, chunk_tokens(model, i, 5)) for i, sid in enumerate(seq_ids)])
        assert {name: count[0] for name, count in calls.items()} == counts(n_layers * 2, 1)

        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        engine.decode_batch(seq_ids, [1, 2, 3, 4])
        assert {name: count[0] for name, count in calls.items()} == counts(n_layers, 0)

        for sid in seq_ids:
            engine.release(sid)
        audit_engine(engine)

    def test_verify_across_a_page_boundary_after_a_fork(self, model):
        """Fork ``c`` off ``p``, so both pools copy ``p``'s partly filled tail page
        for ``c``, then verify ``p`` with a chunk that opens the next physical
        page: every row equals one-at-a-time decode, ``c`` reads byte-equal KV,
        and after the commit so does ``p``."""
        engine, twin = make_engine(model), make_engine(model)
        prompt = np.asarray(prompt_ids(model, 5, 45), dtype=np.int64)  # 45 % 16 == 13
        for each in (engine, twin):
            each.prefill("p", prompt)
        engine.fork_sequence("p", "c")
        for pool in engine.cache.pools:
            tails = pool.page_table("p")[-1], pool.page_table("c")[-1]
            assert tails[0] != tails[1] and all(pool.allocator.refcount(page) == 1 for page in tails)
        child = kv_reads(engine, "c")
        tokens = chunk_tokens(model, 4, 6)  # rows 45 .. 50 cross into page 3

        logits, chunk = engine.decode_speculative("p", tokens)
        assert_reads_equal(kv_reads(engine, "c"), child)
        for pool in engine.cache.pools:
            assert pool.allocator.refcount(pool.page_table("p")[2]) == 1
        for j, tok in enumerate(tokens):
            assert bytes_eq(twin.decode("p", tok), logits[j]), f"row {j} differs"
        engine.commit_speculative([("p", chunk, len(tokens))])
        assert_reads_equal(kv_reads(engine, "p"), kv_reads(twin, "p"))
        assert_reads_equal(kv_reads(engine, "c"), child)

        for each in (engine, twin):
            each.release("p")
        engine.release("c")
        audit_engine(engine)

    def test_stale_chunk_is_refused(self, model):
        """A second verify overwrites the rows the first chunk refers to: committing
        the first raises, with the context, every KV read and every selection
        entry as they were."""
        engine = make_engine(model)
        engine.prefill("a", np.asarray(prompt_ids(model, 2, 90), dtype=np.int64))
        _, first = engine.decode_speculative("a", chunk_tokens(model, 1, 5))
        engine.decode_speculative("a", chunk_tokens(model, 2, 5))
        before = kv_reads(engine, "a"), cached_selections(engine, "a")

        with pytest.raises(ValueError, match="latest verification"):
            engine.commit_speculative([("a", first, 3)])
        assert engine.context_length("a") == 90
        assert_reads_equal(kv_reads(engine, "a"), before[0])
        assert_same_entries(cached_selections(engine, "a"), before[1])

        engine.release("a")
        audit_engine(engine)

    @pytest.mark.parametrize("base", [90, 96])
    def test_fork_between_verify_and_commit(self, model, base):
        """Verify ``p``, fork ``c`` off it, commit ``p``: the fork copied the
        partly filled tail page, so the commit folds key statistics into
        ``p``'s own page, ``c`` reads byte-equal KV and key statistics, and
        ``p`` equals one-at-a-time decode (a mid-page base and one on a page
        boundary)."""
        engine, twin = make_engine(model), make_engine(model)
        prompt = np.asarray(prompt_ids(model, 4, base), dtype=np.int64)
        for each in (engine, twin):
            each.prefill("p", prompt)
        tokens = chunk_tokens(model, 3, 6)
        logits, chunk = engine.decode_speculative("p", tokens)
        engine.fork_sequence("p", "c")
        child = kv_reads(engine, "c")

        engine.commit_speculative([("p", chunk, 4)])
        assert_reads_equal(kv_reads(engine, "c"), child)
        for j in range(4):
            assert bytes_eq(twin.decode("p", tokens[j]), logits[j])
        assert_reads_equal(kv_reads(engine, "p"), kv_reads(twin, "p"))
        probe = chunk_tokens(model, 5, 1)[0]
        assert bytes_eq(engine.decode("p", probe), twin.decode("p", probe))

        for each in (engine, twin):
            each.release("p")
        engine.release("c")
        audit_engine(engine)

    @pytest.mark.parametrize("base", [90, 96])
    def test_commit_after_a_fork_allocates_nothing(self, model, base):
        """Verify ``p``, fork ``c`` off it, then take every free page of both
        pools: the commit still succeeds (the verify took the pages its rows
        need and the fork took its copy), and ``p``'s rows and reads equal
        one-at-a-time decode."""
        engine, twin = make_engine(model), make_engine(model)
        prompt = np.asarray(prompt_ids(model, 7, base), dtype=np.int64)
        for each in (engine, twin):
            each.prefill("p", prompt)
        tokens = chunk_tokens(model, 8, 6)
        logits, chunk = engine.decode_speculative("p", tokens)
        engine.fork_sequence("p", "c")
        child = kv_reads(engine, "c")
        taken = [pool.allocator.allocate_many(pool.allocator.num_free) for pool in engine.cache.pools]

        engine.commit_speculative([("p", chunk, len(tokens))])
        assert all(pool.allocator.num_free == 0 for pool in engine.cache.pools)
        for j, tok in enumerate(tokens):
            assert bytes_eq(twin.decode("p", tok), logits[j]), f"row {j} differs"
        assert_reads_equal(kv_reads(engine, "p"), kv_reads(twin, "p"))
        assert_reads_equal(kv_reads(engine, "c"), child)

        for pool, pages in zip(engine.cache.pools, taken):
            pool.allocator.free_many(pages)
        for each in (engine, twin):
            each.release("p")
        engine.release("c")
        audit_engine(engine)

    def test_next_verify_reuses_the_operand_blocks(self, model):
        """One group of 8: verify -> commit (the same ``n`` for all) -> verify.
        The second verify's one position is served from the blocks the first
        left (no read in either pool) unless the selection refreshed, which
        reads the dense block once (a gather, or a refresh in place); its
        tokens open no page, so the window never slides."""
        engine = make_engine(model, logical_page_size=16, reuse_interval=8)
        seq_ids = [f"s{i}" for i in range(8)]
        prompt = np.asarray(prompt_ids(model, 6, 97), dtype=np.int64)  # 97 % 16 == 1
        for seq_id in seq_ids:
            engine.prefill(seq_id, prompt)
        dense = counted_calls(engine.cache.dense_cache, "_read_blocks")
        in_place = counted_calls(engine.cache.dense_cache, "_refresh")
        window = counted_calls(engine.cache.streaming_cache, "_read_blocks")
        refreshes = counted_calls(engine.selector, "select_batch")
        n_layers = model.config.n_layers
        served = 0
        for cycle in range(3):  # 4 tokens a cycle: 97 .. 108 stay in one physical page
            results = engine.decode_speculative_batch(
                [(seq_id, chunk_tokens(model, cycle * 8 + i, 3)) for i, seq_id in enumerate(seq_ids)]
            )
            for seq_id, (_, chunk) in zip(seq_ids, results):
                engine.commit_speculative([(seq_id, chunk, 3)])
            before = dense[0] + in_place[0], window[0], refreshes[0]
            results = engine.decode_speculative_batch(
                [(seq_id, chunk_tokens(model, cycle * 8 + i + 100, 1)) for i, seq_id in enumerate(seq_ids)]
            )
            refreshed = refreshes[0] - before[2]
            assert window[0] - before[1] == 0
            assert dense[0] + in_place[0] - before[0] == refreshed <= n_layers
            served += refreshed == 0
            for seq_id, (_, chunk) in zip(seq_ids, results):
                engine.commit_speculative([(seq_id, chunk, 1)])
        assert served >= 1

        for seq_id in seq_ids:
            engine.release(seq_id)
        audit_engine(engine)

    def test_forked_batchmates(self, model):
        """A fork and its parent speculate different chunks in one fused call
        while sharing full pages; both match their per-sequence results."""
        engine = make_engine(model)
        engine.prefill("parent", np.asarray(prompt_ids(model, 0, 48), dtype=np.int64))
        engine.fork_sequence("parent", "child")
        requests = [
            ("parent", chunk_tokens(model, 1, 4)),
            ("child", chunk_tokens(model, 2, 6)),
        ]

        solo = [engine.decode_speculative(sid, toks) for sid, toks in requests]
        fused = engine.decode_speculative_batch(requests)
        for (solo_logits, solo_chunk), (fused_logits, fused_chunk) in zip(solo, fused):
            assert bytes_eq(solo_logits, fused_logits)
            assert_chunks_identical(solo_chunk, fused_chunk)

        engine.release("child")
        engine.release("parent")
        audit_engine(engine)

    def test_verify_oom_fails_atomically_for_named_members_only(self, model):
        """A member whose chunk cannot be reserved fails the fused call with
        exactly its seq_id named, nothing mutated; the survivors then verify
        fine and match their per-sequence results."""
        engine = make_engine(model, num_pages=10)
        seq_ids = prefill_seqs(engine, model, [40, 44])
        before = engine.cache.dense_cache.allocator.num_allocated
        before_lens = [engine.context_length(s) for s in seq_ids]
        before_reads = [kv_reads(engine, s) for s in seq_ids]
        before_entries = [cached_selections(engine, s) for s in seq_ids]

        requests = [
            (seq_ids[0], chunk_tokens(model, 0, 3)),
            (seq_ids[1], chunk_tokens(model, 1, 96)),  # cannot fit
        ]
        with pytest.raises(DecodeOutOfPagesError) as exc_info:
            engine.decode_speculative_batch(requests)
        assert list(exc_info.value.failed_seq_ids) == [seq_ids[1]]
        assert engine.cache.dense_cache.allocator.num_allocated == before
        assert [engine.context_length(s) for s in seq_ids] == before_lens
        for seq_id, reads, entries in zip(seq_ids, before_reads, before_entries):
            assert_reads_equal(kv_reads(engine, seq_id), reads)
            assert_same_entries(cached_selections(engine, seq_id), entries)

        solo_logits, _ = engine.decode_speculative(*requests[0])
        survivors = engine.decode_speculative_batch([requests[0]])
        assert bytes_eq(solo_logits, survivors[0][0])

        for sid in seq_ids:
            engine.release(sid)
        audit_engine(engine)

    def test_input_validation(self, model):
        engine = make_engine(model)
        engine.prefill("a", np.asarray(prompt_ids(model, 0, 40), dtype=np.int64))
        with pytest.raises(ValueError, match="at least one sequence"):
            engine.decode_speculative_batch([])
        with pytest.raises(ValueError, match="duplicate seq_id"):
            engine.decode_speculative_batch([("a", [1]), ("a", [2])])
        with pytest.raises(ValueError, match="at least one token"):
            engine.decode_speculative_batch([("a", [])])
        with pytest.raises(KeyError, match="ghost"):
            engine.decode_speculative_batch([("a", [1]), ("ghost", [2])])
        engine.release("a")
        audit_engine(engine)


def assert_same_sequence_state(got: LServeEngine, want: LServeEngine, seq_id: object) -> None:
    """Two engines hold one sequence alike: counts, page tables, page images, key-stat rows, selection entries."""
    assert got.context_length(seq_id) == want.context_length(seq_id)
    for got_pool, want_pool in zip(got.cache.pools, want.cache.pools):
        table = got_pool.page_table(seq_id)
        assert table == want_pool.page_table(seq_id)
        for page in table:
            for got_rows, want_rows in zip(got_pool.page_image(page), want_pool.page_image(page)):
                assert all(bytes_eq(a, b) for a, b in zip(got_rows, want_rows))
    for layer in range(got.model.config.n_layers):
        for a, b in zip(got.cache.dense_key_stats(seq_id, layer), want.cache.dense_key_stats(seq_id, layer)):
            assert bytes_eq(np.asarray(a), np.asarray(b))
    got_entries, want_entries = cached_selections(got, seq_id), cached_selections(want, seq_id)
    assert got_entries.keys() == want_entries.keys()
    for key, (selection, served) in got_entries.items():
        want_selection, want_served = want_entries[key]
        assert served == want_served
        assert (selection.n_physical_pages, selection.n_logical_pages) == (
            want_selection.n_physical_pages, want_selection.n_logical_pages
        )
        assert bytes_eq(selection.pages, want_selection.pages)


class TestBatchedCommit:
    """One ``commit_speculative`` call over every member equals committing them one at a time."""

    @pytest.mark.parametrize("split", HEAD_SPLIT_PARAMS)
    def test_together_equals_one_at_a_time(self, model, split):
        """Six verify + commit cycles at staggered lengths (members cross refresh
        rows, logical and physical pages at different rows), then 20 decode steps:
        page images, key-stat rows and selection entries after every commit and
        the logits of every later step are equal."""
        together, alone = make_engine(model, split), make_engine(model, split)
        lengths = [40, 52, 47, 63, 70]
        seq_ids = prefill_seqs(together, model, lengths)
        prefill_seqs(alone, model, lengths)
        rng = np.random.default_rng(5)
        vocab = model.config.vocab_size
        for _ in range(6):
            requests = [(sid, rng.integers(0, vocab, size=int(rng.integers(1, 6)))) for sid in seq_ids]
            ns = [int(rng.integers(1, len(tokens) + 1)) for _, tokens in requests]
            verified = [engine.decode_speculative_batch(requests) for engine in (together, alone)]
            together.commit_speculative(
                [(sid, chunk, n) for sid, (_, chunk), n in zip(seq_ids, verified[0], ns)]
            )
            for sid, (_, chunk), n in zip(seq_ids, verified[1], ns):
                alone.commit_speculative([(sid, chunk, n)])
            for sid in seq_ids:
                assert_same_sequence_state(together, alone, sid)
        for _ in range(20):
            tokens = rng.integers(0, vocab, size=len(seq_ids))
            assert bytes_eq(together.decode_batch(seq_ids, tokens), alone.decode_batch(seq_ids, tokens))

        for engine in (together, alone):
            for sid in seq_ids:
                engine.release(sid)
            audit_engine(engine)

    def test_one_advance_per_layer_for_every_member(self, model):
        """A commit of three members makes one ``advance`` per layer and pool."""
        engine = make_engine(model)
        seq_ids = prefill_seqs(engine, model, [40, 52, 47])
        results = engine.decode_speculative_batch(
            [(sid, chunk_tokens(model, i, 4)) for i, sid in enumerate(seq_ids)]
        )
        calls = [counted_calls(pool, "advance") for pool in engine.cache.pools]
        engine.commit_speculative([(sid, chunk, 3) for sid, (_, chunk) in zip(seq_ids, results)])
        assert [count[0] for count in calls] == [model.config.n_layers] * len(calls)
        assert [engine.context_length(sid) for sid in seq_ids] == [43, 55, 50]

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["stale", "superseded", "foreign", "zero", "too many", "twice"])
    def test_a_bad_member_moves_no_member(self, model, bad, at):
        """A stale or foreign chunk, an ``n_commit`` out of range or a member listed
        twice, anywhere in the batch, raises before any member moves; the good
        members then commit as if nothing had happened."""
        engine = make_engine(model)
        seq_ids = prefill_seqs(engine, model, [70, 52, 47])
        results = engine.decode_speculative_batch(
            [(sid, chunk_tokens(model, i, 4)) for i, sid in enumerate(seq_ids)]
        )
        commits = [(sid, chunk, 3) for sid, (_, chunk) in zip(seq_ids, results)]
        sid, chunk, _ = commits[at]
        if bad == "stale":
            engine.decode(sid, 1)  # moves the sequence and drops its pending chunk
        elif bad == "superseded":
            engine.decode_speculative(sid, chunk_tokens(model, 9, 4))
        elif bad == "foreign":
            commits[at] = (sid, commits[(at + 1) % 3][1], 3)
        elif bad == "twice":
            commits.append(commits[at])
        else:
            commits[at] = (sid, chunk, 0 if bad == "zero" else 5)
        before = {s: (engine.context_length(s), kv_reads(engine, s), cached_selections(engine, s)) for s in seq_ids}

        with pytest.raises(ValueError):
            engine.commit_speculative(commits)
        for s, (length, reads, entries) in before.items():
            assert engine.context_length(s) == length
            assert_reads_equal(kv_reads(engine, s), reads)
            assert_same_entries(cached_selections(engine, s), entries)

        # A stale or superseded member's chunk can never commit; every other one still can.
        moved = bad in ("stale", "superseded")
        good = [(s, c, 3) for s, (_, c) in zip(seq_ids, results) if not (moved and s == sid)]
        engine.commit_speculative(good)
        for s, _, n in good:
            assert engine.context_length(s) == before[s][0] + n
        for s in seq_ids:
            engine.release(s)
        audit_engine(engine)


class TestVerifySegments:
    """A verify attends run by run: every chunk row and every commit equal sequential decode.

    Each case puts a chunk across one kind of run boundary — a reuse
    refresh, a logical page, a physical page that also moves the streaming
    window, the budget where dynamic sparsity turns on — or mixes members
    whose boundaries fall at different rows.  For every ``n`` a fresh pair
    of engines is set up: one verifies all chunks in one call and commits
    ``n`` rows of each (its whole chunk when shorter), the twin decodes
    the same tokens one at a time; rows, every KV read, every selection
    entry and the next decode step must be byte-equal.
    """

    @staticmethod
    def run(model, members, overrides) -> list[int]:
        """``members`` are ``(prompt length, warm-up decodes, chunk length)``; returns attention phases per verify."""
        phases = []
        for n in range(1, max(m for _, _, m in members) + 1):
            spec, twin = make_engine(model, **overrides), make_engine(model, **overrides)
            requests = []
            for i, (prompt, warm, m) in enumerate(members):
                seq_id = f"s{i}"
                for engine in (spec, twin):
                    engine.prefill(seq_id, np.asarray(prompt_ids(model, i, prompt), dtype=np.int64))
                    for token in chunk_tokens(model, 50 + i, warm):
                        engine.decode(seq_id, token)
                requests.append((seq_id, chunk_tokens(model, i, m)))
            calls = counted_calls(spec, "_decode_attention_batch")
            results = spec.decode_speculative_batch(requests)
            phases.append(calls[0])
            for (seq_id, tokens), (logits, chunk) in zip(requests, results):
                accepted = min(n, len(tokens))
                spec.commit_speculative([(seq_id, chunk, accepted)])
                for j in range(accepted):
                    assert bytes_eq(twin.decode(seq_id, tokens[j]), logits[j]), f"n={n}: {seq_id} row {j}"
                assert_reads_equal(kv_reads(spec, seq_id), kv_reads(twin, seq_id))
                got, want = cached_selections(spec, seq_id), cached_selections(twin, seq_id)
                assert got.keys() == want.keys()
                for key, (selection, served) in got.items():
                    assert served == want[key][1], f"n={n}: reuse phase of {key}"
                    assert bytes_eq(selection.pages, want[key][0].pages)
                    assert selection.n_logical_pages == want[key][0].n_logical_pages
            seq_ids = [seq_id for seq_id, _ in requests]
            probe = [int(t) for t in chunk_tokens(model, 99, len(seq_ids))]
            assert bytes_eq(spec.decode_batch(seq_ids, probe), twin.decode_batch(seq_ids, probe))
            for engine in (spec, twin):
                for seq_id in seq_ids:
                    engine.release(seq_id)
                audit_engine(engine)
        return phases

    def test_reuse_refresh(self, model):
        """Logical page = physical page, reuse interval 2: positions 100..105
        stay in one page and the warm-up leaves the entry one query served.
        Row 0 is served, rows 1, 3 and 5 refresh: runs [0] [1 2] [3 4] [5],
        the two-row ones scored ahead of their advance."""
        phases = self.run(model, [(97, 3, 6)], dict(logical_page_size=16, reuse_interval=2))
        assert set(phases) == {4 * model.config.n_layers}

    def test_logical_page_boundary(self, model):
        """Logical pages of 4, reuse interval 16: position 104 opens a logical
        page inside physical page 6 (96..111), so the chunk at 101..105 runs
        [0 1 2] on the old selection and [3 4] on one scored with the new
        page's first key as its statistics."""
        phases = self.run(model, [(98, 3, 5)], dict(reuse_interval=16))
        assert set(phases) == {2 * model.config.n_layers}

    def test_physical_page_opens_and_window_drops_a_page(self, model):
        """Position 96 opens page 6: the dense selection refreshes and the
        streaming window (one sink page, two local pages) lets page 4 go."""
        cfg = lserve_config()
        base, m = 94, 6
        assert (base + 2) % cfg.physical_page_size == 0
        assert (base + 2) // cfg.physical_page_size - 2 >= cfg.sink_tokens // cfg.physical_page_size
        phases = self.run(model, [(90, 4, m)], {})
        assert min(phases) >= 2 * model.config.n_layers

    def test_dynamic_sparsity_turns_on_mid_chunk(self, model):
        """Budget 72: contexts 68..74 are read in full up to 72 and selected
        past it, so rows 5 and 6 are a sparse run scored at row 5, whose key
        opens a logical page (no physical page opens at 67..73)."""
        phases = self.run(model, [(64, 3, 7)], dict(token_budget=72))
        assert set(phases) == {2 * model.config.n_layers}

    def test_members_with_different_boundaries_and_ragged_chunks(self, model):
        """Five members in one call: the budget and a page opening at row 2,
        a page opening at row 2 past the budget, a logical page at row 3, a
        chunk of one row below the budget and a seven-row chunk past it."""
        self.run(model, [(60, 2, 5), (90, 4, 6), (98, 3, 4), (40, 0, 1), (126, 4, 7)], {})


# -- serving level -----------------------------------------------------------------


def trace(model, samplings, max_new_tokens=16):
    """One request per sampling params, staggered arrivals."""
    return [
        Request.from_prompt(
            f"r{i}",
            prompt_ids(model, i),
            max_new_tokens=max_new_tokens,
            sampling=sampling,
            arrival_time_s=0.001 * i,
        )
        for i, sampling in enumerate(samplings)
    ]


def spec_params(k: int, temperature: float = 0.0) -> SamplingParams:
    return SamplingParams(temperature=temperature, seed=7, speculation_k=k)


class _CountingSpecBatch:
    """Callable shadowing ``backend.decode_speculative_batch`` that counts
    fused calls and optionally injects a one-member verify-OOM."""

    def __init__(self, backend, fail_seq_at: tuple[object, int] | None = None):
        self._real = backend.decode_speculative_batch
        self._fail_seq_at = fail_seq_at
        self.calls = 0

    def __call__(self, requests):
        self.calls += 1
        if self._fail_seq_at is not None:
            seq_id, at_call = self._fail_seq_at
            if self.calls == at_call and any(s == seq_id for s, _ in requests):
                raise DecodeOutOfPagesError([seq_id], 0)
        return self._real(requests)


class _PerMemberSpecBatch:
    """Callable shadowing ``backend.decode_speculative_batch`` with the
    per-member reference: the real call once per member, results joined."""

    def __init__(self, backend):
        self._real = backend.decode_speculative_batch
        self.multi_member_calls = 0

    def __call__(self, requests):
        self.multi_member_calls += len(requests) >= 2
        parts = [self._real([request]) for request in requests]
        return SpecBatchResult(
            logits=[p.logits[0] for p in parts],
            elapsed_s=sum(p.elapsed_s for p in parts),
            chunks=[p.chunks[0] for p in parts],
        )


def run_mode(model, requests, mode, reference=None, split="mixed", fail_seq_at=None):
    """One serving run; ``mode`` is 'plain', 'fused', or 'unfused' (the same
    step loop, but every member verified and committed by its own singleton
    calls).

    Returns the engine, the outputs by request id, the verify-call counter
    and the run's step outcomes."""
    backend = LServeBackend(make_engine(model, split))
    counter = None
    if mode == "fused":
        counter = _CountingSpecBatch(backend, fail_seq_at=fail_seq_at)
        backend.decode_speculative_batch = counter
    elif mode == "unfused":
        counter = _PerMemberSpecBatch(backend)
        backend.decode_speculative_batch = counter
        commit = backend.commit_speculative

        def commit_one_at_a_time(commits):
            for member in commits:
                commit([member])

        backend.commit_speculative = commit_one_at_a_time
    draft = PrerecordedDraft(reference) if mode != "plain" else None
    engine = ServingEngine(
        backend, SchedulerConfig(max_batch_size=4), draft_source=draft
    )
    outcomes = step_outcomes(engine, requests)
    if mode == "unfused":
        assert counter.multi_member_calls >= 1, "reference never split a batch"
    outputs = {
        r.request_id: list(engine.handle(r.request_id).output_tokens)
        for r in requests
    }
    if engine.backend.engine.cache.dense_cache is not None:
        assert_no_leaked_pages(
            engine.backend.engine.cache.dense_cache.allocator, backend=engine.backend
        )
    else:
        assert engine.backend.kv_tokens_in_use() == 0
    return engine, outputs, counter, outcomes


K_PARAMS = [
    pytest.param(1),
    pytest.param(3),
    pytest.param(5, marks=pytest.mark.slow),
    pytest.param(7, marks=pytest.mark.slow),
]


class TestFusedServingDifferential:
    """ServingEngine's fused verify vs one call per member vs plain decode."""

    @pytest.mark.parametrize("k", K_PARAMS)
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_all_spec_batch_byte_identical(self, model, k, temperature):
        plain_reqs = trace(model, [spec_params(0, temperature)] * 3)
        _, reference, _, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(k, temperature)] * 3)
        fused_engine, fused_out, counter, _ = run_mode(
            model, spec_reqs, "fused", reference
        )
        _, unfused_out, _, _ = run_mode(model, spec_reqs, "unfused", reference)

        assert counter.calls > 0, "fused path never engaged"
        assert fused_out == reference
        assert unfused_out == reference
        assert fused_engine.draft_tokens_accepted > 0

    @pytest.mark.parametrize("split", HEAD_SPLIT_PARAMS)
    def test_head_splits_byte_identical(self, model, split):
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _, _ = run_mode(model, plain_reqs, "plain", split=split)

        spec_reqs = trace(model, [spec_params(4)] * 3)
        _, fused_out, counter, _ = run_mode(
            model, spec_reqs, "fused", reference, split=split
        )
        assert counter.calls > 0
        assert fused_out == reference

    @pytest.mark.parametrize(
        "ks",
        [
            pytest.param((4, 0, 4), id="spec-plain-spec"),
            pytest.param((0, 3, 5), id="plain-mixed-k"),
            pytest.param((4, 0, 0), id="single-spec"),
            pytest.param((1, 7, 3), marks=pytest.mark.slow, id="all-spec-ragged-k"),
        ],
    )
    def test_spec_plain_mix_compositions(self, model, ks):
        """Speculating members ride the fused call, plain members ride
        decode_batch, in the same step — outputs stay byte-identical."""
        plain_reqs = trace(model, [spec_params(0)] * len(ks))
        _, reference, _, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(k) for k in ks])
        fused_engine, fused_out, counter, _ = run_mode(model, spec_reqs, "fused", reference)
        assert fused_out == reference
        # One path: a lone speculating member rides the fused call too.
        assert counter.calls > 0
        spec_ids = {f"r{i}" for i, k in enumerate(ks) if k > 0}
        verified = {
            r.request_id for r in spec_reqs if fused_engine.handle(r.request_id).spec_decode_steps
        }
        assert verified == spec_ids

    def test_mid_run_verify_oom_on_one_member(self, model):
        """An injected verify-OOM naming one member mid-run: that member
        falls back to a plain step, the survivors retry fused, and the final
        streams stay byte-identical with zero leaked pages."""
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(4)] * 3)
        _, fused_out, counter, _ = run_mode(
            model, spec_reqs, "fused", reference, fail_seq_at=("r1", 2)
        )
        assert fused_out == reference
        assert counter.calls >= 3  # the failed call, its retry, later steps

    def test_fused_and_unfused_bill_identical_token_streams(self, model):
        """The fused path changes *when* work is billed, never *what* tokens
        emit: every step's emissions, in order, match.  The requests arrive
        together: staggered, the step that admits one would follow the wall
        time each mode bills, which the two modes spend differently."""
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _, _ = run_mode(model, plain_reqs, "plain")
        spec_reqs = [replace(r, arrival_time_s=0.0) for r in trace(model, [spec_params(3)] * 3)]
        *_, fused = run_mode(model, spec_reqs, "fused", reference)
        *_, unfused = run_mode(model, spec_reqs, "unfused", reference)
        assert any(o.draft_proposed for o in fused)
        assert [(o.kind, o.emitted_tokens) for o in fused] == [
            (o.kind, o.emitted_tokens) for o in unfused
        ]
