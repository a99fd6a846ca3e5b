"""Fused batch speculative verification: the cross-batch differential matrix.

PR 10's acceptance-critical property: verifying every speculating sequence's
chunk in **one** fused engine pass (``decode_speculative_batch``) is
*bitwise* identical to verifying each chunk alone (``decode_speculative``),
which PR 9 already proved bitwise-identical to plain sequential decode.  The
``_rowwise_matmul`` GEMM pinning plus the no-padding signature-grouped
batched attention make every chunk row independent of its batchmates, so the
identity must hold for **every** batch composition.

The matrix crosses, at the engine level: head splits (all-dense /
all-streaming / mixed), heterogeneous k per member (1/3/5/7), CoW-forked
batchmates sharing pages, and a mid-batch verify-OOM that must fail
atomically (only the named member, batchmates untouched).  At the serving
level: fused vs per-member vs non-speculative runs over spec+plain mixes,
sampling modes, and an injected one-member verify-OOM mid-run.  Every
real-backend cell ends with the shared zero-leak audit.
"""

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
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
from tests.conftest import assert_no_leaked_pages, cached_selections, counted_calls

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
        # a CoW fork; row j of the fused logits is the distribution after
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
        for (sid, _), (_, chunk), n in zip(requests, fused, n_commits):
            fused_engine.commit_speculative(sid, chunk, n)
        for sid, toks in requests:
            logits, chunk = solo_engine.decode_speculative(sid, toks)
            n = n_commits[seq_ids.index(sid)]
            solo_engine.commit_speculative(sid, chunk, n)

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
            spec.commit_speculative("s", chunk, n)
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

    def test_commit_writes_no_kv(self, model):
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
                                       for attr in ("write_past_count", "_stored", "advance")),
        ]
        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        engine.commit_speculative("s", chunk, 5)
        assert {name: count[0] for name, count in calls.items()} == {
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
        write per pool and appends nothing; per layer and chunk position one
        batched advance and one attention call step the counts.  A decode step
        is the same core at one row per sequence: one write, one advance and
        one attention call per layer, and no mark or rewind."""
        engine = make_engine(model)
        seq_ids = prefill_seqs(engine, model, [40, 48, 56, 64])
        cache = engine.cache
        owners = {"engine": engine, "cache": cache, "dense": cache.dense_cache, "stream": cache.streaming_cache}
        names = [
            "engine._decode_attention_batch", "cache.append", "cache.append_batch", "cache.mark", "cache.rewind",
            *(f"{pool}.{attr}" for pool in ("dense", "stream") for attr in ("write_past_count", "advance")),
        ]
        n_layers = model.config.n_layers

        def counts(per_position, marks):
            return {
                "engine._decode_attention_batch": per_position, "cache.append": 0, "cache.append_batch": 0,
                "cache.mark": marks, "cache.rewind": marks,
                "dense.write_past_count": n_layers, "dense.advance": per_position,
                "stream.write_past_count": n_layers, "stream.advance": per_position,
            }

        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        engine.decode_speculative_batch([(sid, chunk_tokens(model, i, 5)) for i, sid in enumerate(seq_ids)])
        assert {name: count[0] for name, count in calls.items()} == counts(n_layers * 5, 1)

        calls = {name: counted_calls(owners[name.split(".")[0]], name.split(".")[1]) for name in names}
        engine.decode_batch(seq_ids, [1, 2, 3, 4])
        assert {name: count[0] for name, count in calls.items()} == counts(n_layers, 0)

        for sid in seq_ids:
            engine.release(sid)
        audit_engine(engine)

    def test_verify_across_a_page_boundary_after_a_fork(self, model):
        """Fork ``c`` off ``p``, so both pools share ``p``'s tail page, then verify
        ``p`` with a chunk that opens the next physical page: every row equals
        one-at-a-time decode, ``c`` reads byte-equal KV, and after the commit so
        does ``p``."""
        engine, twin = make_engine(model), make_engine(model)
        prompt = np.asarray(prompt_ids(model, 5, 45), dtype=np.int64)  # 45 % 16 == 13
        for each in (engine, twin):
            each.prefill("p", prompt)
        engine.fork_sequence("p", "c")
        for pool in engine.cache.pools:
            assert pool.allocator.is_shared(pool.sequence_pages("p")[-1])
        child = kv_reads(engine, "c")
        tokens = chunk_tokens(model, 4, 6)  # rows 45 .. 50 cross into page 3

        logits, chunk = engine.decode_speculative("p", tokens)
        assert_reads_equal(kv_reads(engine, "c"), child)
        for pool in engine.cache.pools:
            assert not pool.allocator.is_shared(pool.sequence_pages("p")[2])
        for j, tok in enumerate(tokens):
            assert bytes_eq(twin.decode("p", tok), logits[j]), f"row {j} differs"
        engine.commit_speculative("p", chunk, len(tokens))
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
            engine.commit_speculative("a", first, 3)
        assert engine.context_length("a") == 90
        assert_reads_equal(kv_reads(engine, "a"), before[0])
        assert_same_entries(cached_selections(engine, "a"), before[1])

        engine.release("a")
        audit_engine(engine)

    @pytest.mark.parametrize("base", [90, 96])
    def test_fork_between_verify_and_commit(self, model, base):
        """Verify ``p``, fork ``c`` off it, commit ``p``: the commit copies the
        now-shared tail page before it folds key statistics, so ``c`` reads
        byte-equal KV and key statistics, and ``p`` equals one-at-a-time
        decode (a mid-page base and one on a page boundary)."""
        engine, twin = make_engine(model), make_engine(model)
        prompt = np.asarray(prompt_ids(model, 4, base), dtype=np.int64)
        for each in (engine, twin):
            each.prefill("p", prompt)
        tokens = chunk_tokens(model, 3, 6)
        logits, chunk = engine.decode_speculative("p", tokens)
        engine.fork_sequence("p", "c")
        child = kv_reads(engine, "c")

        engine.commit_speculative("p", chunk, 4)
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

    def test_next_verify_reuses_the_operand_blocks(self, model):
        """One group of 8: verify -> commit (the same ``n`` for all) -> verify.
        The second verify's one position is served from the blocks the first
        left (no full gather in either pool) unless the selection refreshed;
        its tokens open no page, so the window never slides."""
        engine = make_engine(model, logical_page_size=16, reuse_interval=8)
        seq_ids = [f"s{i}" for i in range(8)]
        prompt = np.asarray(prompt_ids(model, 6, 97), dtype=np.int64)  # 97 % 16 == 1
        for seq_id in seq_ids:
            engine.prefill(seq_id, prompt)
        dense = counted_calls(engine.cache.dense_cache, "_read_blocks")
        window = counted_calls(engine.cache.streaming_cache, "_read_blocks")
        refreshes = counted_calls(engine.selector, "select_batch")
        n_layers = model.config.n_layers
        served = 0
        for cycle in range(3):  # 4 tokens a cycle: 97 .. 108 stay in one physical page
            results = engine.decode_speculative_batch(
                [(seq_id, chunk_tokens(model, cycle * 8 + i, 3)) for i, seq_id in enumerate(seq_ids)]
            )
            for seq_id, (_, chunk) in zip(seq_ids, results):
                engine.commit_speculative(seq_id, chunk, 3)
            before = dense[0], window[0], refreshes[0]
            results = engine.decode_speculative_batch(
                [(seq_id, chunk_tokens(model, cycle * 8 + i + 100, 1)) for i, seq_id in enumerate(seq_ids)]
            )
            refreshed = refreshes[0] - before[2]
            assert window[0] - before[1] == 0
            assert dense[0] - before[0] == refreshed <= n_layers
            served += refreshed == 0
            for seq_id, (_, chunk) in zip(seq_ids, results):
                engine.commit_speculative(seq_id, chunk, 1)
        assert served >= 1

        for seq_id in seq_ids:
            engine.release(seq_id)
        audit_engine(engine)

    def test_cow_forked_batchmates(self, model):
        """A fork and its parent speculate different chunks in one fused call
        while sharing CoW pages; both match their per-sequence results."""
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
    step loop, but every member verified by its own singleton call)."""
    backend = LServeBackend(make_engine(model, split))
    counter = None
    if mode == "fused":
        counter = _CountingSpecBatch(backend, fail_seq_at=fail_seq_at)
        backend.decode_speculative_batch = counter
    elif mode == "unfused":
        counter = _PerMemberSpecBatch(backend)
        backend.decode_speculative_batch = counter
    draft = PrerecordedDraft(reference) if mode != "plain" else None
    engine = ServingEngine(
        backend, SchedulerConfig(max_batch_size=4), draft_source=draft
    )
    engine.run(list(requests))
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
    return engine, outputs, counter


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
        _, reference, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(k, temperature)] * 3)
        fused_engine, fused_out, counter = run_mode(
            model, spec_reqs, "fused", reference
        )
        _, unfused_out, _ = run_mode(model, spec_reqs, "unfused", reference)

        assert counter.calls > 0, "fused path never engaged"
        assert fused_out == reference
        assert unfused_out == reference
        assert fused_engine.draft_tokens_accepted > 0

    @pytest.mark.parametrize("split", HEAD_SPLIT_PARAMS)
    def test_head_splits_byte_identical(self, model, split):
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _ = run_mode(model, plain_reqs, "plain", split=split)

        spec_reqs = trace(model, [spec_params(4)] * 3)
        _, fused_out, counter = run_mode(
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
        _, reference, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(k) for k in ks])
        fused_engine, fused_out, counter = run_mode(model, spec_reqs, "fused", reference)
        assert fused_out == reference
        # One path: a lone speculating member rides the fused call too.
        assert counter.calls > 0
        spec_ids = {f"r{i}" for i, k in enumerate(ks) if k > 0}
        logged = {
            e.split(":")[1]
            for e in fused_engine.decision_log
            if e.startswith("spec:")
        }
        assert logged == spec_ids

    def test_mid_run_verify_oom_on_one_member(self, model):
        """An injected verify-OOM naming one member mid-run: that member
        falls back to a plain step, the survivors retry fused, and the final
        streams stay byte-identical with zero leaked pages."""
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _ = run_mode(model, plain_reqs, "plain")

        spec_reqs = trace(model, [spec_params(4)] * 3)
        _, fused_out, counter = run_mode(
            model, spec_reqs, "fused", reference, fail_seq_at=("r1", 2)
        )
        assert fused_out == reference
        assert counter.calls >= 3  # the failed call, its retry, later steps

    def test_fused_and_unfused_bill_identical_token_streams(self, model):
        """The fused path changes *when* work is billed, never *what* tokens
        emit: per-request emission order in the decision log matches."""
        plain_reqs = trace(model, [spec_params(0)] * 3)
        _, reference, _ = run_mode(model, plain_reqs, "plain")
        spec_reqs = trace(model, [spec_params(3)] * 3)
        fused_engine, _, _ = run_mode(model, spec_reqs, "fused", reference)
        unfused_engine, _, _ = run_mode(model, spec_reqs, "unfused", reference)
        fused_spec = [e for e in fused_engine.decision_log if e.startswith("spec:")]
        unfused_spec = [e for e in unfused_engine.decision_log if e.startswith("spec:")]
        assert fused_spec == unfused_spec
