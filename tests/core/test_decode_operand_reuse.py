"""Decode operand blocks at the engine level.

The stores keep a decode group's gathered K/V alive across the selector's
reuse interval (``PagedKVCache.gather_selected_batch``, in the dense pool
over the selector's pages and in the streaming pool over the window's).
These tests pin what that must and must not change:

* structure — a full gather happens once per selector refresh or membership
  change (dense) and twice per page the window opens — the step that opens
  it and the next, which slides the old page out — or membership change
  (streaming), not once per step;
* bytes — whatever happens to a sequence while a block names it (release and
  re-prefill under the same id, copy-on-write forks, speculative commits,
  demote/restore, members leaving and joining, reordered batches), every
  logits row equals the one a twin engine produces decoding each sequence
  alone;
* aliasing — an operand handed to attention is never written again;
* lifetime — block memory is bounded by the live sequences and is zero once
  every sequence is released.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from tests.conftest import counted_calls

VOCAB = 512
PAGE = 16
BUDGET = 128
N_LAYERS = 2
IDS = ["s0", "s1", "s2", "s3"]


def make_engine(num_cache_pages: int = 1024) -> LServeEngine:
    cfg = tiny_model_config(n_layers=N_LAYERS, n_heads=8, n_kv_heads=4, head_dim=16)
    config = LServeConfig(
        token_budget=BUDGET,
        physical_page_size=PAGE,
        logical_page_size=8,
        sink_tokens=16,
        local_tokens=32,
        kv_bits=8,
        q_block_size=16,
    )
    return LServeEngine(
        TinyTransformer(cfg, seed=7),
        config,
        streaming_kv_heads=np.array([False, True, False, True]),
        num_cache_pages=num_cache_pages,
    )


# -- structure ---------------------------------------------------------------------


def test_one_full_gather_per_refresh_or_membership_change():
    engine = make_engine()
    rng = np.random.default_rng(0)
    prompt = rng.integers(0, VOCAB, size=BUDGET + 32)
    for seq_id in IDS:
        engine.prefill(seq_id, prompt)
    dense_gathers = counted_calls(engine.cache.dense_cache, "_read_blocks")
    window_gathers = counted_calls(engine.cache.streaming_cache, "_read_blocks")
    refreshes = counted_calls(engine.selector, "select_batch")

    def step(seq_ids: list[str]) -> tuple[int, int, int]:
        before = dense_gathers[0], window_gathers[0], refreshes[0]
        engine.decode_batch(seq_ids, rng.integers(0, VOCAB, size=len(seq_ids)))
        return dense_gathers[0] - before[0], window_gathers[0] - before[1], refreshes[0] - before[2]

    steps = 62  # the steps below open no page
    start = engine.context_length("s0")
    # The first step builds the block; after that the window is gathered again
    # when a step's token opens a page (the read skips the page that left the
    # window) and on the next step (its page count slid that page out).
    opens = (np.arange(start, start + steps) % PAGE == 0).tolist()
    expected = [N_LAYERS * (i == 0 or opens[i] or opens[i - 1]) for i in range(steps)]
    per_step = [step(IDS) for _ in range(steps)]
    for dense, _, refreshed in per_step:
        assert dense == refreshed  # one equal-length group: one select_batch per layer and refresh
    assert sum(d for d, _, _ in per_step) == refreshes[0] < steps * N_LAYERS // 2
    assert [w for _, w, _ in per_step] == expected and sum(expected) < steps

    # A member leaves: one full gather per layer and store, whatever the selector did ...
    assert step(IDS[:3])[:2] == (N_LAYERS, N_LAYERS)
    # ... and the new group is served from its own blocks from then on.
    dense, streaming, refreshed = step(IDS[:3])
    assert dense == refreshed and streaming == 0
    # A reordered batch is a different operand: it gathers again too.
    assert step(IDS[2::-1])[:2] == (N_LAYERS, N_LAYERS)


def test_full_read_path_keeps_no_dense_block():
    """Below ``token_budget`` the dense heads take ``read_batch``: a plain gather every step."""
    engine = make_engine()
    rng = np.random.default_rng(1)
    for seq_id in IDS:
        engine.prefill(seq_id, rng.integers(0, VOCAB, size=40))
    for _ in range(6):
        engine.decode_batch(IDS, rng.integers(0, VOCAB, size=len(IDS)))
    assert engine.cache.dense_cache.operand_block_bytes == 0
    assert engine.cache.operand_block_bytes > 0  # the streaming window is kept


# -- aliasing ------------------------------------------------------------------------


def test_returned_operands_are_never_rewritten():
    engine = make_engine()
    rng = np.random.default_rng(2)
    prompt = rng.integers(0, VOCAB, size=BUDGET + 40)
    for seq_id in IDS:
        engine.prefill(seq_id, prompt)
    handed_out: list[tuple[np.ndarray, np.ndarray]] = []

    def recording(owner, attr, arrays_of):
        inner = getattr(owner, attr)

        def wrapper(*args):
            result = inner(*args)
            handed_out.extend((a, a.copy()) for a in arrays_of(result))
            return result

        setattr(owner, attr, wrapper)

    recording(engine.cache.dense_cache, "gather_selected_batch", lambda kv: kv)
    recording(engine.cache, "get_streaming_groups", lambda groups: [a for _, k, v in groups for a in (k, v)])
    for _ in range(12):  # three reuse intervals; every array outlives >= 5 later steps or the run
        engine.decode_batch(IDS, rng.integers(0, VOCAB, size=len(IDS)))
    assert len(handed_out) == 12 * N_LAYERS * 4
    for array, snapshot in handed_out:
        np.testing.assert_array_equal(array, snapshot)


# -- bytes under lifecycle events ----------------------------------------------------


class Twin:
    """The engine under test beside one that decodes every sequence alone."""

    def __init__(self) -> None:
        self.batched, self.solo = make_engine(), make_engine()
        self.engines = (self.batched, self.solo)
        self.rng = np.random.default_rng(3)
        self.live: set[object] = set()

    def prefill(self, seq_id: object, length: int) -> None:
        prompt = self.rng.integers(0, VOCAB, size=length)
        for engine in self.engines:
            engine.prefill(seq_id, prompt)
        self.live.add(seq_id)

    def release(self, seq_id: object) -> None:
        for engine in self.engines:
            engine.release(seq_id)
        self.live.remove(seq_id)

    def fork(self, parent: object, child: object) -> None:
        for engine in self.engines:
            engine.fork_sequence(parent, child)
        self.live.add(child)

    def decode(self, seq_ids: list[object], steps: int = 1) -> None:
        """Batched steps on one engine, one sequence at a time on the other; every row compared."""
        for _ in range(steps):
            tokens = self.rng.integers(0, VOCAB, size=len(seq_ids))
            logits = self.batched.decode_batch(seq_ids, tokens)
            for row, seq_id, token in zip(logits, seq_ids, tokens):
                np.testing.assert_array_equal(row, self.solo.decode(seq_id, int(token)))
            self.check_bounded()

    def commit(self, seq_id: object, n_verify: int, n_commit: int) -> None:
        """Verify ``n_verify`` tokens speculatively, commit ``n_commit``; the twin decodes them."""
        tokens = self.rng.integers(0, VOCAB, size=n_verify)
        logits, chunk = self.batched.decode_speculative(seq_id, tokens)
        self.batched.commit_speculative(seq_id, chunk, n_commit)
        for row, token in zip(logits[:n_commit], tokens):
            np.testing.assert_array_equal(row, self.solo.decode(seq_id, int(token)))

    def demote_restore(self, seq_id: object) -> None:
        """What a tiering backend does around a cold-tier round trip (offload mode)."""
        for engine in self.engines:
            engine.handoff_in(seq_id, engine.handoff_out(seq_id))

    def check_bounded(self) -> None:
        """Block memory never exceeds one budget-sized operand per live sequence and layer."""
        cache = self.batched.cache
        cfg = cache.config
        row = 2 * cfg.head_dim * 8  # K and V, float64
        dense = len(cache.dense_head_indices) * BUDGET * row
        window = (cache.sink_pages + cache.local_pages) * cfg.page_size
        streaming = len(cache.streaming_head_indices) * window * row
        assert 0 < cache.operand_block_bytes <= len(self.live) * cfg.n_layers * (dense + streaming)

    def teardown(self) -> None:
        for seq_id in list(self.live):
            self.release(seq_id)
        for engine in self.engines:
            assert engine.cache.operand_block_bytes == 0
            for pool in engine.cache.pools:
                assert pool.allocator.num_allocated == 0


def reprefill_under_the_same_id(twin: Twin) -> None:
    twin.decode(IDS, 6)  # two steps into a reuse interval
    twin.release("s1")
    twin.prefill("s1", twin.batched.context_length("s0"))  # lands in the survivors' shape group
    twin.decode(IDS, 7)
    twin.release("s2")
    twin.prefill("s2", BUDGET + 5)
    twin.decode(IDS, 7)


def fork_diverge_release(twin: Twin) -> None:
    twin.decode(IDS, 6)
    twin.fork("s0", "child")  # shares s0's tail page while a block names s0
    twin.decode([*IDS, "child"], 3)  # both copy the tail on write, then diverge
    twin.release("child")
    twin.decode(IDS, 6)
    twin.fork("s3", "child")
    twin.decode(["child"], 2)  # only the child writes: s3's tail stays shared, then private again
    twin.release("child")
    twin.decode(IDS, 6)


def commit_one(twin: Twin) -> None:
    twin.decode(IDS, 6)
    for seq_id in IDS:
        twin.commit(seq_id, n_verify=3, n_commit=1)
    twin.decode(IDS, 7)
    twin.commit("s2", n_verify=1, n_commit=1)
    twin.decode(IDS, 5)


def commit_many(twin: Twin) -> None:
    twin.decode(IDS, 6)
    twin.commit("s2", n_verify=5, n_commit=3)
    twin.decode(IDS, 6)
    for seq_id in IDS:
        twin.commit(seq_id, n_verify=4, n_commit=4)
    twin.decode(IDS, 6)


def demote_restore(twin: Twin) -> None:
    twin.decode(IDS, 6)
    twin.demote_restore("s1")  # same selections and reuse phase, new physical pages
    twin.decode(IDS, 7)
    for seq_id in IDS:
        twin.demote_restore(seq_id)
    twin.decode(IDS, 5)


def leave_and_join(twin: Twin) -> None:
    twin.decode(IDS, 6)
    twin.decode(IDS[:3], 3)  # s3 sits out ...
    twin.decode(IDS, 6)  # ... and comes back three tokens behind the others
    twin.prefill("late", twin.batched.context_length("s3"))
    twin.decode([*IDS, "late"], 9)


def reordered_batches(twin: Twin) -> None:
    twin.decode(IDS, 6)
    twin.decode(IDS[::-1], 3)
    twin.decode(IDS, 2)
    twin.decode(["s2", "s0"], 2)
    twin.decode(["s0", "s2", "s1", "s3"], 9)


@pytest.mark.parametrize(
    "events",
    [
        reprefill_under_the_same_id,
        fork_diverge_release,
        commit_one,
        commit_many,
        demote_restore,
        leave_and_join,
        reordered_batches,
    ],
    ids=lambda events: events.__name__,
)
def test_lifecycle_events_under_a_live_block(events):
    twin = Twin()
    for seq_id in IDS:
        twin.prefill(seq_id, BUDGET + 27)
    events(twin)
    twin.teardown()


# -- page counts ---------------------------------------------------------------------


def test_decode_oom_reserves_nothing_for_survivors():
    """Every member's pages are counted before any is taken: "a" could have the one free page, but gets none."""
    rng = np.random.default_rng(4)
    prompt = rng.integers(0, VOCAB, size=BUDGET + 2 * PAGE)  # ends on a page boundary
    tight = make_engine(num_cache_pages=2 * len(prompt) // PAGE + 1)
    for seq_id in ("a", "b"):
        tight.prefill(seq_id, prompt)
    dense = tight.cache.dense_cache
    assert dense.allocator.num_free == 1
    with pytest.raises(DecodeOutOfPagesError) as failure:
        tight.decode_batch(["a", "b"], [1, 2])
    assert failure.value.failed_seq_ids == ("b",)
    assert dense.allocator.num_free == 1
    assert len(dense.sequence_pages("a")) * PAGE == len(prompt)
    tight.release("b")
    tight.decode_batch(["a"], [1])  # the survivor decodes on its own
    tight.release("a")
    assert dense.allocator.num_allocated == 0 and tight.cache.operand_block_bytes == 0


def test_cow_finds_the_tail_page_behind_a_spare_page():
    """An uncommitted verify leaves the sequence a spare page; the tail is not ``pages[-1]``."""
    rng = np.random.default_rng(4)
    prompt = rng.integers(0, VOCAB, size=BUDGET + 2 * PAGE)  # ends on a page boundary
    tight, twin = make_engine(), make_engine()
    for engine in (tight, twin):
        engine.prefill("a", prompt)
    tight.decode_speculative_batch([("a", [1])])  # its row's page stays with "a" after the rewind
    dense = tight.cache.dense_cache
    assert len(dense.sequence_pages("a")) * PAGE == len(prompt) + PAGE  # the spare page

    for engine in (tight, twin):
        engine.fork_sequence("a", "child")
    tokens = rng.integers(0, VOCAB, size=(PAGE + 6, 2))
    for step, pair in enumerate(tokens):
        np.testing.assert_array_equal(
            tight.decode_batch(["a", "child"], pair), twin.decode_batch(["a", "child"], pair)
        )
        # Both wrote: the page that holds the newest token is private to each.
        tail = (len(prompt) + step) // PAGE
        pages = dense.sequence_pages("a")[tail], dense.sequence_pages("child")[tail]
        assert pages[0] != pages[1] and not any(dense.allocator.is_shared(page) for page in pages)
    for seq_id in ("a", "child"):
        tight.release(seq_id)
    assert dense.allocator.num_allocated == 0 and tight.cache.operand_block_bytes == 0
