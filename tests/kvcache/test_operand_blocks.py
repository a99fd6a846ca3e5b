"""Operand blocks at the store level: when a kept gather is served, and when it is not."""

from __future__ import annotations

import numpy as np

from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from tests.conftest import counted_calls, streaming_retained

PAGE = 4
HEADS = 2
DIM = 4
N_LAYERS = 2


def make_cache(**overrides) -> PagedKVCache:
    config = dict(n_layers=N_LAYERS, n_kv_heads=HEADS, head_dim=DIM, page_size=PAGE, num_pages=64, kv_bits=8)
    config.update(overrides)
    return PagedKVCache(PagedCacheConfig(**config))


def fill(cache, seq_ids, n_tokens, rng) -> None:
    for seq_id in seq_ids:
        cache.add_sequence(seq_id)
        for layer in range(N_LAYERS):
            cache.append(seq_id, layer, *rng.normal(size=(2, n_tokens, HEADS, DIM)))


def step(cache, seq_ids, rng) -> None:
    """One decode token for every sequence, on every layer: written past the count, then advanced over."""
    for layer in range(N_LAYERS):
        k, v = rng.normal(size=(2, len(seq_ids), HEADS, DIM))
        cache.write_past_count(seq_ids, layer, k, v)
        cache.advance_token_batch(seq_ids, layer, k)


def fresh_gather(cache: PagedKVCache, seq_id, layer: int, selection: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(H, n, d)`` K/V of one sequence's selection through ``gather_pages``: no block involved."""
    ks, vs = zip(*(cache.gather_pages(seq_id, layer, row)[:2] for row in selection))
    return (
        np.stack([k[:, head] for head, k in enumerate(ks)]),
        np.stack([v[:, head] for head, v in enumerate(vs)]),
    )


def assert_gather_is_fresh(cache, seq_ids, layer, selections) -> None:
    k, v = cache.gather_selected_batch(seq_ids, layer, selections)
    for i, (seq_id, selection) in enumerate(zip(seq_ids, selections)):
        want_k, want_v = fresh_gather(cache, seq_id, layer, selection)
        np.testing.assert_array_equal(k[i], want_k)
        np.testing.assert_array_equal(v[i], want_v)


class TestDenseBlocks:
    def test_hit_needs_all_four_conditions(self, rng):
        cache = make_cache()
        ids = ["a", "b", "c"]
        fill(cache, ids, 3 * PAGE + 1, rng)  # four pages, the tail holds one token
        selections = [np.array([[0, 2, 3], [1, 2, 3]]) for _ in ids]
        gathers = counted_calls(cache, "_read_blocks")

        def serve(seq_ids=ids, chosen=selections) -> int:
            before = gathers[0]
            assert_gather_is_fresh(cache, seq_ids, 0, chosen)
            return gathers[0] - before

        assert serve() == 1  # first call
        assert serve() == 1  # nobody grew
        step(cache, ids, rng)
        assert serve() == 0  # same group, same selection objects, one token each
        step(cache, ids, rng)
        assert serve(chosen=[s.copy() for s in selections]) == 1  # equal pages, other objects
        step(cache, ids, rng)  # fills the tail page
        assert serve() == 1  # the block now holds the copies, not these objects
        step(cache, ids, rng)  # opens page 4; the selections still end in page 3 ...
        assert serve() == 1  # ... whose slack is used up
        assert serve(["a", "b"], selections[:2]) == 1  # other members
        assert cache.operand_block_bytes == 2 * 2 * HEADS * 3 * PAGE * DIM * 8  # "c" went with the old block

    def test_equal_growth_within_the_tail_page_is_served(self, rng):
        """A decode step's row or a commit's several are copied in while every
        member grew alike and the rows fit the tail page's slack."""
        cache = make_cache()
        ids = ["a", "b"]
        fill(cache, ids, 2 * PAGE + 1, rng)  # the tail page holds one token
        selections = [np.array([[0, 2], [1, 2]]) for _ in ids]
        gathers = counted_calls(cache, "_read_blocks")

        def grow(counts) -> None:
            for seq_id, n in zip(ids, counts):
                cache.append(seq_id, 1, *rng.normal(size=(2, n, HEADS, DIM)))

        assert_gather_is_fresh(cache, ids, 1, selections)
        grow([2, 2])  # what a two-token commit leaves
        assert_gather_is_fresh(cache, ids, 1, selections)
        assert gathers[0] == 1
        grow([2, 2])  # the second row opens page 3: past the slack
        assert_gather_is_fresh(cache, ids, 1, selections)
        assert gathers[0] == 2
        grow([1, 0])  # members grew by different counts
        assert_gather_is_fresh(cache, ids, 1, selections)
        assert gathers[0] == 3

    def test_tail_page_is_found_by_token_count_not_by_position(self, rng):
        """With spare pages behind a partial tail, copy-on-write still moves the *tail*."""
        cache = make_cache()
        fill(cache, ["a"], 2 * PAGE + 1, rng)
        cache.prepare_append("a", 2 * PAGE)  # over-reserve: two spare pages behind the tail
        assert len(cache.sequence_pages("a")) == 5
        selection = [np.array([[0, 2], [1, 2]])]
        assert_gather_is_fresh(cache, ["a"], 0, selection)
        cache.fork_sequence("a", "child")
        step(cache, ["child"], rng)  # the child copies the shared tail and writes its own token
        step(cache, ["a"], rng)  # "a" keeps the old page id: still served from the block
        assert_gather_is_fresh(cache, ["a"], 0, selection)
        cache.fork_sequence("a", "other")
        tail = cache.sequence_pages("a")[2]
        step(cache, ["a"], rng)  # now "a" copies: new tail id, same ``pages[-1]``
        assert cache.sequence_pages("a")[2] != tail
        step(cache, ["other"], rng)  # and the old tail page takes someone else's token
        assert_gather_is_fresh(cache, ["a"], 0, selection)

    def test_regrouping_and_removal_drop_blocks(self, rng):
        cache = make_cache()
        ids = ["a", "b", "c", "d"]
        fill(cache, ids, 2 * PAGE + 1, rng)
        selections = {seq_id: np.array([[0, 2], [1, 2]]) for seq_id in ids}

        def serve(seq_ids) -> None:
            for layer in range(N_LAYERS):
                assert_gather_is_fresh(cache, seq_ids, layer, [selections[s] for s in seq_ids])

        per_sequence = 2 * HEADS * 2 * PAGE * DIM * 8 * N_LAYERS
        serve(ids)
        assert cache.operand_block_bytes == 4 * per_sequence
        serve(["a", "b"])  # the four-member block named "a" and "b": it goes, "c" and "d" with it
        assert cache.operand_block_bytes == 2 * per_sequence
        serve(["c", "d"])
        serve(["d", "a"])  # names a member of each two-member block: both go
        assert cache.operand_block_bytes == 2 * per_sequence
        cache.remove_sequence("a")
        assert cache.operand_block_bytes == 0
        serve(["b", "c", "d"])
        for seq_id in ("b", "c", "d"):
            cache.remove_sequence(seq_id)
        assert cache.operand_block_bytes == 0 and cache.allocator.num_allocated == 0

    def test_one_off_reads_neither_create_nor_evict_blocks(self, rng):
        cache = make_cache()
        fill(cache, ["a", "b"], 2 * PAGE + 2, rng)
        for read in (
            lambda: cache.get("a", 0),
            lambda: cache.read_batch(["a", "b"], 0),
            lambda: cache.gather_pages("a", 0, [0, 2]),
        ):
            read()
            assert cache.operand_block_bytes == 0
        selections = [np.array([[0, 2], [1, 2]]) for _ in "ab"]
        cache.gather_selected_batch(["a", "b"], 0, selections)
        live = cache._operands.blocks()
        cache.get("a", 0), cache.read_batch(["a", "b"], 0), cache.gather_pages("a", 0, [0, 2])
        assert [block for _, block in cache._operands.blocks()] == [block for _, block in live]

    def test_write_path_quantises_k_and_v_together(self, rng):
        """One stacked ``_stored`` call writes the bytes of two: KV8 groups are per (token, head) row."""
        cache = make_cache()
        fill(cache, ["a"], PAGE + 1, rng)
        k, v = rng.normal(size=(2, 3, HEADS, DIM))
        cache.append("a", 0, k, v)
        step_k, step_v = rng.normal(size=(2, 1, HEADS, DIM))
        cache.write_past_count(["a"], 0, step_k, step_v)
        cache.advance_token_batch(["a"], 0, step_k)
        got_k, got_v = cache.get("a", 0)
        np.testing.assert_array_equal(got_k[PAGE + 1 :], np.concatenate([cache._stored(k), cache._stored(step_k)]))
        np.testing.assert_array_equal(got_v[PAGE + 1 :], np.concatenate([cache._stored(v), cache._stored(step_v)]))


class TestReservation:
    def test_private_tail_needs_no_reservation_shared_tail_does(self, rng):
        cache = make_cache(num_pages=8)
        fill(cache, ["a"], PAGE + 1, rng)
        cache.prepare_append("a", PAGE - 1)  # fits the private tail page
        assert cache.allocator.num_allocated == 2
        cache.fork_sequence("a", "child")
        cache.prepare_append("child", 1)  # the reservation itself makes the tail private
        assert cache.allocator.num_allocated == 3
        assert not cache.allocator.is_shared(cache.sequence_pages("child")[1])
        # With the pool drained, the reserved append can no longer run out of pages mid-write.
        cache.allocator.allocate_many(cache.allocator.num_free)
        step(cache, ["child", "a"], rng)


class WindowCase:
    """A one-layer dual cache whose heads all stream, beside every token appended to it."""

    SINK = 4

    def __init__(self, rng, local: int = 8) -> None:
        self.rng = rng
        self.LOCAL = local
        config = PagedCacheConfig(n_layers=1, n_kv_heads=HEADS, head_dim=DIM, page_size=PAGE, num_pages=32)
        self.dual = DualPagedKVCache(config, np.ones(HEADS, dtype=bool), self.SINK, self.LOCAL)
        #: K and V by position, ``(2, total, heads, dim)``.
        self.history: dict[str, np.ndarray] = {}
        self.gathers = counted_calls(self.dual.streaming_cache, "_read_blocks")

    def add(self, seq_id: str, n_tokens: int) -> None:
        self.dual.add_sequence(seq_id)
        self.history[seq_id] = np.zeros((2, 0, HEADS, DIM))
        self.append(seq_id, n_tokens)
        self.dual.slide(seq_id)

    def append(self, seq_id: str, n_tokens: int) -> None:
        """A bulk write."""
        kv = self.rng.normal(size=(2, n_tokens, HEADS, DIM))
        self.dual.prepare_append(seq_id, n_tokens)
        self.dual.append(seq_id, 0, *kv)
        self.history[seq_id] = np.concatenate([self.history[seq_id], kv], axis=1)

    def step(self, seq_ids: list[str]) -> None:
        for seq_id in seq_ids:
            self.dual.prepare_append(seq_id, 1)
        kv = self.rng.normal(size=(2, len(seq_ids), HEADS, DIM))
        self.dual.append_batch(seq_ids, 0, *kv)
        for i, seq_id in enumerate(seq_ids):
            self.history[seq_id] = np.concatenate([self.history[seq_id], kv[:, i : i + 1]], axis=1)

    def serve(self, seq_ids: list[str]) -> int:
        """Read the groups, compare every row with its retained history; returns the full gathers made."""
        before = self.gathers[0]
        groups = self.dual.get_streaming_groups(seq_ids, 0)
        assert sorted(int(i) for rows, _, _ in groups for i in rows) == list(range(len(seq_ids)))
        for rows, k_g, v_g in groups:
            for j, i in enumerate(rows):
                history = self.history[seq_ids[i]]
                kept = streaming_retained(history.shape[1], self.SINK, self.LOCAL, PAGE)
                np.testing.assert_array_equal(np.stack([k_g[j], v_g[j]]).transpose(0, 2, 1, 3), history[:, kept])
        return self.gathers[0] - before


class TestStreamingBlocks:
    def test_served_until_the_window_slides(self, rng):
        case = WindowCase(rng)
        ids = ["a", "b"]
        for seq_id in ids:
            case.add(seq_id, 2)  # still inside the sink
        full = []
        for _ in range(40):  # through the sink, the window's growth and several slides
            case.step(ids)
            full.append(case.serve(ids))
        # A gather on the first step, on every step whose token opens a page,
        # and on the step after one whose token pushed a page out of the
        # window: that step's reservation slid the page out of the table.
        totals = range(3, 43)
        kept = [streaming_retained(total, case.SINK, case.LOCAL, PAGE) for total in totals]
        slid = [False] + [now != was + [total - 1] for was, now, total in zip(kept, kept[1:], totals[1:])]
        expected = [
            int(i == 0 or (total - 1) % PAGE == 0 or slid[i - 1]) for i, total in enumerate(totals)
        ]
        assert full == expected
        assert 0 < sum(full) <= 2 * (40 // PAGE) + 1

    def test_served_while_every_member_grew_alike(self, rng):
        case = WindowCase(rng, local=16)
        ids = ["a", "b", "c"]
        for seq_id in ids:
            case.add(seq_id, 10)  # no page leaves the window before total 21
        assert case.serve(ids) == 1
        assert case.serve(ids) == 1  # nobody grew
        case.step(ids)
        assert case.serve(ids) == 0
        case.append("b", 1)  # a one-token bulk write leaves the row a decode step leaves
        case.step(["a", "c"])
        assert case.serve(ids) == 0
        case.step(ids)
        assert case.serve(ids[::-1]) == 1  # another order is another operand
        case.step(ids)
        assert case.serve(ids[::-1]) == 0
        case.dual.fork_sequence("a", "child")  # shares "a"'s pages, the tail included
        case.history["child"] = case.history["a"]
        case.step(ids)
        assert case.serve(ids[::-1]) == 1  # "a" copied its shared tail page on write
        case.step(["child"])
        assert case.serve(["child"]) == 1

    def test_release_drops_blocks_and_recycled_pages_start_clean(self, rng):
        case = WindowCase(rng)
        for seq_id in "abcd":
            case.add(seq_id, 9)
        row_bytes = 2 * (case.SINK + case.LOCAL) * HEADS * DIM * 8
        case.serve(["a", "b"])
        case.serve(["c", "d"])
        assert case.dual.operand_block_bytes == 4 * row_bytes
        case.dual.remove_sequence("a")  # the block that named "a" goes, "b" with it
        assert case.dual.operand_block_bytes == 2 * row_bytes
        case.add("e", 9)  # on the pages "a" held, at the total "a" had
        case.step(["e", "b"])
        assert case.serve(["e", "b"]) == 1
        for seq_id in "bcde":
            case.dual.remove_sequence(seq_id)
        assert case.dual.operand_block_bytes == 0
        assert case.dual.streaming_cache.allocator.num_allocated == 0

    def test_standalone_reads_bypass_the_blocks(self, rng):
        case = WindowCase(rng)
        case.add("a", 9)
        case.dual.get_streaming("a", 0)
        assert case.dual.operand_block_bytes == 0
        case.serve(["a"])
        live = case.dual.streaming_cache._operands.blocks()
        case.dual.get_streaming("a", 0)
        assert case.dual.streaming_cache._operands.blocks() == live
