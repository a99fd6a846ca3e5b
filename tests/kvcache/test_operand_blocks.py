"""Operand blocks at the store level: when a kept gather is served, and when it is not."""

from __future__ import annotations

import numpy as np

from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from tests.conftest import append_rows, counted_calls, streaming_retained
from tests.oracle import fake_quantize

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
            append_rows(cache, seq_id, layer, *rng.normal(size=(2, n_tokens, HEADS, DIM)))


def step(cache, seq_ids, rng) -> None:
    """One decode token for every sequence, on every layer: written past the count, then advanced over."""
    for layer in range(N_LAYERS):
        k, v = rng.normal(size=(2, len(seq_ids), HEADS, DIM))
        cache.write_past_count(seq_ids, layer, k, v)
        cache.advance(seq_ids, layer, k)


def fresh_gather(cache: PagedKVCache, seq_id, layer: int, selection: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(H, n, d)`` K/V of one sequence's selection through ``gather_pages``: no block involved."""
    ks, vs = zip(*(cache.gather_pages(seq_id, layer, row)[:2] for row in selection))
    return (
        np.stack([k[:, head] for head, k in enumerate(ks)]),
        np.stack([v[:, head] for head, v in enumerate(vs)]),
    )


def assert_gather_is_fresh(cache, seq_ids, layer, selections) -> None:
    """The operand is the selected pages whole, and each row's tokens are those a fresh read gives."""
    k, v = cache.gather_selected_batch(seq_ids, layer, selections)
    assert k.shape == v.shape == (len(seq_ids), HEADS, selections[0].shape[1] * PAGE, DIM)
    for i, (seq_id, selection) in enumerate(zip(seq_ids, selections)):
        want_k, want_v = fresh_gather(cache, seq_id, layer, selection)
        n = want_k.shape[1]
        np.testing.assert_array_equal(k[i, :, :n], want_k)
        np.testing.assert_array_equal(v[i, :, :n], want_v)


def read_rows(cache: PagedKVCache) -> list[tuple[str, int]]:
    """Wrap ``_read_cells``; returns the live list of its reads: ``("rows", n)`` for a full
    read of ``n`` operand rows, ``("cells", n)`` for a refresh that read ``n`` (page, head) cells."""
    reads: list[tuple[str, int]] = []
    inner = cache._read_cells

    def wrapper(layer, blocks):
        reads.append(("rows", blocks.shape[0]) if blocks.ndim == 3 else ("cells", blocks.size))
        return inner(layer, blocks)

    cache._read_cells = wrapper
    return reads


class TestDenseBlocks:
    def test_served_until_the_group_or_a_selection_changes(self, rng):
        cache = make_cache()
        ids = ["a", "b", "c"]
        fill(cache, ids, 3 * PAGE + 1, rng)  # four pages, the tail holds one token
        selections = [np.array([[0, 2, 3], [1, 2, 3]]) for _ in ids]
        reads = read_rows(cache)

        def serve(seq_ids=ids, chosen=selections) -> list[tuple[str, int]]:
            before = len(reads)
            assert_gather_is_fresh(cache, seq_ids, 0, chosen)
            return reads[before:]

        assert serve() == [("rows", 3)]  # first call: every row
        assert serve() == []  # nobody grew
        step(cache, ids, rng)
        assert serve() == []  # one token each, copied into its row in place
        append_rows(cache, "b", 0, *rng.normal(size=(2, 2, HEADS, DIM)))  # a two-token commit fills b's tail
        assert serve() == []  # members grew by different counts
        chosen = [selections[0], selections[1].copy(), selections[2]]
        # One other selection object, over the same full pages: its row is refreshed, no cell changed.
        assert serve(chosen=chosen) == [("cells", 0)]
        step(cache, ids, rng)  # b opens page 4; its selection still ends in page 3
        assert serve(chosen=chosen) == []
        # Every member brings a new selection: only head 0's middle page changes in each row.
        chosen = [np.array([[0, 1, 3], [1, 2, 3]]) for _ in ids]
        assert serve(chosen=chosen) == [("cells", 3)]
        assert serve(chosen=[np.array([[0, 3], [2, 3]]) for _ in ids]) == [("rows", 3)]  # another page count
        assert serve(["a", "b"], chosen[:2]) == [("rows", 2)]  # other members
        assert cache.operand_block_bytes == 2 * 2 * HEADS * 3 * PAGE * DIM * 8  # "c" went with the old block

    def test_rows_rewritten_past_a_rewind_are_read_again(self, rng):
        """A verify's rows in the block become slack at the rewind; what is written there next is what is read."""
        cache = make_cache()
        ids = ["a", "b"]
        fill(cache, ids, 2 * PAGE + 1, rng)  # the tail page holds one token
        selections = [np.array([[0, 2], [1, 2]]) for _ in ids]
        reads = read_rows(cache)
        assert_gather_is_fresh(cache, ids, 1, selections)
        points = [cache.mark(seq_id) for seq_id in ids]
        draft_k, draft_v = rng.normal(size=(2, 5, HEADS, DIM))
        cache.write_past_count(ids, 1, draft_k, draft_v, [2, 3])
        cache.advance(ids, 1, draft_k, [2, 3])
        assert_gather_is_fresh(cache, ids, 1, selections)  # the verify's rows, read in place
        cache.rewind(ids, points)
        assert_gather_is_fresh(cache, ids, 1, selections)
        step(cache, ids, rng)  # over the first draft row of each
        assert_gather_is_fresh(cache, ids, 1, selections)
        assert reads == [("rows", 2)]

    def test_tail_page_is_found_by_token_count_not_by_position(self, rng):
        """With spare pages behind a partial tail, a fork copies the *tail* and leaves the parent its block."""
        cache = make_cache()
        fill(cache, ["a"], 2 * PAGE + 1, rng)
        cache.write_past_count(["a"], 0, *rng.normal(size=(2, 2 * PAGE, HEADS, DIM)), [2 * PAGE])  # two spare pages
        assert len(cache.page_table("a")) == 5
        selection = [np.array([[0, 2], [1, 2]])]
        assert_gather_is_fresh(cache, ["a"], 0, selection)
        pages = list(cache.page_table("a"))
        cache.fork_sequence("a", "child")
        assert cache.page_table("a") == pages
        assert cache.page_table("child")[:2] == pages[:2] and cache.page_table("child")[2] not in pages
        reads = read_rows(cache)
        step(cache, ["child"], rng)  # the child writes its own token into its copy of the tail
        step(cache, ["a"], rng)  # "a" keeps every page id: still served from the block
        assert_gather_is_fresh(cache, ["a"], 0, selection)
        cache.fork_sequence("a", "other")
        step(cache, ["other"], rng)
        step(cache, ["a"], rng)
        assert_gather_is_fresh(cache, ["a"], 0, selection)
        assert reads == []

    def test_rows_rewritten_below_the_last_page_are_read_again(self, rng):
        """A rewind below the first slot of a row's last page, then other rows
        up to the same count: the next serve refreshes that row from the page
        the rewind went back into (a copy-in of the last page alone left the
        rejected rows in the page before it), and only that row."""
        cache = make_cache()
        ids = ["a", "b"]
        fill(cache, ids, 10, rng)
        selections = [np.array([[0, 1, 2, 3], [0, 1, 2, 3]]) for _ in ids]

        def write(seq_ids, m) -> None:
            for layer in range(N_LAYERS):
                k, v = rng.normal(size=(2, m * len(seq_ids), HEADS, DIM))
                cache.write_past_count(seq_ids, layer, k, v, [m] * len(seq_ids))
                cache.advance(seq_ids, layer, k, [m] * len(seq_ids))

        point = cache.mark("a")
        write(ids, 3)  # 13 tokens each: the last selected page holds one
        assert_gather_is_fresh(cache, ids, 0, selections)
        cache.rewind(["a"], [point])  # "a" back to 10, below its last page's first slot (12)
        write(["a"], 2)  # other rows 10 and 11, in the page before the last
        write(["a"], 1)
        reads = read_rows(cache)
        assert_gather_is_fresh(cache, ids, 0, selections)
        assert reads == [("cells", HEADS)]  # page 2 of "a", both heads; its last page is copied in whole

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
        cache.truncate_pages("b", [0, 2])  # a truncation moves the member's pages: the block goes
        assert cache.operand_block_bytes == 0
        serve(["c", "d"])
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
        """One stacked quantisation writes the bytes of two: KV8 groups are per (token, head) row."""
        cache = make_cache()
        fill(cache, ["a"], PAGE + 1, rng)
        k, v = rng.normal(size=(2, 3, HEADS, DIM))
        append_rows(cache, "a", 0, k, v)
        step_k, step_v = rng.normal(size=(2, 1, HEADS, DIM))
        cache.write_past_count(["a"], 0, step_k, step_v)
        cache.advance(["a"], 0, step_k)
        got_k, got_v = cache.get("a", 0)
        for got, rows, step_rows in ((got_k, k, step_k), (got_v, v, step_v)):
            want = np.concatenate([fake_quantize(rows, 8), fake_quantize(step_rows, 8)])
            np.testing.assert_array_equal(got[PAGE + 1 :], want)


class TestReservation:
    def test_a_forked_tail_needs_no_page_to_write(self, rng):
        cache = make_cache(num_pages=8)
        fill(cache, ["a"], PAGE + 1, rng)
        assert cache.pages_required("a", PAGE - 1) == 0  # fits the private tail page
        cache.fork_sequence("a", "child")  # takes the tail's copy now
        assert cache.pages_required("child", PAGE - 1) == 0
        # With no page left, both still write into tail pages of their own.
        cache.allocator.allocate_many(cache.allocator.num_free)
        step(cache, ["child", "a"], rng)
        tails = cache.page_table("child")[1], cache.page_table("a")[1]
        assert tails[0] != tails[1] and all(cache.allocator.refcount(page) == 1 for page in tails)


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
        self.refreshes = counted_calls(self.dual.streaming_cache, "_refresh")

    def add(self, seq_id: str, n_tokens: int) -> None:
        self.dual.add_sequence(seq_id)
        self.history[seq_id] = np.zeros((2, 0, HEADS, DIM))
        self.append(seq_id, n_tokens)
        self.dual.slide(seq_id)

    def append(self, seq_id: str, n_tokens: int) -> None:
        """A bulk write."""
        kv = self.rng.normal(size=(2, n_tokens, HEADS, DIM))
        self.dual.slide(seq_id)
        self.dual.append(seq_id, 0, *kv)
        self.history[seq_id] = np.concatenate([self.history[seq_id], kv], axis=1)

    def step(self, seq_ids: list[str]) -> None:
        for seq_id in seq_ids:
            self.dual.slide(seq_id)
        kv = self.rng.normal(size=(2, len(seq_ids), HEADS, DIM))
        self.dual.append_batch(seq_ids, 0, *kv)
        for i, seq_id in enumerate(seq_ids):
            self.history[seq_id] = np.concatenate([self.history[seq_id], kv[:, i : i + 1]], axis=1)

    def serve(self, seq_ids: list[str]) -> int:
        """Read the groups, compare every row with its retained history; returns the reads made
        (full gathers and in-place refreshes)."""
        before = self.gathers[0] + self.refreshes[0]
        groups = self.dual.get_streaming_groups(seq_ids, 0)
        assert sorted(int(i) for rows, _, _ in groups for i in rows) == list(range(len(seq_ids)))
        for rows, k_g, v_g in groups:
            for j, i in enumerate(rows):
                history = self.history[seq_ids[i]]
                kept = streaming_retained(history.shape[1], self.SINK, self.LOCAL, PAGE)
                assert k_g.shape[2] == -(-len(kept) // PAGE) * PAGE  # the window's whole pages
                window = np.stack([k_g[j], v_g[j]])[:, :, : len(kept)]
                np.testing.assert_array_equal(window.transpose(0, 2, 1, 3), history[:, kept])
        return self.gathers[0] + self.refreshes[0] - before


class TestStreamingBlocks:
    def test_served_until_the_window_slides(self, rng):
        case = WindowCase(rng)
        ids = ["a", "b"]
        for seq_id in ids:
            case.add(seq_id, 2)  # still inside the sink
        reads, refreshes = [], []
        for _ in range(40):  # through the sink, the window's growth and several slides
            before = case.refreshes[0]
            case.step(ids)
            reads.append(case.serve(ids))
            refreshes.append(case.refreshes[0] - before)
        # A read on the first step, on every step whose token opens a page,
        # and on the step after one whose token pushed a page out of the
        # window: that step's slide took the page out of the table.  A page
        # opened at the window's full page count moves every window page one
        # slot: the block is refreshed in place; the other reads are gathers.
        totals = range(3, 43)
        kept = [streaming_retained(total, case.SINK, case.LOCAL, PAGE) for total in totals]
        slid = [False] + [now != was + [total - 1] for was, now, total in zip(kept, kept[1:], totals[1:])]
        expected = [
            int(i == 0 or (total - 1) % PAGE == 0 or slid[i - 1]) for i, total in enumerate(totals)
        ]
        n_pages = [-(-len(k) // PAGE) for k in kept]
        in_place = [
            int(read and i > 0 and not slid[i - 1] and n_pages[i] == n_pages[i - 1]) for i, read in enumerate(expected)
        ]
        assert reads == expected
        assert refreshes == in_place and sum(in_place) > 0
        assert 0 < sum(reads) <= 2 * (40 // PAGE) + 1

    def test_served_while_the_windows_stand(self, rng):
        case = WindowCase(rng, local=16)
        ids = ["a", "b", "c"]
        for seq_id in ids:
            case.add(seq_id, 10)  # no page leaves the window before total 21
        assert case.serve(ids) == 1
        assert case.serve(ids) == 0  # nobody grew
        case.step(ids)
        assert case.serve(ids) == 0
        case.append("b", 1)  # a one-token bulk write leaves the row a decode step leaves
        assert case.serve(ids) == 0  # members grew by different counts, within their tail pages
        case.step(["a", "c"])
        assert case.serve(ids) == 0
        case.step(ids)
        assert case.serve(ids[::-1]) == 1  # another order is another operand
        case.step(ids)
        assert case.serve(ids[::-1]) == 0
        case.dual.fork_sequence("a", "child")  # shares "a"'s full pages, copies its tail
        case.history["child"] = case.history["a"]
        case.step(ids)
        assert case.serve(ids[::-1]) == 0  # "a" kept every page: the block still serves
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
