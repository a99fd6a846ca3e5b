"""Tests for the paged KV cache."""

import hashlib

import numpy as np
import pytest

from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from repro.kvcache.quantization import decode, encode
from tests.conftest import append_rows
from tests.oracle import compute_page_key_stats, fake_quantize


def make_cache(**overrides) -> PagedKVCache:
    defaults = dict(
        n_layers=2, n_kv_heads=2, head_dim=4, page_size=4, num_pages=32, kv_bits=16,
        logical_page_size=None,
    )
    defaults.update(overrides)
    return PagedKVCache(PagedCacheConfig(**defaults))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PagedCacheConfig(n_layers=0, n_kv_heads=1, head_dim=1)
        with pytest.raises(ValueError):
            PagedCacheConfig(n_layers=1, n_kv_heads=1, head_dim=1, kv_bits=5)
        with pytest.raises(ValueError):
            PagedCacheConfig(
                n_layers=1, n_kv_heads=1, head_dim=1, page_size=10, logical_page_size=3
            )

    @pytest.mark.parametrize("field", ["page_size", "num_pages"])
    def test_page_geometry_must_be_positive(self, field):
        with pytest.raises(ValueError):
            PagedCacheConfig(n_layers=1, n_kv_heads=1, head_dim=1, **{field: 0})

    def test_logical_page_defaults(self):
        cfg = PagedCacheConfig(n_layers=1, n_kv_heads=1, head_dim=1, page_size=64)
        assert cfg.effective_logical_page_size == 64
        assert cfg.logical_pages_per_physical == 1
        cfg2 = PagedCacheConfig(
            n_layers=1, n_kv_heads=1, head_dim=1, page_size=64, logical_page_size=16
        )
        assert cfg2.logical_pages_per_physical == 4


class TestSequenceLifecycle:
    @pytest.mark.parametrize(
        "n_tokens, keep, n_left",
        [
            (9, None, 9),
            (16, [3, 0, 3], 8),  # kept pages stay in table order; duplicates are one position
            (10, [0, 2], 6),  # the dropped page was full; the partial tail's tokens stay
            (10, [0, 1], 8),  # dropping the partial tail takes only its tokens
        ],
    )
    def test_add_remove(self, rng, n_tokens, keep, n_left):
        cache = make_cache()
        cache.add_sequence("a")
        assert cache.has_sequence("a")
        k = rng.normal(size=(n_tokens, 2, 4))
        for layer in range(2):
            append_rows(cache, "a", layer, k, k)
        pages = list(cache.page_table("a"))
        assert cache.allocator.num_allocated == len(pages) == -(-n_tokens // 4)
        if keep is not None:
            with pytest.raises(IndexError):
                cache.truncate_pages("a", [0, len(pages)])
            assert cache.page_table("a") == pages  # the refused call changed nothing
            cache.truncate_pages("a", keep)
            kept = [pages[pos] for pos in sorted(set(keep))]
            assert cache.page_table("a") == kept
            for page in set(pages) - set(kept):
                assert cache.allocator.refcount(page) == 0
            assert cache.allocator.num_allocated == len(kept)
        assert [cache.seq_len("a", layer) for layer in range(2)] == [n_left, n_left]
        cache.remove_sequence("a")
        assert cache.allocator.num_allocated == 0
        assert not cache.has_sequence("a")

    @pytest.mark.parametrize(
        "n_held, n_new, expected",
        [
            (0, 0, 0),
            (0, 1, 1),
            (0, 4, 1),  # exactly one page
            (0, 5, 2),
            (10, 2, 0),  # fits the partial tail page
            (10, 3, 1),
            (10, -1, 0),  # nothing to write allocates nothing
        ],
    )
    def test_pages_required(self, rng, n_held, n_new, expected):
        cache = make_cache()
        cache.add_sequence("a")
        for layer in range(2):
            append_rows(cache, "a", layer, *rng.normal(size=(2, n_held, 2, 4)))
        assert cache.pages_required("a", n_new) == expected

    def test_duplicate_add(self):
        cache = make_cache()
        cache.add_sequence("a")
        with pytest.raises(ValueError):
            cache.add_sequence("a")

    def test_unknown_sequence(self):
        cache = make_cache()
        with pytest.raises(KeyError):
            cache.get("missing", 0)

    def test_out_of_pages(self, rng):
        cache = make_cache(num_pages=2)
        cache.add_sequence("a")
        with pytest.raises(OutOfPagesError):
            append_rows(cache, "a", 0, rng.normal(size=(9, 2, 4)), rng.normal(size=(9, 2, 4)))


class TestPageSelections:
    """The ``(selection, queries_served)`` entries travel with the sequence's pages."""

    @staticmethod
    def with_entries(rng, seq_ids):
        cache = make_cache()
        for seq_id in seq_ids:
            cache.add_sequence(seq_id)
            for layer in range(2):
                append_rows(cache, seq_id, layer, *rng.normal(size=(2, 6, 2, 4)))
                cache.page_selections[(seq_id, layer)] = (object(), layer + 1)
        return cache

    def test_remove_drops_only_that_sequence(self, rng):
        cache = self.with_entries(rng, ["a", "b"])
        kept = {key: entry for key, entry in cache.page_selections.items() if key[0] == "b"}
        cache.remove_sequence("a")
        assert cache.page_selections == kept

    def test_fork_continues_the_parents_entries(self, rng):
        cache = self.with_entries(rng, ["a"])
        cache.fork_sequence("a", "child")
        for layer in range(2):
            assert cache.page_selections[("child", layer)] is cache.page_selections[("a", layer)]
        parent = cache.page_selections[("a", 0)]
        cache.page_selections[("child", 0)] = (object(), 1)  # the child's phase moves on alone
        assert cache.page_selections[("a", 0)] is parent
        cache.remove_sequence("child")
        assert set(cache.page_selections) == {("a", 0), ("a", 1)}

    def test_export_import_carries_them(self, rng):
        source = self.with_entries(rng, ["a"])
        entries = [source.page_selections[("a", layer)] for layer in range(2)]
        export = source.export_sequence("a")
        source.remove_sequence("a")
        assert export.selections == entries and not source.page_selections
        target = make_cache()
        target.import_sequence("a", export)
        assert [target.page_selections[("a", layer)] for layer in range(2)] == entries


class TestAppendGet:
    def test_roundtrip_fp16(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(7, 2, 4))
        v = rng.normal(size=(7, 2, 4))
        append_rows(cache, "s", 0, k, v)
        k_out, v_out = cache.get("s", 0)
        np.testing.assert_allclose(k_out, k)
        np.testing.assert_allclose(v_out, v)
        assert cache.seq_len("s") == 7

    def test_incremental_append_matches(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(10, 2, 4))
        v = rng.normal(size=(10, 2, 4))
        append_rows(cache, "s", 0, k[:6], v[:6])
        append_rows(cache, "s", 0, k[6:], v[6:])
        k_out, _ = cache.get("s", 0)
        np.testing.assert_allclose(k_out, k)

    def test_layers_are_independent(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k0 = rng.normal(size=(4, 2, 4))
        k1 = rng.normal(size=(4, 2, 4))
        append_rows(cache, "s", 0, k0, k0)
        append_rows(cache, "s", 1, k1, k1)
        np.testing.assert_allclose(cache.get("s", 0)[0], k0)
        np.testing.assert_allclose(cache.get("s", 1)[0], k1)

    def test_multiple_sequences_isolated(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        cache.add_sequence("b")
        ka = rng.normal(size=(5, 2, 4))
        kb = rng.normal(size=(3, 2, 4))
        append_rows(cache, "a", 0, ka, ka)
        append_rows(cache, "b", 0, kb, kb)
        np.testing.assert_allclose(cache.get("a", 0)[0], ka)
        np.testing.assert_allclose(cache.get("b", 0)[0], kb)

    def test_quantized_append_close_but_lossy(self, rng):
        cache = make_cache(kv_bits=4)
        cache.add_sequence("s")
        k = rng.normal(size=(8, 2, 4))
        append_rows(cache, "s", 0, k, k)
        k_out, _ = cache.get("s", 0)
        assert not np.allclose(k_out, k)  # lossy
        assert np.abs(k_out - k).max() < 0.5  # but close

    def test_empty_append_is_noop(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        append_rows(cache, "s", 0, np.zeros((0, 2, 4)), np.zeros((0, 2, 4)))
        assert cache.seq_len("s") == 0

    def test_shape_validation(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        with pytest.raises(ValueError):
            append_rows(cache, "s", 0, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
        with pytest.raises(IndexError):
            append_rows(cache, "s", 5, rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)))

    def test_get_empty(self):
        cache = make_cache()
        cache.add_sequence("s")
        k, v = cache.get("s", 0)
        assert k.shape == (0, 2, 4)


class TestWriteThenAdvance:
    """``write_past_count`` + ``advance``: the one way a row reaches a pool."""

    def test_prefill_sized_write_stores_the_bytes_of_a_bulk_append(self):
        """One sequence, many pages, starting mid-page: the digest the retired bulk ``append`` stored."""
        cache = PagedKVCache(PagedCacheConfig(
            n_layers=2, n_kv_heads=2, head_dim=4, page_size=32, num_pages=64, kv_bits=8, logical_page_size=16
        ))
        rng = np.random.default_rng(33)
        cache.add_sequence("s")
        for n in (5, 300):
            for layer in range(2):
                append_rows(cache, "s", layer, *rng.normal(size=(2, n, 2, 4)))
        digest = hashlib.sha256()
        for layer in range(2):
            for part in (*cache.get("s", layer), *cache.key_stats("s", layer)):
                digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == "056fdecea4557b7e2df235f9e9de51c4ee7e5989af699611b07b36e874ced3c0"

    @staticmethod
    def advance_in(cache, how: str, seq_ids, k, n_rows) -> None:
        """Take the written rows in: in one call, in pieces, a row at a time, or a batched row per position."""
        firsts = np.cumsum([0, *n_rows[:-1]])
        if how == "one call":
            cache.advance(seq_ids, 0, k, n_rows)
        elif how == "pieces":
            for seq_id, first, n in zip(seq_ids, firsts, n_rows):
                cut = first + n // 3
                cache.advance([seq_id], 0, k[first:cut], [cut - first])
                cache.advance([seq_id], 0, k[cut : first + n], [first + n - cut])
        elif how == "single rows":
            for seq_id, first, n in zip(seq_ids, firsts, n_rows):
                for row in range(first, first + n):
                    cache.advance([seq_id], 0, k[row : row + 1])
        else:  # a batched row per position
            for j in range(max(n_rows)):
                active = [i for i, n in enumerate(n_rows) if n > j]
                cache.advance([seq_ids[i] for i in active], 0, k[[firsts[i] + j for i in active]])

    @pytest.mark.parametrize("start", ["mid logical page", "physical page boundary", "after a fork", "no key stats"])
    def test_advance_is_split_invariant(self, start):
        """An advance over n rows equals any split of it into calls and n single-row advances: stat rows and reads."""
        n_rows = [13, 3]
        seen = {}
        for how in ("one call", "pieces", "single rows", "lockstep"):
            rng = np.random.default_rng(5)
            cache = PagedKVCache(
                PagedCacheConfig(n_layers=1, n_kv_heads=2, head_dim=4, page_size=8, num_pages=32,
                                 kv_bits=8, logical_page_size=2),
                key_stats=start != "no key stats",
            )
            for seq_id, n in (("s", 16 if start == "physical page boundary" else 5), ("t", 11)):
                cache.add_sequence(seq_id)
                append_rows(cache, seq_id, 0, *rng.normal(size=(2, n, 2, 4)))
            k, v = rng.normal(size=(2, sum(n_rows), 2, 4))
            cache.write_past_count(["s", "t"], 0, k, v, n_rows)
            if start == "after a fork":
                cache.fork_sequence("s", "fork")  # the advance folds into a tail page the fork shares
                before = cache.get("fork", 0), cache.key_stats("fork", 0)
            self.advance_in(cache, how, ["s", "t"], k, n_rows)
            reads = []
            for seq_id in ("s", "t"):
                reads += [cache.seq_len(seq_id), *cache.get(seq_id, 0)]
                reads += cache.gather_pages(seq_id, 0, range(len(cache.page_table(seq_id))))
                if cache.has_key_stats:
                    reads += cache.key_stats(seq_id, 0)
            if start == "after a fork":
                for got, want in zip((cache.get("fork", 0), cache.key_stats("fork", 0)), before):
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b)
            seen[how] = reads
        for how, reads in seen.items():
            assert len(reads) == len(seen["one call"])
            for got, want in zip(reads, seen["one call"]):
                np.testing.assert_array_equal(got, want, err_msg=how)

    def test_advance_checks_its_rows_and_layer(self, rng):
        """The advance validates as the write does: a key missing a head is not broadcast into both heads' rows."""
        cache = make_cache()
        cache.add_sequence("s")
        append_rows(cache, "s", 0, *rng.normal(size=(2, 3, 2, 4)))
        k, v = rng.normal(size=(2, 8, 2, 4))
        cache.write_past_count(["s"], 0, k, v, [8])
        with pytest.raises(ValueError):
            cache.advance(["s"], 0, k[:, :1], [8])
        with pytest.raises(ValueError):
            cache.advance(["s"], 0, k, [7])
        with pytest.raises(ValueError):
            cache.advance(["s"], 0, k, [8, 0])
        with pytest.raises(IndexError):
            cache.advance(["s"], 5, k, [8])
        with pytest.raises(ValueError):  # past the pages the sequence holds
            cache.advance(["s"], 0, np.concatenate([k, k]), [16])
        assert cache.seq_len("s") == 3
        cache.advance(["s"], 0, k, [8])
        np.testing.assert_array_equal(cache.get("s", 0)[0][3:], k)


class TestGatherPages:
    def test_gather_selected_pages(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(12, 2, 4))
        append_rows(cache, "s", 0, k, k)
        k_out, v_out, pos = cache.gather_pages("s", 0, [0, 2])
        np.testing.assert_allclose(k_out, np.concatenate([k[0:4], k[8:12]]))
        np.testing.assert_array_equal(pos, np.r_[0:4, 8:12])

    def test_gather_partial_last_page(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(6, 2, 4))
        append_rows(cache, "s", 0, k, k)
        k_out, _, pos = cache.gather_pages("s", 0, [1])
        assert k_out.shape[0] == 2
        np.testing.assert_array_equal(pos, [4, 5])

    def test_token_slots_follow_the_table(self, rng):
        """Token ``t`` lives in slot ``t % page_size`` of table position ``t // page_size``,
        however the pool interleaves the sequences' pages."""
        cache = make_cache()
        keys = {"a": rng.normal(size=(10, 2, 4)), "b": rng.normal(size=(10, 2, 4))}
        for seq_id in keys:
            cache.add_sequence(seq_id)
        for t in range(10):
            for seq_id, k in keys.items():
                append_rows(cache, seq_id, 0, k[t : t + 1], k[t : t + 1])
        for seq_id, k in keys.items():
            table = cache.page_table(seq_id)
            assert len(table) == 3
            stored, _ = cache.get(seq_id, 0)
            np.testing.assert_allclose(stored, k)
            for t in range(10):
                image = cache.page_image(table[t // 4])[0][0]
                np.testing.assert_array_equal(image[:, t % 4], stored[t])
            fills = [len(cache.gather_pages(seq_id, 0, [pos])[2]) for pos in range(3)]
            assert fills == [4, 4, 2]
        assert set(cache.page_table("a")).isdisjoint(cache.page_table("b"))

    def test_gather_deduplicates_and_sorts(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(8, 2, 4))
        append_rows(cache, "s", 0, k, k)
        _, _, pos = cache.gather_pages("s", 0, [1, 0, 1])
        np.testing.assert_array_equal(pos, np.arange(8))

    def test_gather_out_of_range(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        append_rows(cache, "s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        with pytest.raises(IndexError):
            cache.gather_pages("s", 0, [3])

    def test_gather_empty_selection(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        append_rows(cache, "s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        k, v, pos = cache.gather_pages("s", 0, [])
        assert k.shape[0] == 0 and pos.size == 0


class TestKeyStats:
    def test_stats_cover_keys(self, rng):
        cache = make_cache(page_size=8, logical_page_size=4)
        cache.add_sequence("s")
        k = rng.normal(size=(13, 2, 4))
        append_rows(cache, "s", 0, k[:5], k[:5])
        append_rows(cache, "s", 0, k[5:], k[5:])
        kmin, kmax = cache.key_stats("s", 0)
        assert kmin.shape == (4, 2, 4)  # ceil(13 / 4) logical pages
        for i in range(4):
            chunk = k[i * 4 : (i + 1) * 4]
            assert np.all(chunk >= kmin[i][None] - 1e-12)
            assert np.all(chunk <= kmax[i][None] + 1e-12)

    def test_stats_incremental_equals_batch(self, rng):
        k = rng.normal(size=(11, 2, 4))
        batch = make_cache(page_size=8, logical_page_size=4)
        batch.add_sequence("s")
        append_rows(batch, "s", 0, k, k)
        inc = make_cache(page_size=8, logical_page_size=4)
        inc.add_sequence("s")
        for i in range(11):
            append_rows(inc, "s", 0, k[i : i + 1], k[i : i + 1])
        for a, b in zip(batch.key_stats("s", 0), inc.key_stats("s", 0)):
            np.testing.assert_allclose(a, b)

    def test_num_logical_pages(self, rng):
        cache = make_cache(page_size=8, logical_page_size=4)
        cache.add_sequence("s")
        append_rows(cache, "s", 0, rng.normal(size=(9, 2, 4)), rng.normal(size=(9, 2, 4)))
        assert cache.num_logical_pages("s", 0) == 3

    def test_stats_empty(self):
        cache = make_cache()
        cache.add_sequence("s")
        kmin, kmax = cache.key_stats("s", 0)
        assert kmin.shape[0] == 0


class TestMemoryModel:
    def test_quantized_cache_smaller(self, rng):
        # Use a realistic head_dim so the per-token scale/zero overhead does
        # not dominate the quantized code size.
        k = rng.normal(size=(64, 2, 64))
        sizes = {}
        for bits in (16, 8, 4):
            cache = make_cache(kv_bits=bits, page_size=16, head_dim=64)
            cache.add_sequence("s")
            append_rows(cache, "s", 0, k, k)
            sizes[bits] = cache.memory_bytes_model()
        assert sizes[4] < sizes[8] < sizes[16]

    def test_memory_scales_with_pages(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        append_rows(cache, "s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        m1 = cache.memory_bytes_model()
        append_rows(cache, "s", 0, rng.normal(size=(8, 2, 4)), rng.normal(size=(8, 2, 4)))
        m2 = cache.memory_bytes_model()
        assert m2 == pytest.approx(3 * m1)

    def test_per_sequence_accounting(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        cache.add_sequence("b")
        append_rows(cache, "a", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        append_rows(cache, "b", 0, rng.normal(size=(8, 2, 4)), rng.normal(size=(8, 2, 4)))
        total = cache.memory_bytes_model()
        assert total == pytest.approx(
            cache.memory_bytes_model("a") + cache.memory_bytes_model("b")
        )


class PoolStatsHarness:
    """A cache plus the raw keys every (sequence, layer) was appended with."""

    N_LAYERS, HEADS, DIM = 2, 2, 4

    def __init__(self, rng, **overrides):
        overrides.setdefault("page_size", 8)
        overrides.setdefault("logical_page_size", 2)
        overrides.setdefault("num_pages", 64)
        self.cache = make_cache(**overrides)
        self.logical = self.cache.config.effective_logical_page_size
        self.rng = rng
        self.keys: dict[str, list[np.ndarray]] = {}

    def add(self, seq_id: str) -> None:
        self.cache.add_sequence(seq_id)
        self.keys[seq_id] = [np.zeros((0, self.HEADS, self.DIM)) for _ in range(self.N_LAYERS)]

    def bulk(self, seq_id: str, n: int) -> None:
        for layer in range(self.N_LAYERS):
            k = self.rng.normal(size=(n, self.HEADS, self.DIM))
            append_rows(self.cache, seq_id, layer, k, self.rng.normal(size=k.shape))
            self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k])

    def token_batch(self, seq_ids: list[str]) -> None:
        """A decode step: one row per sequence written past the count, then advanced over."""
        for layer in range(self.N_LAYERS):
            k = self.rng.normal(size=(len(seq_ids), self.HEADS, self.DIM))
            self.cache.write_past_count(seq_ids, layer, k, self.rng.normal(size=k.shape))
            self.cache.advance(seq_ids, layer, k)
            for i, seq_id in enumerate(seq_ids):
                self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k[i : i + 1]])

    def check(self, cache=None, seq_ids=None) -> None:
        cache = cache or self.cache
        for seq_id in seq_ids or list(self.keys):
            for layer in range(self.N_LAYERS):
                want = compute_page_key_stats(self.keys[seq_id][layer], self.logical)
                got = cache.key_stats(seq_id, layer)
                assert cache.num_logical_pages(seq_id, layer) == want[0].shape[0]
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])


class TestPoolResidentKeyStats:
    """Pool-resident ``key_stats`` against ``compute_page_key_stats`` over the raw keys."""

    def test_interleaved_bulk_and_token_appends(self, rng):
        h = PoolStatsHarness(rng)
        for seq_id in "abc":
            h.add(seq_id)
        # Bulk appends that start and end mid logical page and span physical
        # pages, interleaved with token appends walking across both boundaries.
        h.bulk("a", 1)
        h.bulk("b", 13)
        h.bulk("c", 16)
        h.check()
        for step in range(20):
            h.token_batch(["a", "b", "c"] if step % 3 else ["c", "a"])
            if step % 5 == 0:
                h.bulk("b", 3)
            h.check()

    def test_recycled_page_shows_no_stale_rows(self, rng):
        h = PoolStatsHarness(rng, num_pages=2)
        h.add("old")
        h.bulk("old", 16)
        h.cache.remove_sequence("old")
        del h.keys["old"]
        h.add("new")
        h.bulk("new", 3)  # lands on the recycled pages; only two rows are live
        h.check()
        h.token_batch(["new"])
        h.check()

    def test_fork_copies_the_tail_both_sides_fold_their_own(self, rng):
        h = PoolStatsHarness(rng)
        h.add("parent")
        h.bulk("parent", 11)  # partial logical and physical tail page
        h.cache.fork_sequence("parent", "child")
        h.keys["child"] = list(h.keys["parent"])
        h.check()
        h.token_batch(["child"])  # the fork copied the tail: the child folds into its own rows
        h.check()
        h.token_batch(["parent"])  # the parent still folds into the original rows
        h.bulk("child", 9)
        h.check()
        h.cache.remove_sequence("parent")
        del h.keys["parent"]
        h.check()

    def test_export_import_round_trip(self, rng):
        h = PoolStatsHarness(rng)
        h.add("s")
        h.bulk("s", 21)
        export = h.cache.export_sequence("s")
        lpp = h.cache.config.logical_pages_per_physical
        assert export.kmin_pages[0].shape == (export.n_pages, lpp, h.HEADS, h.DIM)
        other = make_cache(page_size=8, logical_page_size=2, num_pages=16)
        other.allocator.allocate()  # shift page ids so the two pools disagree
        other.import_sequence("s", export)
        h.cache.remove_sequence("s")
        h.check(cache=other)
        # The imported tail keeps folding.
        k = rng.normal(size=(1, h.HEADS, h.DIM))
        other.write_past_count(["s"], 0, k, k)
        other.advance(["s"], 0, k)
        h.keys["s"][0] = np.concatenate([h.keys["s"][0], k])
        want = compute_page_key_stats(h.keys["s"][0], 2)
        np.testing.assert_array_equal(other.key_stats("s", 0)[0], want[0])

    def test_page_image_and_prefix_attach(self, rng):
        h = PoolStatsHarness(rng)
        h.add("donor")
        h.bulk("donor", 19)  # two full pages and a tail
        full_pages = h.cache.page_table("donor")[:2]
        # Attach shares the pages, so the stats come with them.
        h.cache.attach_prefix("twin", full_pages, 16)
        h.keys["twin"] = [k[:16] for k in h.keys["donor"]]
        h.check()
        # A page image carries the stat rows through a demote/restore.
        images = [h.cache.page_image(page) for page in full_pages]
        restored = [h.cache.install_page_image(image) for image in images]
        assert set(restored).isdisjoint(full_pages)
        h.cache.attach_prefix("restored", restored, 16)
        h.keys["restored"] = list(h.keys["twin"])
        for page in restored:
            h.cache.allocator.decref(page)  # the attach holds its own reference
        h.check()
        h.token_batch(["twin", "restored", "donor"])
        h.check()
        with pytest.raises(ValueError):
            h.cache.install_page_image(images[0][:2])

    def test_key_stats_batch_equals_per_sequence(self, rng):
        h = PoolStatsHarness(rng)
        for seq_id, n in (("a", 21), ("b", 22), ("c", 21)):
            h.add(seq_id)
            h.bulk(seq_id, n)
        # 21 and 22 tokens share a logical-page count of 11.
        kmin, kmax = h.cache.key_stats_batch(["a", "b", "c"], 1)
        assert kmin.shape == (3, 11, h.HEADS, h.DIM)
        for i, seq_id in enumerate("abc"):
            alone = h.cache.key_stats(seq_id, 1)
            np.testing.assert_array_equal(kmin[i], alone[0])
            np.testing.assert_array_equal(kmax[i], alone[1])


class TestHeadMajorReads:
    """The block reads against the token-major public reads."""

    def test_read_batch_equals_get(self, rng):
        cache = make_cache(page_size=4, kv_bits=8)
        for seq_id in ("a", "b"):
            cache.add_sequence(seq_id)
            k = rng.normal(size=(10, 2, 4))
            append_rows(cache, seq_id, 0, k, rng.normal(size=k.shape))
        k_g, v_g = cache.read_batch(["a", "b"], 0)
        assert k_g.shape == (2, 2, 12, 4)  # whole pages: the tail page's slack follows the 10 tokens
        for i, seq_id in enumerate(("a", "b")):
            k, v = cache.get(seq_id, 0)
            np.testing.assert_array_equal(k_g[i, :, :10].transpose(1, 0, 2), k)
            np.testing.assert_array_equal(v_g[i, :, :10].transpose(1, 0, 2), v)

    def test_gather_selected_batch_equals_gather_pages(self, rng):
        cache = make_cache(page_size=4)
        lengths = {"a": 18, "b": 22}  # both end in a 2-token tail page
        for seq_id, n in lengths.items():
            cache.add_sequence(seq_id)
            k = rng.normal(size=(n, 2, 4))
            append_rows(cache, seq_id, 0, k, rng.normal(size=k.shape))
        selections = {
            "a": np.array([[0, 2, 4], [1, 3, 4]]),
            "b": np.array([[0, 1, 5], [2, 4, 5]]),
        }
        for seq_id, pages in selections.items():
            assert cache.selected_token_count(seq_id, 0, pages) == (10, 3)
        k_g, v_g = cache.gather_selected_batch(["a", "b"], 0, list(selections.values()))
        assert k_g.shape == (2, 2, 12, 4)  # three whole pages; the tail page holds 2 tokens
        for i, (seq_id, pages) in enumerate(selections.items()):
            for head in range(2):
                k, v, _ = cache.gather_pages(seq_id, 0, pages[head])
                np.testing.assert_array_equal(k_g[i, head, :10], k[:, head])
                np.testing.assert_array_equal(v_g[i, head, :10], v[:, head])
        # A row whose partial page is not its last cannot be cut at a total.
        assert cache.selected_token_count("a", 0, np.array([[4, 0, 2], [1, 3, 4]])) is None


class TestLowBitStorage:
    """A KV4/KV8 pool holds the codec's records (codes, scale, zero); every read is their ``decode``."""

    GEOMETRY = dict(n_layers=2, n_kv_heads=2, head_dim=16, page_size=8, num_pages=16)

    def filled(self, rng, bits: int) -> tuple[PagedKVCache, list[np.ndarray]]:
        """A pool with one 19-token sequence (a tail page holding 3) and the rows written per layer."""
        cache = make_cache(kv_bits=bits, **self.GEOMETRY)
        cache.add_sequence("s")
        rows = []
        for layer in range(2):
            k, v = rng.normal(size=(2, 19, 2, 16)) * rng.uniform(0.1, 10.0, size=(2, 19, 2, 1))
            append_rows(cache, "s", layer, k, v)
            rows.append((k, v))
        return cache, rows

    @pytest.mark.parametrize("bits", [8, 4])
    def test_resident_bytes_per_token_and_head(self, rng, bits):
        """K plus V of one (token, head) cost two codes rows and two scale/zero pairs, not 2 x 8 x head_dim."""
        cache, _ = self.filled(rng, bits)
        g = self.GEOMETRY
        slots = g["n_layers"] * g["num_pages"] * g["n_kv_heads"] * g["page_size"]
        resident = sum(store.nbytes for pool in cache._pools[:2] for store in pool)
        assert resident / slots <= 2 * (g["head_dim"] + 16)
        k_image, v_image = cache.page_image(cache.page_table("s")[0])[:2]
        image_bytes = sum(part.nbytes for part in k_image + v_image)
        assert image_bytes / (g["n_layers"] * g["n_kv_heads"] * g["page_size"]) <= 2 * (g["head_dim"] + 16)

    @pytest.mark.parametrize("bits", [8, 4])
    def test_reads_are_the_round_trip_and_images_carry_the_codes(self, rng, bits):
        cache, rows = self.filled(rng, bits)
        table = list(cache.page_table("s"))
        for layer, (k, v) in enumerate(rows):
            got_k, got_v = cache.get("s", layer)
            np.testing.assert_array_equal(got_k, fake_quantize(k, bits))
            np.testing.assert_array_equal(got_v, fake_quantize(v, bits))
            gathered = cache.gather_pages("s", layer, [2, 0])
            np.testing.assert_array_equal(gathered[0], fake_quantize(np.concatenate([k[:8], k[16:]]), bits))
            # The first page's K image: the codec's records of its rows, head-major, each
            # group's zero its minimum; they decode to the oracle's round trip.
            image = cache.page_image(table[0])[0][layer]
            heads_first = k[:8].transpose(1, 0, 2)
            assert image["codes"].dtype == np.uint8 and int(image["codes"].max()) < 1 << bits
            assert image.tobytes() == encode(heads_first, bits).tobytes()
            np.testing.assert_array_equal(image["zero"], heads_first.min(axis=-1))
            np.testing.assert_array_equal(decode(image, bits), fake_quantize(heads_first, bits))

        export = cache.export_sequence("s")
        images = [cache.page_image(page) for page in table]
        target = make_cache(kv_bits=bits, **self.GEOMETRY)
        target.allocator.allocate()  # shift page ids so the two pools disagree
        target.import_sequence("s", export)
        restored = [cache.install_page_image(image) for image in images]
        for pool, pages in ((target, target.page_table("s")), (cache, restored)):
            assert len(pages) == len(table)
            for page, original in zip(pages, table):
                for moved, kept in zip(pool.page_image(page), cache.page_image(original)):
                    for layer in range(2):
                        assert moved[layer].dtype == kept[layer].dtype
                        assert moved[layer].tobytes() == kept[layer].tobytes()
        for layer, (k, v) in enumerate(rows):
            got_k, got_v = target.get("s", layer)
            np.testing.assert_array_equal(got_k, fake_quantize(k, bits))
            np.testing.assert_array_equal(got_v, fake_quantize(v, bits))

    def test_a_refresh_reads_changed_cells_to_the_bytes_of_a_full_gather(self, rng):
        """Every member brings a new selection at the same page count: the block is rewritten
        in place, reading only the cells whose page changed (c opened a page), copying in the row
        a's and b's kept tail pages gained, and ends byte-equal to a fresh full gather of the
        same selections, the slots past each count included."""
        cache = make_cache(kv_bits=8, page_size=4, num_pages=64)
        ids = ["a", "b", "c"]
        for seq_id, n in zip(ids, (17, 19, 20)):  # five pages each; the tails hold 1, 3 and 4 tokens
            cache.add_sequence(seq_id)
            for layer in range(2):
                append_rows(cache, seq_id, layer, *rng.normal(size=(2, n, 2, 4)))
        before = [np.array([[0, 2, 4], [1, 3, 4]]), np.array([[0, 1, 4], [2, 3, 4]]), np.array([[0, 3, 4], [1, 2, 4]])]
        cache.gather_selected_batch(ids, 1, before)
        for layer in range(2):  # one row each: a and b into their tail pages, c into a new page 5
            k, v = rng.normal(size=(2, 3, 2, 4))
            cache.write_past_count(ids, layer, k, v)
            cache.advance(ids, layer, k)
        after = [np.array([[0, 3, 4], [1, 3, 4]]), before[1].copy(), np.array([[0, 3, 5], [1, 2, 5]])]
        reads = []
        inner = cache._read_cells
        cache._read_cells = lambda layer, blocks: reads.append(blocks.shape) or inner(layer, blocks)
        k, v = cache.gather_selected_batch(ids, 1, after)
        # a: head 0's middle page; c: the new page, both heads.
        assert reads == [(1 + 2,)]
        assert cache.gather_selected_batch(ids, 1, after)[0] is k and reads == [(3,)]  # served as it stands
        del cache._read_cells
        fresh = cache._read_blocks(1, cache._selected_page_ids(ids, after))
        assert k.tobytes() == fresh[0].tobytes() and v.tobytes() == fresh[1].tobytes()
