"""Tests for the paged KV cache."""

import numpy as np
import pytest

from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.kv_stats import compute_page_key_stats
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache


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

    def test_logical_page_defaults(self):
        cfg = PagedCacheConfig(n_layers=1, n_kv_heads=1, head_dim=1, page_size=64)
        assert cfg.effective_logical_page_size == 64
        assert cfg.logical_pages_per_physical == 1
        cfg2 = PagedCacheConfig(
            n_layers=1, n_kv_heads=1, head_dim=1, page_size=64, logical_page_size=16
        )
        assert cfg2.logical_pages_per_physical == 4


class TestSequenceLifecycle:
    def test_add_remove(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        assert cache.has_sequence("a")
        k = rng.normal(size=(9, 2, 4))
        for layer in range(2):
            cache.append("a", layer, k, k)
        used = cache.allocator.num_allocated
        assert used == 3  # ceil(9 / 4)
        cache.remove_sequence("a")
        assert cache.allocator.num_allocated == 0
        assert not cache.has_sequence("a")

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
            cache.append("a", 0, rng.normal(size=(9, 2, 4)), rng.normal(size=(9, 2, 4)))


class TestPageSelections:
    """The ``(selection, queries_served)`` entries travel with the sequence's pages."""

    @staticmethod
    def with_entries(rng, seq_ids):
        cache = make_cache()
        for seq_id in seq_ids:
            cache.add_sequence(seq_id)
            for layer in range(2):
                cache.append(seq_id, layer, *rng.normal(size=(2, 6, 2, 4)))
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
        cache.append("s", 0, k, v)
        k_out, v_out = cache.get("s", 0)
        np.testing.assert_allclose(k_out, k)
        np.testing.assert_allclose(v_out, v)
        assert cache.seq_len("s") == 7

    def test_incremental_append_matches(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(10, 2, 4))
        v = rng.normal(size=(10, 2, 4))
        cache.append("s", 0, k[:6], v[:6])
        cache.append("s", 0, k[6:], v[6:])
        k_out, _ = cache.get("s", 0)
        np.testing.assert_allclose(k_out, k)

    def test_layers_are_independent(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k0 = rng.normal(size=(4, 2, 4))
        k1 = rng.normal(size=(4, 2, 4))
        cache.append("s", 0, k0, k0)
        cache.append("s", 1, k1, k1)
        np.testing.assert_allclose(cache.get("s", 0)[0], k0)
        np.testing.assert_allclose(cache.get("s", 1)[0], k1)

    def test_multiple_sequences_isolated(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        cache.add_sequence("b")
        ka = rng.normal(size=(5, 2, 4))
        kb = rng.normal(size=(3, 2, 4))
        cache.append("a", 0, ka, ka)
        cache.append("b", 0, kb, kb)
        np.testing.assert_allclose(cache.get("a", 0)[0], ka)
        np.testing.assert_allclose(cache.get("b", 0)[0], kb)

    def test_quantized_append_close_but_lossy(self, rng):
        cache = make_cache(kv_bits=4)
        cache.add_sequence("s")
        k = rng.normal(size=(8, 2, 4))
        cache.append("s", 0, k, k)
        k_out, _ = cache.get("s", 0)
        assert not np.allclose(k_out, k)  # lossy
        assert np.abs(k_out - k).max() < 0.5  # but close

    def test_empty_append_is_noop(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        cache.append("s", 0, np.zeros((0, 2, 4)), np.zeros((0, 2, 4)))
        assert cache.seq_len("s") == 0

    def test_shape_validation(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        with pytest.raises(ValueError):
            cache.append("s", 0, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))
        with pytest.raises(IndexError):
            cache.append("s", 5, rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)))

    def test_get_empty(self):
        cache = make_cache()
        cache.add_sequence("s")
        k, v = cache.get("s", 0)
        assert k.shape == (0, 2, 4)


class TestGatherPages:
    def test_gather_selected_pages(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(12, 2, 4))
        cache.append("s", 0, k, k)
        k_out, v_out, pos = cache.gather_pages("s", 0, [0, 2])
        np.testing.assert_allclose(k_out, np.concatenate([k[0:4], k[8:12]]))
        np.testing.assert_array_equal(pos, np.r_[0:4, 8:12])

    def test_gather_partial_last_page(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(6, 2, 4))
        cache.append("s", 0, k, k)
        k_out, _, pos = cache.gather_pages("s", 0, [1])
        assert k_out.shape[0] == 2
        np.testing.assert_array_equal(pos, [4, 5])

    def test_gather_deduplicates_and_sorts(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        k = rng.normal(size=(8, 2, 4))
        cache.append("s", 0, k, k)
        _, _, pos = cache.gather_pages("s", 0, [1, 0, 1])
        np.testing.assert_array_equal(pos, np.arange(8))

    def test_gather_out_of_range(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        cache.append("s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        with pytest.raises(IndexError):
            cache.gather_pages("s", 0, [3])

    def test_gather_empty_selection(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        cache.append("s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        k, v, pos = cache.gather_pages("s", 0, [])
        assert k.shape[0] == 0 and pos.size == 0


class TestKeyStats:
    def test_stats_cover_keys(self, rng):
        cache = make_cache(page_size=8, logical_page_size=4)
        cache.add_sequence("s")
        k = rng.normal(size=(13, 2, 4))
        cache.append("s", 0, k[:5], k[:5])
        cache.append("s", 0, k[5:], k[5:])
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
        batch.append("s", 0, k, k)
        inc = make_cache(page_size=8, logical_page_size=4)
        inc.add_sequence("s")
        for i in range(11):
            inc.append("s", 0, k[i : i + 1], k[i : i + 1])
        for a, b in zip(batch.key_stats("s", 0), inc.key_stats("s", 0)):
            np.testing.assert_allclose(a, b)

    def test_num_logical_pages(self, rng):
        cache = make_cache(page_size=8, logical_page_size=4)
        cache.add_sequence("s")
        cache.append("s", 0, rng.normal(size=(9, 2, 4)), rng.normal(size=(9, 2, 4)))
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
            cache.append("s", 0, k, k)
            sizes[bits] = cache.memory_bytes_model()
        assert sizes[4] < sizes[8] < sizes[16]

    def test_memory_scales_with_pages(self, rng):
        cache = make_cache()
        cache.add_sequence("s")
        cache.append("s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        m1 = cache.memory_bytes_model()
        cache.append("s", 0, rng.normal(size=(8, 2, 4)), rng.normal(size=(8, 2, 4)))
        m2 = cache.memory_bytes_model()
        assert m2 == pytest.approx(3 * m1)

    def test_per_sequence_accounting(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        cache.add_sequence("b")
        cache.append("a", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        cache.append("b", 0, rng.normal(size=(8, 2, 4)), rng.normal(size=(8, 2, 4)))
        total = cache.memory_bytes_model()
        assert total == pytest.approx(
            cache.memory_bytes_model("a") + cache.memory_bytes_model("b")
        )


def reference_stats(keys: np.ndarray, logical_page_size: int):
    """``compute_page_key_stats`` over raw keys, stacked like ``key_stats``."""
    pages = compute_page_key_stats(keys, logical_page_size)
    if not pages:
        empty = np.zeros((0, *keys.shape[1:]))
        return empty, empty
    return np.stack([p.kmin for p in pages]), np.stack([p.kmax for p in pages])


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
            self.cache.append(seq_id, layer, k, self.rng.normal(size=k.shape))
            self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k])

    def token_batch(self, seq_ids: list[str]) -> None:
        """A decode step: one row per sequence written past the count, then advanced over."""
        for layer in range(self.N_LAYERS):
            k = self.rng.normal(size=(len(seq_ids), self.HEADS, self.DIM))
            self.cache.write_past_count(seq_ids, layer, k, self.rng.normal(size=k.shape))
            self.cache.advance_token_batch(seq_ids, layer, k)
            for i, seq_id in enumerate(seq_ids):
                self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k[i : i + 1]])

    def check(self, cache=None, seq_ids=None) -> None:
        cache = cache or self.cache
        for seq_id in seq_ids or list(self.keys):
            for layer in range(self.N_LAYERS):
                want = reference_stats(self.keys[seq_id][layer], self.logical)
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

    def test_fork_copy_on_write_both_sides(self, rng):
        h = PoolStatsHarness(rng)
        h.add("parent")
        h.bulk("parent", 11)  # partial logical and physical tail page
        h.cache.fork_sequence("parent", "child")
        h.keys["child"] = list(h.keys["parent"])
        h.check()
        h.token_batch(["child"])  # CoW: the child's tail rows are now its own
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
        other.advance_token_batch(["s"], 0, k)
        h.keys["s"][0] = np.concatenate([h.keys["s"][0], k])
        want = reference_stats(h.keys["s"][0], 2)
        np.testing.assert_array_equal(other.key_stats("s", 0)[0], want[0])

    def test_page_image_and_prefix_attach(self, rng):
        h = PoolStatsHarness(rng)
        h.add("donor")
        h.bulk("donor", 19)  # two full pages and a tail
        full_pages = h.cache.sequence_pages("donor")[:2]
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
            cache.append(seq_id, 0, k, rng.normal(size=k.shape))
        k_g, v_g = cache.read_batch(["a", "b"], 0)
        assert k_g.shape == (2, 2, 10, 4)
        for i, seq_id in enumerate(("a", "b")):
            k, v = cache.get(seq_id, 0)
            np.testing.assert_array_equal(k_g[i].transpose(1, 0, 2), k)
            np.testing.assert_array_equal(v_g[i].transpose(1, 0, 2), v)

    def test_gather_selected_batch_equals_gather_pages(self, rng):
        cache = make_cache(page_size=4)
        lengths = {"a": 18, "b": 22}  # both end in a 2-token tail page
        for seq_id, n in lengths.items():
            cache.add_sequence(seq_id)
            k = rng.normal(size=(n, 2, 4))
            cache.append(seq_id, 0, k, rng.normal(size=k.shape))
        selections = {
            "a": np.array([[0, 2, 4], [1, 3, 4]]),
            "b": np.array([[0, 1, 5], [2, 4, 5]]),
        }
        for seq_id, pages in selections.items():
            assert cache.selected_token_count(seq_id, 0, pages) == (10, 3)
        k_g, v_g = cache.gather_selected_batch(["a", "b"], 0, list(selections.values()))
        assert k_g.shape == (2, 2, 10, 4)
        for i, (seq_id, pages) in enumerate(selections.items()):
            for head in range(2):
                k, v, _ = cache.gather_pages(seq_id, 0, pages[head])
                np.testing.assert_array_equal(k_g[i, head], k[:, head])
                np.testing.assert_array_equal(v_g[i, head], v[:, head])
        # A row whose partial page is not its last cannot be cut at a total.
        assert cache.selected_token_count("a", 0, np.array([[4, 0, 2], [1, 3, 4]])) is None
