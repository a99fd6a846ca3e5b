"""Tests for the two-way (dense + streaming) paged KV cache."""

import numpy as np
import pytest

from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.paged_cache import PagedCacheConfig
from tests.conftest import streaming_retained


def make_dual(mask=(False, True), sink=4, local=4, **overrides) -> DualPagedKVCache:
    defaults = dict(n_layers=2, n_kv_heads=len(mask), head_dim=4, page_size=4, num_pages=64)
    defaults.update(overrides)
    cfg = PagedCacheConfig(**defaults)
    return DualPagedKVCache(cfg, np.array(mask), sink_tokens=sink, local_tokens=local)


def make_streaming(sink, local, heads=1, dim=2) -> DualPagedKVCache:
    """An all-streaming cache with token-granular eviction (``page_size=1``), holding sequence ``"s"``."""
    dual = make_dual(mask=(True,) * heads, sink=sink, local=local, n_layers=1, head_dim=dim, page_size=1)
    dual.add_sequence("s")
    return dual


class TestStreamingRows:
    def test_keeps_sink_and_local_only(self, rng):
        dual = make_streaming(sink=2, local=3)
        k = rng.normal(size=(10, 1, 2))
        dual.append("s", 0, k, k)
        k_out, _, pos = dual.get_streaming("s", 0)
        np.testing.assert_array_equal(pos, [0, 1, 7, 8, 9])
        np.testing.assert_allclose(k_out, k[pos])
        assert dual.seq_len("s") == 10

    def test_short_context_keeps_everything(self, rng):
        dual = make_streaming(sink=4, local=4)
        k = rng.normal(size=(3, 1, 2))
        dual.append("s", 0, k, k)
        _, _, pos = dual.get_streaming("s", 0)
        np.testing.assert_array_equal(pos, [0, 1, 2])

    def test_memory_constant_in_context_length(self, rng):
        dual = make_streaming(sink=4, local=8, heads=2, dim=4)
        memory = []
        for n in (30, 50):
            dual.append("s", 0, rng.normal(size=(n, 2, 4)), rng.normal(size=(n, 2, 4)))
            dual.slide("s")
            memory.append(dual.memory_bytes_model())
        assert memory[0] == memory[1]
        assert dual.streaming_cache.allocator.num_allocated == 12
        assert dual.get_streaming("s", 0)[2].size == 12

    def test_empty_get(self):
        k, v, pos = make_streaming(sink=1, local=1).get_streaming("s", 0)
        assert k.shape[0] == 0 and pos.size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_streaming(sink=-1, local=1)
        with pytest.raises(ValueError):
            make_streaming(sink=1, local=0)

    def test_shape_validation(self, rng):
        dual = make_streaming(sink=1, local=1, heads=2)
        with pytest.raises(ValueError):
            dual.append("s", 0, rng.normal(size=(2, 1, 2)), rng.normal(size=(2, 1, 2)))


class TestDualPagedKVCache:
    def test_mask_validation(self):
        cfg = PagedCacheConfig(n_layers=1, n_kv_heads=2, head_dim=4)
        with pytest.raises(ValueError):
            DualPagedKVCache(cfg, np.array([True]), sink_tokens=1, local_tokens=1)

    def test_routes_heads(self, rng):
        dual = make_dual(mask=(False, True))
        dual.add_sequence("s")
        k = rng.normal(size=(10, 2, 4))
        v = rng.normal(size=(10, 2, 4))
        dual.append("s", 0, k, v)
        k_dense, _ = dual.get_dense("s", 0)
        assert k_dense.shape == (10, 1, 4)
        np.testing.assert_allclose(k_dense[:, 0], k[:, 0])
        k_stream, _, pos = dual.get_streaming("s", 0)
        assert k_stream.shape[1] == 1
        np.testing.assert_allclose(k_stream[:, 0], k[pos, 1])

    def test_streaming_positions_bounded(self, rng):
        # Page size 4 with a 2-token local window: eviction is page-granular,
        # so the local window spans back to the start of the newest page.
        dual = make_dual(mask=(False, True), sink=4, local=2)
        dual.add_sequence("s")
        k = rng.normal(size=(20, 2, 4))
        dual.append("s", 0, k, k)
        _, _, pos = dual.get_streaming("s", 0)
        assert pos.size <= 4 + 4  # sink tokens + one local page
        np.testing.assert_array_equal(pos, [0, 1, 2, 3, 16, 17, 18, 19])

    def test_sink_is_whole_pages(self):
        with pytest.raises(ValueError, match="whole pages"):
            make_dual(sink=2, local=4)

    def test_all_dense(self, rng):
        dual = make_dual(mask=(False, False))
        dual.add_sequence("s")
        k = rng.normal(size=(5, 2, 4))
        dual.append("s", 0, k, k)
        k_dense, _ = dual.get_dense("s", 0)
        assert k_dense.shape == (5, 2, 4)
        k_stream, _, pos = dual.get_streaming("s", 0)
        assert k_stream.shape[0] == 0

    def test_all_streaming(self, rng):
        dual = make_dual(mask=(True, True))
        dual.add_sequence("s")
        k = rng.normal(size=(5, 2, 4))
        dual.append("s", 0, k, k)
        assert dual.seq_len("s") == 5
        k_dense, _ = dual.get_dense("s", 0)
        assert k_dense.shape[0] == 0

    def test_seq_lifecycle(self, rng):
        dual = make_dual()
        dual.add_sequence("s")
        with pytest.raises(ValueError):
            dual.add_sequence("s")
        dual.append("s", 0, rng.normal(size=(4, 2, 4)), rng.normal(size=(4, 2, 4)))
        dual.remove_sequence("s")
        assert not dual.has_sequence("s")
        with pytest.raises(KeyError):
            dual.remove_sequence("s")
        with pytest.raises(KeyError):
            dual.seq_len("s")

    def test_append_head_count_validation(self, rng):
        dual = make_dual()
        dual.add_sequence("s")
        with pytest.raises(ValueError):
            dual.append("s", 0, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)))

    def test_dense_key_stats_exposed(self, rng):
        dual = make_dual(mask=(False, True), page_size=4, logical_page_size=2)
        dual.add_sequence("s")
        k = rng.normal(size=(8, 2, 4))
        dual.append("s", 0, k, k)
        kmin, kmax = dual.dense_key_stats("s", 0)
        assert kmin.shape == (4, 1, 4)
        assert np.all(kmax >= kmin)

    def test_memory_smaller_than_all_dense(self, rng):
        """The two-way cache saves memory versus keeping every head dense."""
        k = rng.normal(size=(64, 2, 4))
        dual = make_dual(mask=(False, True), sink=4, local=4)
        dual.add_sequence("s")
        all_dense = make_dual(mask=(False, False))
        all_dense.add_sequence("s")
        for layer in range(2):
            dual.append("s", layer, k, k)
            all_dense.append("s", layer, k, k)
        dual.slide("s")
        assert dual.memory_bytes_model() < all_dense.memory_bytes_model()


class WindowHarness:
    """An all-streaming cache beside every token appended to it, driven as the engine drives it."""

    SINK, LOCAL, PAGE = 4, 8, 4

    def __init__(self, rng):
        self.rng = rng
        self.dual = make_dual(mask=(True, True), sink=self.SINK, local=self.LOCAL, n_layers=1, num_pages=256)
        #: K and V of every token appended, by position (``(2, total, heads, dim)``):
        #: what the retained positions must hold.
        self.history: dict[str, np.ndarray] = {}

    def add(self, seq_id: str, n_tokens: int = 0) -> None:
        """A prefill: one bulk write, then the slide that ends it."""
        self.dual.add_sequence(seq_id)
        self.history[seq_id] = np.zeros((2, 0, 2, 4))
        if n_tokens:
            self.dual.slide(seq_id)
            kv = self.rng.normal(size=(2, n_tokens, 2, 4))
            self.dual.append(seq_id, 0, *kv)
            self.history[seq_id] = kv
        self.dual.slide(seq_id)

    def remove(self, seq_id: str) -> None:
        self.dual.remove_sequence(seq_id)
        del self.history[seq_id]

    def step(self, seq_ids: list[str]) -> None:
        """One decode token for each sequence: slides, then the batched append."""
        for seq_id in seq_ids:
            self.dual.slide(seq_id)
        kv = self.rng.normal(size=(2, len(seq_ids), 2, 4))
        self.dual.append_batch(seq_ids, 0, *kv)
        for i, seq_id in enumerate(seq_ids):
            self.history[seq_id] = np.concatenate([self.history[seq_id], kv[:, i : i + 1]], axis=1)

    def check(self, seq_ids: list[str] | None = None) -> list[int]:
        """Grouped and one-sequence reads equal the retained history; returns group sizes."""
        seq_ids = seq_ids or list(self.history)
        groups = self.dual.get_streaming_groups(seq_ids, 0)
        assert sorted(int(i) for rows, _, _ in groups for i in rows) == list(range(len(seq_ids)))
        for rows, k_g, v_g in groups:
            for j, i in enumerate(rows):
                history = self.history[seq_ids[i]]
                kept = streaming_retained(history.shape[1], self.SINK, self.LOCAL, self.PAGE)
                np.testing.assert_array_equal(np.stack([k_g[j], v_g[j]]).transpose(0, 2, 1, 3), history[:, kept])
                k_one, v_one, pos_one = self.dual.get_streaming(seq_ids[i], 0)
                np.testing.assert_array_equal(pos_one, kept)
                np.testing.assert_array_equal(np.stack([k_one, v_one]), history[:, kept])
                pages = self.dual.streaming_cache.sequence_pages(seq_ids[i])
                assert len(pages) <= self.SINK // self.PAGE + -(-self.LOCAL // self.PAGE) + 1
        return sorted(len(rows) for rows, _, _ in groups)

    @property
    def pages_held(self) -> int:
        """Streaming pages the live sequences' tables hold (no page is shared here)."""
        return sum(len(self.dual.streaming_cache.sequence_pages(seq_id)) for seq_id in self.history)


class TestStreamingWindow:
    """Window reads against the positions the window arithmetic retains."""

    def test_window_slides_and_totals_below_sink(self, rng):
        h = WindowHarness(rng)
        h.add("empty-start")
        h.add("short", 2)  # still inside the sink
        h.add("long", 9)
        assert h.dual.get_streaming("empty-start", 0)[0].shape[0] == 0
        for _ in range(30):  # the window slides past several pages
            h.step(["empty-start", "short", "long"])
            h.check()

    def test_mixed_totals_share_one_token_count_group(self, rng):
        h = WindowHarness(rng)
        h.add("a", 21)
        h.add("b", 25)  # one page further on: same token count, different totals
        h.add("c", 22)
        assert h.check(["a", "b", "c"]) == [1, 2]
        h.step(["a", "b", "c"])
        assert h.check(["c", "a", "b"]) == [1, 2]

    def test_released_pages_are_reused_clean(self, rng):
        h = WindowHarness(rng)
        ids = [f"s{i}" for i in range(35)]
        for i, seq_id in enumerate(ids):
            h.add(seq_id, 1 + i % 19)
        allocator = h.dual.streaming_cache.allocator
        assert allocator.num_allocated == h.pages_held
        h.step(ids)
        h.check()
        # Released pages are reused; the newcomers see none of the old rows.
        for seq_id in ids[:10]:
            h.remove(seq_id)
        assert allocator.num_allocated == h.pages_held
        for i in range(10):
            h.add(f"new{i}", i + 1)  # includes ones inside the sink
        h.check()
        h.step(list(h.history))
        h.check()
        assert allocator.num_allocated == h.pages_held
        for seq_id in list(h.history):
            h.remove(seq_id)
        assert allocator.num_allocated == 0

    def test_fork_export_import(self, rng):
        h = WindowHarness(rng)
        h.add("p", 17)
        h.dual.fork_sequence("p", "c")
        h.history["c"] = h.history["p"]
        h.step(["c"])
        h.step(["p", "c"])
        h.check()
        export = h.dual.export_sequence("p")
        other = WindowHarness(rng)
        other.add("filler", 5)  # so the imported sequence lands on other pages
        other.dual.import_sequence("p", export)
        other.history["p"] = h.history["p"]
        other.step(["p", "filler"])
        other.check()
        h.step(["p"])  # the source is untouched by the export
        h.check()


class TestImportGeometry:
    """A migrated sequence lands only on a cache whose streaming window matches its source's."""

    @pytest.mark.parametrize(
        "mask, sink, local, page",
        [
            # Same sink + local width: the pages would be read at the wrong positions.
            ((False, True), 8, 4, 4),
            # A narrower window, after the dense pages were imported and the id taken.
            ((False, True), 4, 4, 4),
            # Same sink and local tokens, smaller pages: a wider window than the source kept.
            ((True, True), 4, 8, 2),
        ],
    )
    def test_foreign_layout_refused_before_any_mutation(self, rng, mask, sink, local, page):
        source = make_dual(mask=mask, sink=4, local=8)
        source.add_sequence("s")
        for layer in range(2):
            source.append("s", layer, *rng.normal(size=(2, 30, len(mask), 4)))
        source.slide("s")
        export = source.export_sequence("s")
        target = make_dual(mask=mask, sink=sink, local=local, page_size=page)
        free = [pool.allocator.num_free for pool in target.pools]
        with pytest.raises(ValueError, match="do not fit this cache"):
            target.import_sequence("s", export)
        assert not target.has_sequence("s")
        assert [pool.allocator.num_free for pool in target.pools] == free
        # The same cache geometry takes it, byte for byte.
        twin = make_dual(mask=mask, sink=4, local=8)
        assert twin.import_sequence("s", export) == export.n_pages
        for layer in range(2):
            for got, want in zip(twin.get_streaming("s", layer), source.get_streaming("s", layer)):
                np.testing.assert_array_equal(got, want)
