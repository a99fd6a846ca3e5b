"""Sharing correctness: fork (full pages shared, partial tail copied) / attach across the KV stack."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.paged_cache import PagedCacheConfig, PagedKVCache
from repro.kvcache.prefix_index import PrefixIndex
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from tests.conftest import append_rows


def make_cache(**overrides) -> PagedKVCache:
    defaults = dict(
        n_layers=2, n_kv_heads=2, head_dim=4, page_size=4, num_pages=32, kv_bits=16,
        logical_page_size=None,
    )
    defaults.update(overrides)
    return PagedKVCache(PagedCacheConfig(**defaults))


def fill(cache, seq_id, rng, n_tokens, layers=None):
    """Append ``n_tokens`` random tokens to every layer; returns the k/v drawn."""
    cfg = cache.config
    layers = range(cfg.n_layers) if layers is None else layers
    k = rng.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
    v = rng.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
    for layer in layers:
        append_rows(cache, seq_id, layer, k, v)
    return k, v


class TestFork:
    def test_full_pages_are_shared_by_reference(self, rng):
        cache = make_cache()
        cache.add_sequence("parent")
        fill(cache, "parent", rng, 10)  # 3 pages (4+4+2)
        cache.fork_sequence("parent", "child")
        parent, child = cache.page_table("parent"), cache.page_table("child")
        assert child[:2] == parent[:2]
        for page in parent[:2]:
            assert cache.allocator.refcount(page) == 2
        # Reads are identical.
        for layer in range(cache.config.n_layers):
            kp, vp = cache.get("parent", layer)
            kc, vc = cache.get("child", layer)
            np.testing.assert_array_equal(kp, kc)
            np.testing.assert_array_equal(vp, vc)

    def test_partial_tail_becomes_a_private_copy(self, rng):
        cache = make_cache()
        cache.add_sequence("parent")
        k0, _ = fill(cache, "parent", rng, 10)
        allocated_before = cache.allocator.num_allocated
        cache.fork_sequence("parent", "child")
        # Exactly one page was copied, at fork time: the tables diverge at the tail.
        assert cache.allocator.num_allocated == allocated_before + 1
        parent_tail, child_tail = cache.page_table("parent")[-1], cache.page_table("child")[-1]
        assert parent_tail != child_tail
        assert cache.allocator.refcount(parent_tail) == cache.allocator.refcount(child_tail) == 1

        # Either side writes into its own tail, and no write copies anything more.
        k_child, _ = fill(cache, "child", rng, 1)
        k_parent, _ = fill(cache, "parent", rng, 2)
        assert cache.allocator.num_allocated == allocated_before + 1
        got_parent, _ = cache.get("parent", 0)
        got_child, _ = cache.get("child", 0)
        np.testing.assert_array_equal(got_parent, np.concatenate([k0, k_parent]))
        np.testing.assert_array_equal(got_child, np.concatenate([k0, k_child]))

    def test_fork_at_page_boundary_copies_nothing(self, rng):
        cache = make_cache()
        cache.add_sequence("parent")
        fill(cache, "parent", rng, 8)  # exactly 2 full pages
        allocated_before = cache.allocator.num_allocated
        cache.fork_sequence("parent", "child")
        assert cache.allocator.num_allocated == allocated_before
        assert cache.page_table("child") == cache.page_table("parent")
        fill(cache, "child", rng, 1)
        # One fresh page for the child's new token; no copy of shared pages.
        assert cache.allocator.num_allocated == allocated_before + 1
        for page in cache.page_table("parent"):
            assert cache.allocator.refcount(page) == 2

    def test_fork_with_no_free_page_is_atomic(self, rng):
        cache = make_cache(num_pages=2)
        cache.add_sequence("a")
        fill(cache, "a", rng, 6)  # 2 pages, pool full, partial tail
        with pytest.raises(OutOfPagesError):
            cache.fork_sequence("a", "b")
        assert not cache.has_sequence("b")
        assert cache.allocator.num_free == 0 and cache.allocator.total_refs == 2
        fill(cache, "a", rng, 2)  # the tail fills up: nothing left to copy
        cache.fork_sequence("a", "b")
        assert cache.page_table("b") == cache.page_table("a")

    def test_key_stats_isolated_after_fork(self, rng):
        cache = make_cache(logical_page_size=2)
        cache.add_sequence("parent")
        fill(cache, "parent", rng, 5)  # tail logical page is partial
        cache.fork_sequence("parent", "child")
        kmin_before, kmax_before = cache.key_stats("parent", 0)
        # The copy carries the tail page's stat rows.
        for got, want in zip(cache.key_stats("child", 0), (kmin_before, kmax_before)):
            np.testing.assert_array_equal(got, want)
        fill(cache, "child", rng, 1)
        kmin_after, kmax_after = cache.key_stats("parent", 0)
        np.testing.assert_array_equal(kmin_before, kmin_after)
        np.testing.assert_array_equal(kmax_before, kmax_after)
        # The child's stats are the shared full pages' plus its own tail's.
        kmin_child, kmax_child = cache.key_stats("child", 0)
        assert kmin_child.shape[0] == 3
        np.testing.assert_array_equal(kmin_child[:2], kmin_after[:2])
        np.testing.assert_array_equal(kmax_child[:2], kmax_after[:2])
        assert np.all(kmin_child[2] <= kmin_after[2]) and np.all(kmax_child[2] >= kmax_after[2])

    def test_release_decrefs_instead_of_freeing(self, rng):
        """Removing one sibling must not free the other's shared pages."""
        cache = make_cache()
        cache.add_sequence("parent")
        fill(cache, "parent", rng, 10)
        cache.fork_sequence("parent", "child")
        k_child, v_child = cache.get("child", 1)
        cache.remove_sequence("parent")
        assert cache.allocator.num_allocated == 3
        k_after, v_after = cache.get("child", 1)
        np.testing.assert_array_equal(k_child, k_after)
        np.testing.assert_array_equal(v_child, v_after)
        cache.remove_sequence("child")
        assert cache.allocator.num_allocated == 0

    def test_fork_validation(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        with pytest.raises(KeyError):
            cache.fork_sequence("missing", "b")
        with pytest.raises(ValueError):
            cache.fork_sequence("a", "a")

    def test_memory_model_counts_shared_pages_once(self, rng):
        cache = make_cache()
        cache.add_sequence("a")
        fill(cache, "a", rng, 8)
        solo = cache.memory_bytes_model()
        cache.fork_sequence("a", "b")
        assert cache.memory_bytes_model() == solo


class TestWritePageCount:
    def test_failed_write_is_atomic(self, rng):
        cache = make_cache(num_pages=2)
        cache.add_sequence("a")
        fill(cache, "a", rng, 8)  # pool exhausted (2 pages)
        assert cache.pages_required("a", 1) == 1
        with pytest.raises(OutOfPagesError):
            fill(cache, "a", rng, 1)
        # Nothing changed: the failed write left no trace.
        assert len(cache.page_table("a")) == 2
        assert cache.allocator.num_free == 0
        assert cache.seq_len("a") == 8

    def test_count_is_table_growth_only(self, rng):
        cache = make_cache(num_pages=4)
        cache.add_sequence("a")
        fill(cache, "a", rng, 6)
        cache.fork_sequence("a", "b")  # b's tail is its own copy
        assert cache.pages_required("b", 2) == 0  # fills the tail
        assert cache.pages_required("b", 3) == 1  # one growth page
        # The write takes exactly the counted page.
        free_before = cache.allocator.num_free
        fill(cache, "b", rng, 3)
        assert cache.allocator.num_free == free_before - 1
        assert cache.pages_required("b", 1) == 0


class TestAttachPrefix:
    def test_attach_shares_full_pages(self, rng):
        cache = make_cache(logical_page_size=2)
        cache.add_sequence("donor")
        fill(cache, "donor", rng, 8)
        pages = list(cache.page_table("donor"))
        cache.attach_prefix("twin", pages, 8)
        for layer in range(2):
            kd, vd = cache.get("donor", layer)
            kt, vt = cache.get("twin", layer)
            np.testing.assert_array_equal(kd, kt)
            np.testing.assert_array_equal(vd, vt)
            for donor_stat, twin_stat in zip(
                cache.key_stats("donor", layer), cache.key_stats("twin", layer)
            ):
                np.testing.assert_array_equal(donor_stat, twin_stat)
        for page in pages:
            assert cache.allocator.refcount(page) == 2
        with pytest.raises(ValueError):
            cache.attach_prefix("twin", pages, 8)
        with pytest.raises(ValueError):
            cache.attach_prefix("bad", pages, 7)  # not whole pages

    def test_attach_then_append_extends_privately(self, rng):
        cache = make_cache()
        cache.add_sequence("donor")
        k0, _ = fill(cache, "donor", rng, 8)
        pages = list(cache.page_table("donor"))
        cache.attach_prefix("twin", pages, 8)
        fill(cache, "twin", rng, 3)
        assert cache.seq_len("twin") == 11
        assert cache.seq_len("donor") == 8
        k_twin, _ = cache.get("twin", 0)
        np.testing.assert_array_equal(k_twin[:8], k0)


class TestDualCacheSharing:
    def make_dual(self, num_pages=64):
        config = PagedCacheConfig(
            n_layers=2, n_kv_heads=4, head_dim=4, page_size=4, num_pages=num_pages,
            kv_bits=16,
        )
        mask = np.array([False, True, False, True])
        return DualPagedKVCache(
            config, streaming_head_mask=mask, sink_tokens=4, local_tokens=8,
        )

    def test_fork_clones_streaming_state(self, rng):
        dual = self.make_dual()
        dual.add_sequence("p")
        for layer in range(2):
            dual.append("p", layer, rng.normal(size=(10, 4, 4)), rng.normal(size=(10, 4, 4)))
        dual.fork_sequence("p", "c")
        kp, vp, pp = dual.get_streaming("p", 0)
        kc, vc, pc = dual.get_streaming("c", 0)
        np.testing.assert_array_equal(kp, kc)
        np.testing.assert_array_equal(pp, pc)
        # Divergence: the child's streaming store evolves independently.
        for layer in range(2):
            dual.append("c", layer, rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 4, 4)))
        _, _, pp2 = dual.get_streaming("p", 0)
        np.testing.assert_array_equal(pp, pp2)
        assert dual.seq_len("c") == 16
        assert dual.seq_len("p") == 10

    @pytest.mark.parametrize("full", ["dense", "streaming"])
    def test_fork_needs_a_free_page_in_every_pool(self, rng, full):
        """A partly filled tail is copied in both pools: with either pool full
        the fork raises before either pool changes."""
        dual = self.make_dual(num_pages=8)
        dual.add_sequence("p")
        for layer in range(2):
            dual.append("p", layer, rng.normal(size=(10, 4, 4)), rng.normal(size=(10, 4, 4)))
        pool = dual.dense_cache if full == "dense" else dual.streaming_cache
        taken = pool.allocator.allocate_many(pool.allocator.num_free)
        before = [(cache.allocator.num_free, cache.allocator.total_refs) for cache in dual.pools]
        with pytest.raises(OutOfPagesError):
            dual.fork_sequence("p", "c")
        assert [(cache.allocator.num_free, cache.allocator.total_refs) for cache in dual.pools] == before
        assert not dual.has_sequence("c") and not any(cache.has_sequence("c") for cache in dual.pools)
        pool.allocator.free_many(taken)
        dual.fork_sequence("p", "c")
        assert all(cache.page_table("c")[-1] != cache.page_table("p")[-1] for cache in dual.pools)

    def test_attach_prefix_matches_token_by_token(self, rng):
        """A sequence attached to a donor's prefix pages reads what the same
        tokens appended one decode step at a time leave, and holds only the
        sink and window pages of them."""
        config = PagedCacheConfig(n_layers=2, n_kv_heads=2, head_dim=4, page_size=4, num_pages=16)

        def make_streaming():
            return DualPagedKVCache(config, np.ones(2, dtype=bool), sink_tokens=4, local_tokens=8)

        k_hist, v_hist = rng.normal(size=(2, 2, 24, 2, 4))  # (K|V, layer, position, head, dim)
        donor = make_streaming()
        donor.add_sequence("donor")
        for layer in range(2):  # one bulk write keeps every page, as a prefill does until it slides
            donor.append("donor", layer, k_hist[layer], v_hist[layer])
        for boundary in (0, 4, 8, 12, 20, 24):
            attached = f"attached{boundary}"
            donor.attach_prefix(attached, boundary, donor.prefix_pages("donor", boundary // 4))
            assert len(donor.streaming_cache.page_table(attached)) == min(boundary // 4, 3)
            stepped = make_streaming()
            stepped.add_sequence("s")
            for pos in range(boundary):
                stepped.slide("s")
                for layer in range(2):
                    stepped.append_batch(
                        ["s"], layer, k_hist[layer, pos : pos + 1], v_hist[layer, pos : pos + 1]
                    )
            assert donor.seq_len(attached) == stepped.seq_len("s") == boundary
            for layer in range(2):
                for got, want in zip(donor.get_streaming(attached, layer), stepped.get_streaming("s", layer)):
                    np.testing.assert_array_equal(got, want)

    def test_prefix_cache_keeps_streaming_heads_constant_size(self):
        """Sharing prefixes must not cost the streaming heads their constant
        size: decoding with the prefix cache on allocates (within 256 KB) no
        more than the same run with it off — the prompt's streaming K/V is
        kept while ``prefill`` registers it, never per decoded token."""
        model = TinyTransformer(tiny_model_config(), seed=5)
        seq_ids = [f"s{i}" for i in range(4)]

        def decode_growth(prefix_cache: bool) -> int:
            engine = LServeEngine(
                model,
                LServeConfig(
                    streaming_head_ratio=0.5, kv_bits=16, physical_page_size=16,
                    logical_page_size=4, sink_tokens=16, local_tokens=32, q_block_size=16,
                    token_budget=64, prefix_cache_enabled=prefix_cache,
                ),
                streaming_kv_heads=np.array([False, True]),
                num_cache_pages=256,
            )
            for i, seq_id in enumerate(seq_ids):
                engine.prefill(seq_id, (np.arange(40) * (2 * i + 3)) % model.config.vocab_size)
            engine.decode_batch(seq_ids, [1, 2, 3, 4])  # first-call allocations
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for step in range(300):
                    engine.decode_batch(seq_ids, [(step + i) % 97 for i in range(4)])
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return after - before

        assert decode_growth(True) - decode_growth(False) <= 256 * 1024


class TestRefcountChurn:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_randomized_fork_append_release_no_leak(self, seed):
        """After arbitrary fork/append/release churn, releasing everything
        (sequences and index) must return every page to the pool — no leaks,
        and no double-free along the way."""
        rng = np.random.default_rng(seed)
        cache = make_cache(num_pages=128, n_layers=1)
        index = PrefixIndex(page_size=4, allocators=(cache.allocator,))
        live: list[str] = []
        counter = 0
        for _ in range(40):
            op = rng.integers(0, 4)
            if op == 0 or not live:  # new sequence
                seq = f"s{counter}"
                counter += 1
                cache.add_sequence(seq)
                live.append(seq)
            elif op == 1:  # fork a live sequence
                parent = live[int(rng.integers(0, len(live)))]
                child = f"s{counter}"
                counter += 1
                cache.fork_sequence(parent, child)
                live.append(child)
            elif op == 2:  # append a few tokens
                seq = live[int(rng.integers(0, len(live)))]
                n = int(rng.integers(1, 7))
                if cache.allocator.can_allocate(cache.pages_required(seq, n)):
                    k = rng.normal(size=(n, 2, 4))
                    append_rows(cache, seq, 0, k, k)
            else:  # release
                seq = live.pop(int(rng.integers(0, len(live))))
                cache.remove_sequence(seq)
            # Occasionally pin a live sequence's full pages in the index.
            if live and rng.integers(0, 3) == 0:
                seq = live[int(rng.integers(0, len(live)))]
                n_pages = cache.seq_len(seq) // 4
                if n_pages:
                    tokens = np.arange(n_pages * 4) + hash(seq) % 97
                    index.register(tokens, [(page,) for page in cache.page_table(seq)[:n_pages]])
            assert (
                cache.allocator.num_free + cache.allocator.num_allocated
                == cache.allocator.capacity
            )
        for seq in live:
            cache.remove_sequence(seq)
        index.clear()
        assert cache.allocator.num_allocated == 0
        assert cache.allocator.num_free == cache.allocator.capacity
