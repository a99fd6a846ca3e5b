"""Engine-level prefix sharing: attach, register, evict, fork, OOM atomicity."""

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
from repro.kvcache.prefix_index import PrefixIndex
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def shared_config(**overrides) -> LServeConfig:
    """Prefix-cache config with aligned boundaries and exact (16-bit) KV.

    ``q_block_size == physical_page_size`` keeps attach boundaries aligned
    with the prefill tiling, and ``kv_bits=16`` makes the continuation chunk
    numerically identical to a single-shot prefill — so prefix-cache runs
    are byte-comparable to uncached runs.
    """
    base = dict(
        streaming_head_ratio=0.5,
        dynamic_sparsity_enabled=True,
        kv_bits=16,
        physical_page_size=16,
        logical_page_size=4,
        sink_tokens=16,
        local_tokens=32,
        q_block_size=16,
        token_budget=64,
        prefix_cache_enabled=True,
    )
    base.update(overrides)
    return LServeConfig(**base)


def make_engine(model, num_pages=256, **overrides) -> LServeEngine:
    return LServeEngine(
        model,
        shared_config(**overrides),
        streaming_kv_heads=np.array([False, True]),
        num_cache_pages=num_pages,
    )


class TestPrefixIndexUnit:
    def test_match_and_register(self):
        index = PrefixIndex(page_size=4)
        tokens = np.arange(10)
        assert index.match(tokens) == []
        inserted = index.register(tokens, [(), ()])
        assert inserted == 2
        chain = index.match(tokens)
        assert len(chain) == 2
        # A diverging prompt matches only the common page.
        other = np.concatenate([np.arange(4), np.arange(100, 106)])
        assert len(index.match(other)) == 1
        # max_tokens caps the match depth.
        assert len(index.match(tokens, max_tokens=7)) == 1

    def test_register_is_idempotent(self):
        index = PrefixIndex(page_size=4)
        tokens = np.arange(8)
        index.register(tokens, [(), ()])
        again = index.register(tokens, [(), ()])
        assert again == 0
        assert index.num_nodes == 2

    def test_eviction_is_lru_leaf_first(self):
        from repro.kvcache.allocator import PageAllocator

        alloc = PageAllocator(4)
        pages = [alloc.allocate() for _ in range(4)]
        index = PrefixIndex(page_size=2, allocators=(alloc,))
        index.register(np.arange(4), [(page,) for page in pages[:2]])
        index.register(np.array([100, 101, 102, 103]), [(page,) for page in pages[2:]])
        index.match(np.arange(4))  # touch the first chain (more recently used)
        for page in pages:
            alloc.free(page)  # drop the "sequence" refs; the index keeps its own
        assert alloc.num_free == 0
        assert index.evict_until(1)
        assert alloc.num_free == 1
        # The stale chain's leaf went first.
        assert len(index.match(np.arange(4))) == 2
        assert len(index.match(np.array([100, 101, 102, 103]))) == 1
        index.clear()
        assert alloc.num_free == 4
        assert index.num_nodes == 0


class TestEnginePrefixCache:
    def test_hit_skips_prefill_work_and_matches_uncached(self, model):
        tokens = (np.arange(80) * 7) % model.config.vocab_size
        cached = make_engine(model)
        uncached = make_engine(model, prefix_cache_enabled=False)

        first = cached.prefill("a", tokens)
        ref = uncached.prefill("a", tokens)
        np.testing.assert_array_equal(first, ref)
        assert cached.stats.prefix_hit_tokens == 0
        assert cached.prefix_cache.num_nodes == 80 // 16

        second = cached.prefill("b", tokens)
        ref_b = uncached.prefill("b", tokens)
        # 64 of 80 tokens attach (the last page stays computed for logits).
        assert cached.stats.prefix_hit_tokens == 64
        assert cached.stats.prefill_tokens == 80 + 16
        assert second.shape == (16, model.config.vocab_size)
        np.testing.assert_array_equal(second[-1], ref_b[-1])
        # Decode continues byte-identically from the attached state.
        for t in range(6):
            np.testing.assert_array_equal(cached.decode("b", t), uncached.decode("b", t))

    def test_partial_prefix_hit(self, model):
        tokens = (np.arange(64) * 3) % model.config.vocab_size
        divergent = tokens.copy()
        divergent[32:] = (divergent[32:] + 5) % model.config.vocab_size
        cached = make_engine(model)
        uncached = make_engine(model, prefix_cache_enabled=False)
        cached.prefill("a", tokens)
        got = cached.prefill("b", divergent)
        ref = uncached.prefill("b", divergent)
        assert cached.stats.prefix_hit_tokens == 32
        np.testing.assert_array_equal(got[-1], ref[-1])

    def test_short_prompt_never_attaches(self, model):
        cached = make_engine(model)
        tokens = np.arange(16)
        cached.prefill("a", tokens)
        cached.prefill("b", tokens)  # 16 tokens: alignment leaves nothing to attach
        assert cached.stats.prefix_hit_tokens == 0

    def test_release_keeps_index_pages_alive(self, model):
        tokens = (np.arange(48) * 7) % model.config.vocab_size
        engine = make_engine(model)
        engine.prefill("a", tokens)
        engine.release("a")
        alloc = engine.cache.dense_cache.allocator
        assert alloc.num_allocated == engine.prefix_cache.held_pages == 3
        # A fresh request still hits the retained prefix.
        engine.prefill("b", tokens)
        assert engine.stats.prefix_hit_tokens == 32
        engine.release("b")
        engine.prefix_cache.clear()
        assert alloc.num_allocated == 0

    def test_pressure_evicts_index_pages(self, model):
        """A full pool drains the prefix index before failing a prefill."""
        engine = make_engine(model, num_pages=12)
        vocab = model.config.vocab_size
        tokens_a = (np.arange(64) * 7) % vocab
        engine.prefill("a", tokens_a)  # 4 pages, all indexed
        engine.release("a")
        assert engine.prefix_cache.held_pages == 4
        # 8 free pages + 4 index-held; a 10-page prompt forces eviction of
        # the two least-recently-used leaves of "a"'s chain.
        engine.prefill("b", (np.arange(160) * 11 + 1) % vocab)
        assert engine.context_length("b") == 160
        assert engine.prefix_cache.evicted_pages == 2
        assert len(engine.prefix_cache.match(tokens_a)) == 2

    def test_fork_decodes_byte_identically(self, model):
        """A forked child decodes exactly like a fresh replayed sequence."""
        tokens = (np.arange(56) * 5) % model.config.vocab_size
        engine = make_engine(model, prefix_cache_enabled=False, kv_bits=8)
        engine.prefill("parent", tokens)
        replay = [3, 9, 1]
        for t in replay:
            engine.decode("parent", t)
        engine.fork_sequence("parent", "child")

        solo = make_engine(model, prefix_cache_enabled=False, kv_bits=8)
        solo.prefill("ref", tokens)
        for t in replay:
            solo.decode("ref", t)

        for t in [7, 2, 4, 8]:
            got = engine.decode("child", t)
            ref = solo.decode("ref", t)
            np.testing.assert_array_equal(got, ref)

        # The parent was never disturbed by the child's divergent appends.
        parent_ref = make_engine(model, prefix_cache_enabled=False, kv_bits=8)
        parent_ref.prefill("ref", tokens)
        for t in replay:
            parent_ref.decode("ref", t)
        np.testing.assert_array_equal(
            engine.decode("parent", 12), parent_ref.decode("ref", 12)
        )


class TestDecodeBatchAtomicity:
    def test_oom_raises_before_any_mutation(self, model):
        """A full pool surfaces as DecodeOutOfPagesError with *no* cache writes.

        Regression: ``cache.append`` inside the per-layer loop used to raise
        mid-batch and mid-layer, leaving earlier sequences with an extra
        appended token and later ones without.
        """
        engine = make_engine(model, num_pages=8, prefix_cache_enabled=False)
        vocab = model.config.vocab_size
        engine.prefill("a", (np.arange(48) * 7) % vocab)   # 3 pages, tail full
        engine.prefill("b", (np.arange(80) * 11) % vocab)  # 5 pages, tail full
        alloc = engine.cache.dense_cache.allocator
        assert alloc.num_free == 0
        len_a = engine.context_length("a")
        len_b = engine.context_length("b")

        with pytest.raises(DecodeOutOfPagesError) as excinfo:
            engine.decode_batch(["a", "b"], [1, 2])
        assert set(excinfo.value.failed_seq_ids) == {"a", "b"}
        # No sequence advanced; every layer's token count is consistent.
        assert engine.context_length("a") == len_a
        assert engine.context_length("b") == len_b
        for seq in ("a", "b"):
            for layer in range(model.config.n_layers):
                assert engine.cache.dense_cache.seq_len(seq, layer) == engine.context_length(seq)

        # Releasing one victim lets the survivor decode cleanly.
        engine.release("b")
        logits = engine.decode_batch(["a"], [1])
        assert logits.shape == (1, vocab)
        assert engine.context_length("a") == len_a + 1

    def test_partial_failure_names_only_oom_sequences(self, model):
        engine = make_engine(model, num_pages=7, prefix_cache_enabled=False)
        vocab = model.config.vocab_size
        engine.prefill("a", (np.arange(48) * 7) % vocab)   # 3 pages
        engine.prefill("b", (np.arange(63) * 11) % vocab)  # 4 pages, tail has room
        while engine.context_length("a") % 16 != 0:
            engine.decode("a", 1)
        # "a" needs a fresh page (none free); "b" still has tail slots.
        with pytest.raises(DecodeOutOfPagesError) as excinfo:
            engine.decode_batch(["a", "b"], [1, 2])
        assert excinfo.value.failed_seq_ids == ("a",)
        # "b" alone still decodes (no page needed).
        engine.decode_batch(["b"], [2])
        assert engine.context_length("b") == 64
