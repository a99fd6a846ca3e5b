"""Shared fixtures and audit helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer


def pytest_configure(config):
    """Register the ``slow`` marker (long end-to-end runs, split out in CI)."""
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end test; excluded from the fast CI lane "
        '(run with `-m slow`, skipped by `-m "not slow"`)',
    )


def assert_no_leaked_pages(allocator, backend=None, cold_store=None, draft_source=None) -> None:
    """Assert every KV page went back to the pool (and every tier drained).

    The shared zero-leak audit used at the end of serving/cluster/tiering
    tests: the page allocator must report nothing allocated, the backend (when
    given) must hold no live KV tokens, and the cold tier (when given — a
    tiered serving engine's ``cold_store``, which the backend does not hold)
    must be empty — demoted snapshots count as leaks too.  A backend that wraps a real
    engine must also hold zero pages in its streaming-head pool and zero bytes
    of decode operand blocks (leaks the given allocator cannot see).  When
    ``draft_source`` is given, its draft engine (if it has one, e.g.
    ``CheapEngineDraft``) must also hold zero allocated pages and no lingering
    per-request draft state — speculative scratch KV counts as a leak the same
    as target KV.
    """
    assert allocator.num_allocated == 0, (
        f"leaked {allocator.num_allocated} hot-tier pages "
        f"(free={allocator.num_free}, capacity={allocator.capacity})"
    )
    if backend is not None:
        in_use = backend.kv_tokens_in_use()
        assert in_use == 0, f"backend still holds {in_use} KV tokens"
        engine = getattr(backend, "engine", None)
        if engine is not None:
            _assert_no_streaming_pages_or_blocks(engine.cache, "backend engine")
    if cold_store is not None:
        assert cold_store.num_pages == 0, (
            f"leaked {cold_store.num_pages} cold-tier pages "
            f"({cold_store.num_entries} entries)"
        )
    if draft_source is not None:
        fed = getattr(draft_source, "_fed", None)
        if fed is not None:
            assert not fed, f"draft source still tracks requests: {sorted(fed)}"
        draft_engine = getattr(draft_source, "engine", None)
        if draft_engine is not None:
            dense = draft_engine.cache.dense_cache
            if dense is not None:
                assert dense.allocator.num_allocated == 0, (
                    f"leaked {dense.allocator.num_allocated} draft-KV pages"
                )
            _assert_no_streaming_pages_or_blocks(draft_engine.cache, "draft engine")


def _assert_no_streaming_pages_or_blocks(cache, owner: str) -> None:
    stream = cache.streaming_cache
    pages = stream.allocator.num_allocated if stream is not None else 0
    assert pages == 0, f"{owner} still holds {pages} streaming-head pages"
    held = cache.operand_block_bytes
    assert held == 0, f"{owner} still holds {held} bytes of decode operand blocks"


def counted_calls(owner, attr: str) -> list[int]:
    """Wrap ``owner.attr`` with a call counter; returns the one-element, live count."""
    calls = [0]
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return calls


def append_rows(cache, seq_id: object, layer: int, k, v) -> None:
    """One sequence's bulk write into a pool, as a prefill makes it: written past the count, then advanced over."""
    n_rows = [len(k)]
    cache.write_past_count([seq_id], layer, k, v, n_rows)
    cache.advance([seq_id], layer, k, n_rows)


def cached_selections(engine, seq_id: object) -> dict:
    """``{(seq_id, layer): (selection, queries_served)}``: one sequence's entries in the engine's cache.

    They live in the dense pool (the streaming one when every head streams, and then there are none).
    """
    entries = engine.cache.pools[0].page_selections
    return {key: entry for key, entry in entries.items() if key[0] == seq_id}


def streaming_retained(total: int, sink: int, local: int, page: int) -> list[int]:
    """Positions a streaming-head row holds after ``total`` appends, from first principles.

    The first ``sink`` positions, then everything from the start of the
    oldest local page still inside the window of ``local`` tokens rounded up
    to whole pages (eviction drops whole pages).
    """
    window = ((total - 1) // page - -(-local // page) + 1) * page
    return [p for p in range(total) if p < sink or p >= window]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def tiny_config():
    return tiny_model_config()


@pytest.fixture()
def tiny_model(tiny_config) -> TinyTransformer:
    return TinyTransformer(tiny_config, seed=7)


def random_qkv(
    rng: np.random.Generator,
    n_q: int,
    n_kv: int,
    n_heads: int = 4,
    n_kv_heads: int = 2,
    head_dim: int = 16,
):
    """Random query/key/value tensors in the repository's shape convention."""
    q = rng.normal(size=(n_q, n_heads, head_dim))
    k = rng.normal(size=(n_kv, n_kv_heads, head_dim))
    v = rng.normal(size=(n_kv, n_kv_heads, head_dim))
    return q, k, v
