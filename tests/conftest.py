"""Shared fixtures and audit helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.configs import tiny_model_config


def pytest_configure(config):
    """Register the ``slow`` marker (long end-to-end runs, split out in CI)."""
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end test; excluded from the fast CI lane "
        '(run with `-m slow`, skipped by `-m "not slow"`)',
    )


def assert_no_leaked_pages(allocator, backend=None, cold_store=None) -> None:
    """Assert every KV page went back to the pool (and every tier drained).

    The shared zero-leak audit used at the end of serving/cluster/tiering
    tests: the page allocator must report nothing allocated, the backend (when
    given) must hold no live KV tokens, and the cold tier (when given — a
    tiered serving engine's ``cold_store``, which the backend does not hold)
    must be empty — demoted snapshots count as leaks too.  A backend that wraps a real
    engine must also hold zero pages in its streaming-head pool and zero bytes
    of decode operand blocks (leaks the given allocator cannot see).
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
            stream = engine.cache.streaming_cache
            pages = stream.allocator.num_allocated if stream is not None else 0
            assert pages == 0, f"backend engine still holds {pages} streaming-head pages"
            held = engine.cache.operand_block_bytes
            assert held == 0, f"backend engine still holds {held} bytes of decode operand blocks"
    if cold_store is not None:
        assert cold_store.num_pages == 0, (
            f"leaked {cold_store.num_pages} cold-tier pages "
            f"({cold_store.num_entries} entries)"
        )


def counted_calls(owner, attr: str) -> list[int]:
    """Wrap ``owner.attr`` with a call counter; returns the one-element, live count."""
    calls = [0]
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return calls


def step_outcomes(engine, requests=()) -> list:
    """Submit ``requests`` to a ``ServingEngine``, then step it until nothing is left.

    Returns every ``StepOutcome`` in order: the run's decision trace (what
    each step admitted, resumed, restored, preempted, demoted, emitted and
    finished), which the engine itself does not keep.
    """
    for request in requests:
        engine.submit(request)
    outcomes = []
    while (outcome := engine.step()) is not None:
        outcomes.append(outcome)
    return outcomes


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
