"""Byte-identity matrix for the vectorized decode path.

The vectorized ``decode_batch`` groups sequences by shape signature and runs
stacked kernels; its contract is that every logits row is **byte-identical**
to decoding the same sequence alone through ``decode`` — across head mixes,
page-boundary crossings, copy-on-write forks, and KV hand-off round trips.
Each test drives two engines built from the same seed (one batched, one
sequential) through identical state operations and compares raw bytes.
"""

from __future__ import annotations

import ast
import cProfile
import inspect
import pstats

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer

VOCAB = 512
PAGE = 16


def make_engine(streaming_kv_heads: list[bool], seed: int = 7) -> LServeEngine:
    cfg = tiny_model_config(n_layers=2, n_heads=8, n_kv_heads=4, head_dim=16)
    model = TinyTransformer(cfg, seed=seed)
    config = LServeConfig(
        token_budget=128,
        physical_page_size=PAGE,
        logical_page_size=8,
        sink_tokens=16,
        local_tokens=32,
        kv_bits=8,
        q_block_size=16,
    )
    return LServeEngine(
        model,
        config,
        streaming_kv_heads=np.array(streaming_kv_heads),
        num_cache_pages=1024,
    )


def assert_batched_matches_solo(
    batched_engine: LServeEngine,
    solo_engine: LServeEngine,
    seq_ids: list[object],
    steps: int,
    rng: np.random.Generator,
) -> None:
    """Decode the same token stream both ways and compare raw logits bytes."""
    tokens = rng.integers(0, VOCAB, size=(len(seq_ids), steps))
    batched = [
        batched_engine.decode_batch(seq_ids, tokens[:, t].tolist())
        for t in range(steps)
    ]
    for i, seq_id in enumerate(seq_ids):
        for t in range(steps):
            solo = solo_engine.decode(seq_id, int(tokens[i, t]))
            assert batched[t][i].tobytes() == solo.tobytes(), (
                f"decode_batch diverged from decode at step {t} for {seq_id!r}"
            )


def prefill_both(
    engines: tuple[LServeEngine, LServeEngine],
    seq_ids: list[object],
    lengths: list[int],
    rng: np.random.Generator,
) -> None:
    for seq_id, length in zip(seq_ids, lengths):
        prompt = rng.integers(0, VOCAB, size=length)
        for engine in engines:
            engine.prefill(seq_id, prompt)


@pytest.mark.parametrize(
    "streaming",
    [
        pytest.param([False, False, False, False], id="all-dense"),
        pytest.param([True, True, True, True], id="all-streaming"),
        pytest.param([False, True, False, True], id="mixed"),
    ],
)
def test_head_mix_matrix(streaming: list[bool]) -> None:
    """Batched decode is byte-identical across dense/streaming head mixes.

    Prompt lengths span both sparsity regimes: short contexts take the full
    dense read, long ones (past the token budget) go through dynamic page
    selection — so one batch mixes shape-signature groups.
    """
    rng = np.random.default_rng(11)
    engines = (make_engine(streaming), make_engine(streaming))
    seq_ids = [f"s{i}" for i in range(5)]
    lengths = [24, 40, 61, 150, 193]
    prefill_both(engines, seq_ids, lengths, rng)
    assert_batched_matches_solo(engines[0], engines[1], seq_ids, 8, rng)


def test_page_boundary_crossing() -> None:
    """Identity holds while decode steps straddle physical page boundaries.

    Contexts start just below, exactly at, and just above a page multiple,
    so within the decoded window every sequence opens a fresh physical page
    at a different step (changing its selection signature mid-run).
    """
    rng = np.random.default_rng(13)
    engines = (make_engine([False, True, False, True]), make_engine([False, True, False, True]))
    seq_ids = [f"p{i}" for i in range(4)]
    lengths = [PAGE - 2, PAGE, 2 * PAGE - 1, 2 * PAGE + 1]
    prefill_both(engines, seq_ids, lengths, rng)
    assert_batched_matches_solo(engines[0], engines[1], seq_ids, PAGE + 3, rng)


def test_cow_forked_sequences() -> None:
    """Forked children decode byte-identically inside a mixed batch.

    Both engines fork the same parents; the batch then interleaves parents
    and children so divergent tokens trigger the copy-on-write tail copy on
    the shared pages mid-batch.
    """
    rng = np.random.default_rng(17)
    engines = (make_engine([False, True, False, True]), make_engine([False, True, False, True]))
    parents = ["a", "b"]
    prefill_both(engines, parents, [45, 170], rng)
    for engine in engines:
        engine.fork_sequence("a", "a-fork")
        engine.fork_sequence("b", "b-fork")
    seq_ids = ["a", "a-fork", "b", "b-fork"]
    assert_batched_matches_solo(engines[0], engines[1], seq_ids, 6, rng)


def test_post_restore_sequences() -> None:
    """Sequences restored from a KV hand-off decode identically in a batch.

    One sequence on each engine round-trips through ``handoff_out`` /
    ``handoff_in`` (the migration/cold-tier snapshot path) before being
    batched with a never-migrated neighbour.
    """
    rng = np.random.default_rng(19)
    engines = (make_engine([False, True, False, True]), make_engine([False, True, False, True]))
    seq_ids = ["m", "n", "o"]
    prefill_both(engines, seq_ids, [30, 155, 80], rng)
    for engine in engines:
        export = engine.handoff_out("n")
        engine.handoff_in("n", export)
    assert_batched_matches_solo(engines[0], engines[1], seq_ids, 6, rng)


def calls_per_decode_step(batch: int, steps: int = 8) -> float:
    """Interpreter-level calls (Python and C) per ``decode_batch`` step, under cProfile.

    The benchmark geometry (``benchmarks/e2e``, ``bench_hotpath.py``) with
    every context above ``token_budget``, so the step exercises selection
    lookups and misses, the selected-page gather and the streaming window read.
    """
    cfg = tiny_model_config(
        n_layers=2, n_heads=8, n_kv_heads=4, head_dim=16, max_context_length=8192
    )
    config = LServeConfig(
        token_budget=256,
        physical_page_size=32,
        logical_page_size=16,
        sink_tokens=32,
        local_tokens=64,
        kv_bits=8,
        q_block_size=32,
    )
    engine = LServeEngine(
        TinyTransformer(cfg, seed=0),
        config,
        streaming_kv_heads=np.array([False, True, False, True]),
        num_cache_pages=2048,
    )
    rng = np.random.default_rng(23)
    seq_ids = [f"s{i}" for i in range(batch)]
    prompt = rng.integers(0, VOCAB, size=300)
    for seq_id in seq_ids:
        engine.prefill(seq_id, prompt)
    tokens = rng.integers(0, VOCAB, size=(steps + 1, batch))
    engine.decode_batch(seq_ids, tokens[0])  # first-step selections are all misses
    profile = cProfile.Profile()
    profile.enable()
    for t in range(1, steps + 1):
        engine.decode_batch(seq_ids, tokens[t])
    profile.disable()
    return pstats.Stats(profile).total_calls / steps


def test_calls_per_added_sequence_stay_bounded() -> None:
    """A per-sequence Python loop must not grow back into the decode step.

    No timing: the step's interpreter-level call count is measured at batch 4
    and batch 32, and each added sequence may cost at most 200 calls per step
    (it read 295 before the step went batch-major; what remains per sequence
    is the up-front page reservation and the selector lookup).
    """
    calls_4 = calls_per_decode_step(4)
    calls_32 = calls_per_decode_step(32)
    per_added_sequence = (calls_32 - calls_4) / 28
    assert per_added_sequence <= 200, (
        f"{per_added_sequence:.0f} calls per added sequence per decode step "
        f"(batch 4: {calls_4:.0f}, batch 32: {calls_32:.0f})"
    )


def test_one_transformer_layer_loop() -> None:
    """A second copy of the layer step must not grow back into the engine.

    No timing: ``core/engine.py`` is parsed, and exactly one ``for`` loop may
    iterate ``weights.layers`` and exactly one function may touch ``w_gate``
    (the FFN) — prefill chunks, decode steps and speculative chunks all go
    through ``_run_layers`` and differ only in their ``attend`` callback.
    """
    tree = ast.parse(inspect.getsource(engine_module))
    layer_loops = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and "weights.layers" in ast.unparse(node.iter)
    ]
    ffn_functions = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "w_gate" for n in ast.walk(node))
    ]
    assert len(layer_loops) == 1, f"{len(layer_loops)} loops over weights.layers"
    assert ffn_functions == ["_run_layers"]
