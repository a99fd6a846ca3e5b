"""``prefill(..., logits_to_keep=k)``: the last layer is cut, nothing else moves.

A prefill owes the rest of the system the KV of every prompt position and the
logits of the rows the caller reads.  ``logits_to_keep`` lets the caller say
which: the last layer then forms queries, attention, FFN and the LM head only
for the query blocks holding those rows.  These tests pin that (i) every byte
the cut form returns or leaves behind equals the all-rows form's, (ii) the
work really is skipped (counted, so they fail if the cut silently stops
cutting), (iii) the serving layer rides on it, and (iv) the ``(n, vocab)``
logits array is never built.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import KVTieringConfig, LServeBackend
from tests.conftest import cached_selections, counted_calls

Q_BLOCK = 32
VOCAB = 512
STREAMING_KV_HEADS = np.array([False, True, False, True])

_MODELS: dict[int, TinyTransformer] = {}


def model_of(n_layers: int) -> TinyTransformer:
    if n_layers not in _MODELS:
        _MODELS[n_layers] = TinyTransformer(
            tiny_model_config(
                n_layers=n_layers, n_heads=8, n_kv_heads=4, vocab_size=VOCAB, max_context_length=8192
            ),
            seed=3,
        )
    return _MODELS[n_layers]


def make_engine(n_layers=2, kv_bits=8, prefix_cache=False, num_pages=512) -> LServeEngine:
    """The e2e benchmark's geometry (page 32, query block 32, half the KV heads streaming)."""
    config = LServeConfig(
        token_budget=256,
        physical_page_size=32,
        logical_page_size=16,
        sink_tokens=32,
        local_tokens=64,
        kv_bits=kv_bits,
        q_block_size=Q_BLOCK,
        prefix_cache_enabled=prefix_cache,
    )
    return LServeEngine(
        model_of(n_layers), config, streaming_kv_heads=STREAMING_KV_HEADS, num_cache_pages=num_pages
    )


def prompt_of(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, VOCAB, size=n)


def assert_same_state(cut: LServeEngine, ref: LServeEngine, seq_id: object, decode_steps: int = 8) -> None:
    """Everything a prefill leaves behind, then ``decode_steps`` greedy decode rows."""
    n_layers = cut.model.config.n_layers
    assert cut.context_length(seq_id) == ref.context_length(seq_id)
    for layer in range(n_layers):
        for read in ("get_dense", "dense_key_stats", "get_streaming"):
            got = getattr(cut.cache, read)(seq_id, layer)
            want = getattr(ref.cache, read)(seq_id, layer)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b, err_msg=f"{read} layer {layer}")
    token = 7
    for _ in range(decode_steps):
        got, want = cut.decode(seq_id, token), ref.decode(seq_id, token)
        np.testing.assert_array_equal(got, want)
        token = int(np.argmax(want))
    got, want = cached_selections(cut, seq_id), cached_selections(ref, seq_id)
    assert got.keys() == want.keys()
    for key, (selection, served) in want.items():
        np.testing.assert_array_equal(got[key][0].pages, selection.pages)
        assert got[key][1] == served


# -- (i) bytes ------------------------------------------------------------------------

KEEPS = (0, 1, 5, 32, 40)
LENGTHS = (1, 31, 32, 33, 64, 65, 513)
CHUNKS = (None, 32, 64, 96)
LAYERS = (1, 2, 3)
KV_BITS = (8, 16)


def _matrix():
    # 84 of the 840 cells: the axis lengths 5, 7, 4, 3 are pairwise coprime,
    # so stepping every axis together meets every pair of their values.
    for i in range(84):
        yield pytest.param(
            KEEPS[i % 5], LENGTHS[i % 7], CHUNKS[i % 4], LAYERS[i % 3], KV_BITS[(i // 4) % 2],
            id=f"keep{KEEPS[i % 5]}-n{LENGTHS[i % 7]}-chunk{CHUNKS[i % 4]}"
            f"-L{LAYERS[i % 3]}-kv{KV_BITS[(i // 4) % 2]}",
        )


@pytest.mark.parametrize("keep, n, chunk, n_layers, kv_bits", _matrix())
def test_cut_prefill_is_byte_identical_to_all_rows(monkeypatch, keep, n, chunk, n_layers, kv_bits):
    """``chunk`` is the prefill row chunk (``None``: the default)."""
    if chunk is not None:
        monkeypatch.setattr(engine_module, "_PREFILL_ROW_CHUNK", chunk)
    prompt = prompt_of(n, seed=n)
    ref, cut = make_engine(n_layers, kv_bits), make_engine(n_layers, kv_bits)
    all_rows = ref.prefill("s", prompt)
    rows = cut.prefill("s", prompt, logits_to_keep=keep)
    assert all_rows.shape == (n, VOCAB)
    assert rows.shape == (min(keep, n), VOCAB)
    np.testing.assert_array_equal(rows, all_rows[n - min(keep, n) :])
    assert_same_state(cut, ref, "s")


@pytest.mark.parametrize("keep", KEEPS)
def test_cut_prefill_with_prefix_hits(keep):
    """A cold prompt, then prompts sharing 1, 4 and 8 pages with it."""
    ref, cut = make_engine(prefix_cache=True), make_engine(prefix_cache=True)
    cold = prompt_of(400, seed=1)
    prompts = [cold] + [
        np.concatenate([cold[: pages * 32], prompt_of(70 + pages, seed=10 + pages)]) for pages in (1, 4, 8)
    ]
    for i, prompt in enumerate(prompts):
        all_rows = ref.prefill(i, prompt)
        rows = cut.prefill(i, prompt, logits_to_keep=keep)
        computed = all_rows.shape[0]
        assert computed == prompt.size - (0, 32, 128, 256)[i]
        np.testing.assert_array_equal(rows, all_rows[computed - min(keep, computed) :])
        assert cut.stats.prefix_hit_tokens == ref.stats.prefix_hit_tokens
        assert cut.stats.prefill_tokens == ref.stats.prefill_tokens
    assert cut.stats.prefix_hit_tokens == 32 + 128 + 256
    # The index filed the same pages, holding every row's K/V in both pools —
    # also the rows whose last-layer queries were never formed.
    assert cut.prefix_cache.num_nodes == ref.prefix_cache.num_nodes
    for prompt in prompts:
        got, want = cut.prefix_cache.match(prompt), ref.prefix_cache.match(prompt)
        assert [node.pages for node in got] == [node.pages for node in want]
        assert len(want) == prompt.size // 32
        for a, b in zip(got, want):
            for pool_x, pool_y, page_x, page_y in zip(cut.cache.pools, ref.cache.pools, a.pages, b.pages):
                for layers_x, layers_y in zip(pool_x.page_image(page_x), pool_y.page_image(page_y)):
                    for rows_x, rows_y in zip(layers_x, layers_y):
                        np.testing.assert_array_equal(rows_x, rows_y)
    for i in range(len(prompts)):
        assert_same_state(cut, ref, i, decode_steps=4)


def test_negative_logits_to_keep_is_refused():
    with pytest.raises(ValueError, match="logits_to_keep"):
        make_engine().prefill("s", prompt_of(8), logits_to_keep=-1)


# -- (ii) structure: the work is skipped, and only there --------------------------------


class Counted:
    """Row counts of every GEMM and every prefill attention call of one engine."""

    def __init__(self, monkeypatch, engine: LServeEngine) -> None:
        self.gemm_rows: list[tuple[int, bool]] = []  # (rows, is the LM head)
        self.attn_q_rows: list[int] = []
        lm_head = engine.model.weights.lm_head
        matmul, attention = engine_module._rowwise_matmul, engine_module.prefill_sparse_attention

        def counted_matmul(x, w):
            self.gemm_rows.append((x.shape[0], w is lm_head))
            return matmul(x, w)

        def counted_attention(q, *args, **kwargs):
            self.attn_q_rows.append(q.shape[0])
            return attention(q, *args, **kwargs)

        monkeypatch.setattr(engine_module, "_rowwise_matmul", counted_matmul)
        monkeypatch.setattr(engine_module, "prefill_sparse_attention", counted_attention)

    def head_rows(self) -> list[int]:
        return [rows for rows, is_head in self.gemm_rows if is_head]


#: One layer's GEMMs over 513 rows in 512-row chunks: ``wk``/``wv`` per
#: chunk, then ``wq``, ``wo``, gate, up and down per chunk.
LAYER_513 = [(512, False)] * 2 + [(1, False)] * 2 + [(512, False)] * 5 + [(1, False)] * 5


def test_all_rows_form_runs_the_full_width_everywhere(monkeypatch):
    """``logits_to_keep=None`` is ``keep_from = 0``: seven GEMMs per layer and
    row chunk, one attention call per layer and row chunk, every row through
    all of them and the head over all ``n`` rows."""
    engine = make_engine(n_layers=3)
    counted = Counted(monkeypatch, engine)
    engine.prefill("s", prompt_of(513))
    assert engine_module._PREFILL_ROW_CHUNK == 512
    assert counted.gemm_rows == LAYER_513 * 3 + [(513, True)]
    assert counted.attn_q_rows == [512, 1] * 3


def test_keep_one_cuts_the_last_layer_to_one_query_block(monkeypatch):
    engine = make_engine(n_layers=3)
    counted = Counted(monkeypatch, engine)
    rows = engine.prefill("s", prompt_of(513), logits_to_keep=1)
    assert rows.shape == (1, VOCAB)
    # 513 = 16 query blocks + 1 row: the cut lands on row 512.
    assert counted.attn_q_rows == [512, 1, 512, 1, 1]
    assert counted.head_rows() == [1]
    # wk, wv over every row; wq, wo, gate, up, down over the kept block.
    assert counted.gemm_rows[: 2 * len(LAYER_513)] == LAYER_513 * 2
    assert counted.gemm_rows[2 * len(LAYER_513) : -1] == LAYER_513[:4] + [(1, False)] * 5


def test_a_wanted_row_inside_a_block_keeps_the_whole_block(monkeypatch):
    engine = make_engine(n_layers=2)
    counted = Counted(monkeypatch, engine)
    engine.prefill("s", prompt_of(500), logits_to_keep=1)
    assert counted.attn_q_rows == [500, 500 - 480]
    assert counted.head_rows() == [20]
    assert max(counted.head_rows()) <= Q_BLOCK


def test_keep_zero_writes_kv_and_nothing_else_in_the_last_layer(monkeypatch):
    engine = make_engine(n_layers=3)
    counted = Counted(monkeypatch, engine)
    rows = engine.prefill("s", prompt_of(513), logits_to_keep=0)
    assert rows.shape == (0, VOCAB)
    assert counted.attn_q_rows == [512, 1, 512, 1]
    assert counted.head_rows() == [0]
    assert engine.context_length("s") == 513


def test_a_continuation_reads_history_only_for_layers_it_attends_in(monkeypatch):
    """Two 64-row tails after 128 attached tokens: ``logits_to_keep=0`` attends in layer 0 only."""
    engine = make_engine(n_layers=2, prefix_cache=True)
    cold = prompt_of(192, seed=1)
    engine.prefill("cold", cold, logits_to_keep=1)
    counted = Counted(monkeypatch, engine)
    reads = []

    def recorded(name):
        inner = getattr(engine.cache, name)

        def read(seq_id, layer):
            reads.append((name, layer))
            return inner(seq_id, layer)

        return read

    for name in ("get_dense", "get_streaming"):
        monkeypatch.setattr(engine.cache, name, recorded(name))
    engine.prefill("a", np.concatenate([cold[:128], prompt_of(64, seed=2)]), logits_to_keep=0)
    engine.prefill("b", np.concatenate([cold[:128], prompt_of(64, seed=3)]), logits_to_keep=1)
    assert engine.stats.prefix_hit_tokens == 2 * 128
    assert reads == [
        ("get_dense", 0), ("get_streaming", 0),
        ("get_dense", 0), ("get_streaming", 0), ("get_dense", 1), ("get_streaming", 1),
    ]
    assert counted.attn_q_rows == [64, 64, Q_BLOCK]
    assert counted.head_rows() == [0, Q_BLOCK]


# -- (iii) serving ----------------------------------------------------------------------


def test_backend_prefill_returns_the_twin_engines_last_row():
    prompt = prompt_of(333, seed=4)
    backend = LServeBackend(make_engine())
    twin = make_engine()
    prefills = counted_calls(backend.engine, "_run_layers")
    result = backend.prefill("s", prompt)
    np.testing.assert_array_equal(result.logits, twin.prefill("s", prompt)[-1])
    assert prefills[0] == 1
    assert_same_state(backend.engine, twin, "s")


def test_generate_samples_the_same_tokens_from_the_cut_prefill():
    prompt = prompt_of(150, seed=6)
    twin = make_engine()
    token = int(np.argmax(twin.prefill("s", prompt)[-1]))
    expected = [token]
    for _ in range(5):
        token = int(np.argmax(twin.decode("s", token)))
        expected.append(token)
    assert make_engine().generate(prompt, max_new_tokens=6) == expected


def test_tiering_and_handoff_after_a_cut_prefill_decode_like_the_twin():
    prompt = prompt_of(300, seed=8)
    twin = make_engine()
    twin.prefill("s", prompt)

    # A cold-tier round trip: out of the backend, and back into the same one.
    tiered = LServeBackend(make_engine(), tiering=KVTieringConfig())
    tiered.prefill("s", prompt)
    parked = tiered.handoff_out("s")
    assert parked.n_pages > 0
    tiered.handoff_in("s", parked)

    source, target = LServeBackend(make_engine()), LServeBackend(make_engine())
    source.prefill("s", prompt)
    target.handoff_in("s", source.handoff_out("s"))

    token = 11
    for _ in range(8):
        want = twin.decode("s", token)
        np.testing.assert_array_equal(tiered.decode_batch(["s"], [token]).logits[0], want)
        np.testing.assert_array_equal(target.decode_batch(["s"], [token]).logits[0], want)
        token = int(np.argmax(want))


# -- (iv) memory ------------------------------------------------------------------------


def test_keep_one_never_builds_the_all_rows_logits():
    """4096 rows x 512 vocab x 8 bytes = 16 MB the all-rows form returns (and
    the FFN intermediates it computes on the way) are never allocated."""
    prompt = prompt_of(4096, seed=9)

    def peak_of(keep):
        engine = make_engine(num_pages=256)
        tracemalloc.start()
        try:
            rows = engine.prefill("s", prompt, logits_to_keep=keep)
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    all_rows, all_rows_peak = peak_of(None)
    last_row, cut_peak = peak_of(1)
    assert all_rows.shape == (4096, VOCAB) and last_row.shape == (1, VOCAB)
    assert (last_row.base if last_row.base is not None else last_row).shape[0] <= Q_BLOCK
    np.testing.assert_array_equal(last_row[0], all_rows[-1])
    assert all_rows_peak - cut_peak >= 6e6, (all_rows_peak, cut_peak)
