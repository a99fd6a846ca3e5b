"""A prefill works through each layer in row chunks, and no byte depends on the chunk.

``LServeEngine._run_layers`` forms a prefill's K/V and then its queries,
attention, FFN and residual ``_PREFILL_ROW_CHUNK`` rows at a time, so a long
prompt's temporaries stay chunk-sized.  Every projection is batch-invariant
and a prefill query block's bytes do not depend on which other blocks share
the kernel call, so the chunk must not move anything a prefill returns or
leaves behind: these tests patch the constant from one query block up to
past the prompt and compare logits, page images, key statistics, work
counters and the decode that follows.  A last test bounds the traced peak
of a 4096-token prefill, the working set the chunking exists to cap.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from tests.conftest import cached_selections

VOCAB = 512
#: Mixed heads: KV heads 1 and 3 stream, 0 and 2 keep the full history.
STREAMING_KV_HEADS = np.array([False, True, False, True])
#: One query block, three, the default, and past every prompt below.
CHUNKS = (32, 96, 512, 4096)
DECODE_STEPS = 8

MODEL = TinyTransformer(
    tiny_model_config(n_layers=2, n_heads=8, n_kv_heads=4, vocab_size=VOCAB, max_context_length=8192),
    seed=3,
)


def make_engine(kv_bits: int = 8, prefix_cache: bool = False, num_pages: int = 512) -> LServeEngine:
    """The e2e benchmark's geometry (page 32, query block 32, half the KV heads streaming)."""
    config = LServeConfig(
        token_budget=256,
        physical_page_size=32,
        logical_page_size=16,
        sink_tokens=32,
        local_tokens=64,
        kv_bits=kv_bits,
        q_block_size=32,
        prefix_cache_enabled=prefix_cache,
    )
    return LServeEngine(MODEL, config, streaming_kv_heads=STREAMING_KV_HEADS, num_cache_pages=num_pages)


def prompt_of(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, VOCAB, size=n)


def pool_images(engine: LServeEngine, seq_id: object) -> list[np.ndarray]:
    """Both pools' page images and key-statistic rows, every layer, as ``export_sequence`` carries them."""
    export = engine.cache.export_sequence(seq_id)
    arrays = []
    for part in (export.dense, export.streaming):
        assert part is not None
        arrays += [*part.k_pages, *part.v_pages, *part.kmin_pages, *part.kmax_pages]
    return arrays


def decode_rows(engine: LServeEngine, seq_id: object) -> list[np.ndarray]:
    token, rows = 7, []
    for _ in range(DECODE_STEPS):
        rows.append(engine.decode(seq_id, token))
        token = int(np.argmax(rows[-1]))
    return rows


def prefill_record(monkeypatch, chunk: int, n: int, keep: int | None) -> dict:
    """Everything one prefill returns or leaves behind at row chunk ``chunk``."""
    monkeypatch.setattr(engine_module, "_PREFILL_ROW_CHUNK", chunk)
    engine = make_engine()
    attention = engine_module.prefill_sparse_attention
    query_rows: list[int] = []

    def counted(q, *args, **kwargs):
        query_rows.append(q.shape[0])
        return attention(q, *args, **kwargs)

    monkeypatch.setattr(engine_module, "prefill_sparse_attention", counted)
    logits = engine.prefill("s", prompt_of(n, seed=n), logits_to_keep=keep)
    monkeypatch.setattr(engine_module, "prefill_sparse_attention", attention)
    return {
        "logits": logits,
        "images": pool_images(engine, "s"),
        "blocks": (engine.stats.prefill_blocks_visited, engine.stats.prefill_blocks_total),
        "query_rows": query_rows,
        "decode": decode_rows(engine, "s"),
        "selections": cached_selections(engine, "s"),
    }


@pytest.mark.parametrize("keep", [None, 1])
@pytest.mark.parametrize("n", [1000, 2100])
def test_prefill_bytes_do_not_depend_on_the_row_chunk(monkeypatch, n, keep):
    records = {chunk: prefill_record(monkeypatch, chunk, n, keep) for chunk in CHUNKS}
    ref = records[CHUNKS[-1]]
    for chunk, got in records.items():
        # Layer 0 attends chunk by chunk; the last layer too, or from the
        # query block holding the one kept row (one chunk) on.
        chunks = [min(chunk, n - lo) for lo in range(0, n, chunk)]
        assert got["query_rows"] == chunks + (chunks if keep is None else [n - (n - 1) // 32 * 32])
        np.testing.assert_array_equal(got["logits"], ref["logits"], err_msg=f"chunk {chunk}")
        assert len(got["images"]) == len(ref["images"])
        for a, b in zip(got["images"], ref["images"]):
            np.testing.assert_array_equal(a, b, err_msg=f"chunk {chunk}")
        assert got["blocks"] == ref["blocks"]
        for a, b in zip(got["decode"], ref["decode"], strict=True):
            np.testing.assert_array_equal(a, b, err_msg=f"chunk {chunk}")
        assert got["selections"].keys() == ref["selections"].keys()
        for key, (selection, served) in ref["selections"].items():
            np.testing.assert_array_equal(got["selections"][key][0].pages, selection.pages)
            assert got["selections"][key][1] == served


@pytest.mark.parametrize("chunk", [96, 512])
def test_prefix_continuation_over_several_chunks_equals_an_uncached_prefill(monkeypatch, chunk):
    """A 1200-token uncached tail after 256 attached tokens; 16-bit KV, so the history reads back exact."""
    monkeypatch.setattr(engine_module, "_PREFILL_ROW_CHUNK", chunk)
    cold = prompt_of(300, seed=1)
    prompt = np.concatenate([cold[:256], prompt_of(1200, seed=2)])
    cached, uncached = make_engine(16, prefix_cache=True), make_engine(16)
    cached.prefill("cold", cold)
    calls = []
    attention = engine_module.prefill_sparse_attention

    def counted(q, *args, **kwargs):
        calls.append(q.shape[0])
        return attention(q, *args, **kwargs)

    monkeypatch.setattr(engine_module, "prefill_sparse_attention", counted)
    got = cached.prefill("s", prompt)
    monkeypatch.setattr(engine_module, "prefill_sparse_attention", attention)
    want = uncached.prefill("s", prompt)
    assert cached.stats.prefix_hit_tokens == 256
    assert got.shape == (1200, VOCAB)
    assert len(calls) == 2 * -(-1200 // chunk) and max(calls) == chunk
    np.testing.assert_array_equal(got, want[256:])
    for layer in range(MODEL.config.n_layers):
        for read in ("get_dense", "dense_key_stats", "get_streaming"):
            for a, b in zip(getattr(cached.cache, read)("s", layer), getattr(uncached.cache, read)("s", layer)):
                np.testing.assert_array_equal(a, b, err_msg=f"{read} layer {layer}")
    for a, b in zip(decode_rows(cached, "s"), decode_rows(uncached, "s"), strict=True):
        np.testing.assert_array_equal(a, b)


def test_a_4096_token_prefill_peaks_under_22_mb():
    """The traced peak of the serving form on the e2e geometry.

    What stays prompt-sized is the residual stream (4096 x 128 x 8 bytes =
    4.2 MB) and the layer's head-major K/V (4.2 MB together); the rest is
    chunk-sized.  All rows of a layer at once read 38 MB.
    """
    prompt = prompt_of(4096, seed=9)
    engine = make_engine(num_pages=256)
    tracemalloc.start()
    try:
        engine.prefill("s", prompt, logits_to_keep=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22e6, f"{peak / 1e6:.1f} MB"
