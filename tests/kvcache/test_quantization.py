"""Tests for the page pool's KV record codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvcache.quantization import decode, encode, record_dtype
from tests.oracle import fake_quantize, quantization_error_bound


def round_trip(x: np.ndarray, bits: int) -> np.ndarray:
    return decode(encode(x, bits), bits)


class TestQuantize:
    def test_fp16_passthrough(self, rng):
        x = rng.normal(size=(4, 8))
        assert encode(x, 16) is x and decode(x, 16) is x
        assert quantization_error_bound(x, 16).max() == 0.0

    @pytest.mark.parametrize("bits", [4, 8])
    def test_roundtrip_error_within_bound(self, rng, bits):
        x = rng.normal(size=(16, 4, 32))
        err = np.abs(round_trip(x, bits) - x)
        bound = quantization_error_bound(x, bits)
        assert np.all(err <= bound + 1e-12)

    def test_int8_more_accurate_than_int4(self, rng):
        x = rng.normal(size=(8, 64))
        err4 = np.abs(round_trip(x, 4) - x).mean()
        err8 = np.abs(round_trip(x, 8) - x).mean()
        assert err8 < err4

    def test_constant_input_exact(self):
        """A constant group gets a positive scale and all-zero codes, not 0 / 0."""
        x = np.full((3, 8), 2.5)
        rows = encode(x, bits=4)
        np.testing.assert_allclose(decode(rows, 4), x)
        assert (rows["scale"] > 0).all() and not rows["codes"].any()

    def test_codes_within_range(self, rng):
        x = rng.normal(size=(5, 16)) * 100
        rows = encode(x, bits=4)
        assert rows.dtype == record_dtype(16) and rows.shape == (5,)
        assert rows["codes"].dtype == np.uint8
        assert rows["codes"].max() <= 15
        assert encode(x, bits=8)["codes"].max() <= 255

    def test_extremes_preserved(self, rng):
        """Group min and max quantize exactly (asymmetric quantization)."""
        x = rng.normal(size=(4, 16))
        deq = round_trip(x, 8)
        np.testing.assert_allclose(deq.min(axis=-1), x.min(axis=-1), atol=1e-9)
        np.testing.assert_allclose(deq.max(axis=-1), x.max(axis=-1), rtol=1e-6)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_fake_quantize_is_the_round_trip_bit_for_bit(self, rng, bits):
        """The codec's round trip writes the oracle's bytes: one row, a batch, K and V
        stacked as the pool writes them, constant groups, groups holding their min at
        ``+0``/``-0`` and wide ranges included; ``x`` is left alone."""
        x = rng.normal(size=(40, 3, 16)) * np.logspace(-4, 4, 40)[:, None, None]
        x[0, 0] = 2.5  # constant groups
        x[1, 1] = 0.0
        x[2, 2, ::2] = -0.0
        x[3] = np.round(x[3], 1)  # ties at the rounding boundary
        before = x.copy()
        kv = np.stack((x, x[::-1] * 3.0))  # (K | V, rows, heads, head_dim), one write's operand
        for case in (x[5, 0], x[5], x, kv, x[0]):
            assert round_trip(case, bits).tobytes() == fake_quantize(case, bits).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_fake_quantize_passes_16_bits_through(self, rng):
        x = rng.normal(size=(4, 8))
        got = fake_quantize(x, 16)
        assert got is not x and got.tobytes() == x.tobytes()
        with pytest.raises(ValueError):
            fake_quantize(x, 3)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(2, 32)),
            elements=st.floats(-1e4, 1e4),
        ),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_fake_quantize_bitwise(self, x, bits):
        """Any batch of (row, head) groups, one row alone and K and V stacked: the oracle's bytes."""
        for case in (x, x[0], np.stack((x, x))):
            assert round_trip(case, bits).tobytes() == fake_quantize(case, bits).tobytes()

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 32)),
            elements=st.floats(-1e4, 1e4),
        ),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip_bounded(self, x, bits):
        err = np.abs(round_trip(x, bits) - x)
        bound = quantization_error_bound(x, bits)
        assert np.all(err <= bound + 1e-9 + 1e-9 * np.abs(x))
