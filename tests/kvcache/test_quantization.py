"""Tests for KV quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvcache.quantization import (
    dequantize,
    fake_quantize,
    quantization_error_bound,
    quantize,
)


class TestQuantize:
    def test_rejects_unsupported_bits(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(4), bits=3)

    def test_fp16_passthrough(self, rng):
        x = rng.normal(size=(4, 8))
        qt = quantize(x, bits=16)
        np.testing.assert_array_equal(dequantize(qt), x)
        assert quantization_error_bound(x, 16).max() == 0.0

    @pytest.mark.parametrize("bits", [4, 8])
    def test_roundtrip_error_within_bound(self, rng, bits):
        x = rng.normal(size=(16, 4, 32))
        qt = quantize(x, bits=bits)
        err = np.abs(dequantize(qt) - x)
        bound = quantization_error_bound(x, bits)
        assert np.all(err <= bound + 1e-12)

    def test_int8_more_accurate_than_int4(self, rng):
        x = rng.normal(size=(8, 64))
        err4 = np.abs(dequantize(quantize(x, 4)) - x).mean()
        err8 = np.abs(dequantize(quantize(x, 8)) - x).mean()
        assert err8 < err4

    def test_constant_input_exact(self):
        x = np.full((3, 8), 2.5)
        qt = quantize(x, bits=4)
        np.testing.assert_allclose(dequantize(qt), x)

    def test_codes_within_range(self, rng):
        x = rng.normal(size=(5, 16)) * 100
        qt = quantize(x, bits=4)
        assert qt.codes.dtype == np.uint8
        assert qt.codes.max() <= 15
        qt8 = quantize(x, bits=8)
        assert qt8.codes.max() <= 255

    def test_extremes_preserved(self, rng):
        """Group min and max quantize exactly (asymmetric quantization)."""
        x = rng.normal(size=(4, 16))
        deq = dequantize(quantize(x, bits=8))
        np.testing.assert_allclose(deq.min(axis=-1), x.min(axis=-1), atol=1e-9)
        np.testing.assert_allclose(deq.max(axis=-1), x.max(axis=-1), rtol=1e-6)

    def test_group_axis(self, rng):
        x = rng.normal(size=(6, 10))
        qt = quantize(x, bits=8, group_axis=0)
        assert qt.scale.shape == (1, 10)
        err = np.abs(dequantize(qt) - x)
        bound = quantization_error_bound(x, 8, group_axis=0)
        assert np.all(err <= bound + 1e-12)

    def test_nbytes_model_ordering(self, rng):
        x = rng.normal(size=(16, 64))
        b16 = quantize(x, 16).nbytes_model()
        b8 = quantize(x, 8).nbytes_model()
        b4 = quantize(x, 4).nbytes_model()
        assert b4 < b8 < b16

    @pytest.mark.parametrize("bits", [4, 8])
    def test_fake_quantize_is_the_round_trip_bit_for_bit(self, rng, bits):
        """The in-place round trip writes the bytes of ``dequantize(quantize(x))``: constant groups,
        groups holding their min at ``+0``/``-0`` and wide ranges included; ``x`` is left alone."""
        x = rng.normal(size=(40, 3, 16)) * np.logspace(-4, 4, 40)[:, None, None]
        x[0, 0] = 2.5  # constant groups
        x[1, 1] = 0.0
        x[2, 2, ::2] = -0.0
        x[3] = np.round(x[3], 1)  # ties at the rounding boundary
        before = x.copy()
        got = fake_quantize(x, bits)
        assert got.tobytes() == dequantize(quantize(x, bits)).tobytes()
        assert x.tobytes() == before.tobytes()
        grouped = fake_quantize(x, bits, group_axis=0)
        assert grouped.tobytes() == dequantize(quantize(x, bits, group_axis=0)).tobytes()

    def test_fake_quantize_passes_16_bits_through(self, rng):
        x = rng.normal(size=(4, 8))
        got = fake_quantize(x, 16)
        assert got is not x and got.tobytes() == x.tobytes()
        with pytest.raises(ValueError):
            fake_quantize(x, 3)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 32)),
            elements=st.floats(-1e4, 1e4),
        ),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_fake_quantize_bitwise(self, x, bits):
        assert fake_quantize(x, bits).tobytes() == dequantize(quantize(x, bits)).tobytes()

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
        qt = quantize(x, bits)
        err = np.abs(dequantize(qt) - x)
        bound = quantization_error_bound(x, bits)
        assert np.all(err <= bound + 1e-9 + 1e-9 * np.abs(x))
