"""Tests for SamplingParams and the token-sampling kernel."""

import numpy as np
import pytest

from repro.serving.sampling import SamplingParams, sample_token


class TestSamplingParams:
    def test_defaults_are_greedy(self):
        params = SamplingParams()
        assert params.is_greedy
        assert params.stop_token_ids == ()

    def test_validation(self):
        for temperature in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SamplingParams(temperature=temperature)
        with pytest.raises(ValueError):
            SamplingParams(top_k=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SamplingParams(seed=-1)

    def test_stop_tokens_normalised_and_checked(self):
        params = SamplingParams(stop_token_ids=[np.int64(3), 7])
        assert params.stop_token_ids == (3, 7)
        assert params.is_stop(3)
        assert params.is_stop(np.int64(7))
        assert not params.is_stop(4)

    def test_greedy_constructor(self):
        params = SamplingParams.greedy(stop_token_ids=(1,))
        assert params.is_greedy
        assert params.is_stop(1)


class TestSampleToken:
    def logits(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=32)

    def test_greedy_is_argmax(self):
        logits = self.logits()
        rng = np.random.default_rng(0)
        assert sample_token(logits, SamplingParams(), rng) == int(np.argmax(logits))

    def test_temperature_sampling_is_seeded_and_varied(self):
        logits = self.logits()
        params = SamplingParams(temperature=1.0)
        draws_a = [
            sample_token(logits, params, np.random.default_rng(7)) for _ in range(4)
        ]
        draws_b = [
            sample_token(logits, params, np.random.default_rng(7)) for _ in range(4)
        ]
        assert draws_a == draws_b  # same seed, same tokens
        rng = np.random.default_rng(7)
        many = {sample_token(logits, params, rng) for _ in range(64)}
        assert len(many) > 1  # actually samples

    def test_top_k_restricts_support(self):
        logits = self.logits()
        params = SamplingParams(temperature=2.0, top_k=3)
        allowed = set(np.argsort(logits)[-3:].tolist())
        rng = np.random.default_rng(3)
        for _ in range(64):
            assert sample_token(logits, params, rng) in allowed

    @pytest.mark.parametrize("top_k", [None, 1, 3])
    def test_overflowing_scale_samples_among_the_maximal_logits(self, top_k):
        # logits / 1e-320 overflows float64; the T -> 0 limit is uniform over the ties at the top.
        logits = self.logits()
        logits[[4, 9]] = logits.max() + 1.0
        params = SamplingParams(temperature=1e-320, top_k=top_k)
        rng = np.random.default_rng(5)
        assert {sample_token(logits, params, rng) for _ in range(64)} == {4, 9}
        negative = np.array([-3.0, -1.0, -2.0])  # every scaled logit overflows to -inf
        assert sample_token(negative, params, rng) == 1

    def test_empty_logits_rejected(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros(0), SamplingParams(), np.random.default_rng(0))

    def test_speculation_k_knob(self):
        assert SamplingParams().speculation_k == 0
        assert SamplingParams(speculation_k=4).speculation_k == 4
        with pytest.raises(ValueError):
            SamplingParams(speculation_k=-1)


class TestSamplePurity:
    """The property speculative verification stands on: ``sample_token`` is a
    pure function of ``(logits row, params, rng state)``.

    The verify phase feeds logits rows computed in one batched chunk to the
    request's own sampler, one row at a time.  That only reproduces the
    non-speculative tokens byte-for-byte if the sampled token never depends
    on *where* the row came from — batch position, other rows in the chunk,
    dtype/layout of the slice, or how many unrelated calls happened before —
    but only on the rng's own draw sequence.
    """

    PARAM_GRID = [
        SamplingParams(),
        SamplingParams(temperature=0.5),
        SamplingParams(temperature=1.3, top_k=5),
        SamplingParams(temperature=0.9, top_k=1),
    ]

    def batch(self, n=8, vocab=64, seed=0):
        return np.random.default_rng(seed).normal(size=(n, vocab))

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_same_row_same_rng_state_same_token(self, params):
        """A row sampled standalone equals the same row sampled mid-batch,
        whenever the rng is restored to the same state first."""
        batch = self.batch()
        for j in range(batch.shape[0]):
            standalone = sample_token(batch[j], params, np.random.default_rng(42))
            # Same row reached after sampling every earlier row first, with
            # the rng state snapshot/restored around the detour (the exact
            # move the serving engine makes on a failed speculative commit).
            rng = np.random.default_rng(42)
            state = rng.bit_generator.state
            for i in range(j):
                sample_token(batch[i], params, rng)
            rng.bit_generator.state = state
            assert sample_token(batch[j], params, rng) == standalone

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_batch_position_and_layout_irrelevant(self, params):
        """Row j of a batch, a copy, a float32 cast, and a reversed-batch
        slice all sample the same token from the same rng state."""
        batch = self.batch()
        for j in range(batch.shape[0]):
            views = [
                batch[j],
                batch[j].copy(),
                batch[j].astype(np.float32).astype(np.float64),
                batch[::-1][batch.shape[0] - 1 - j],
            ]
            tokens = {
                sample_token(v, params, np.random.default_rng(9)) for v in views
            }
            assert len(tokens) == 1

    def test_greedy_never_consumes_rng(self):
        """Greedy sampling draws nothing, so call count cannot skew later
        draws — the engine exploits this when logits rows are discarded."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        for row in self.batch():
            sample_token(row, SamplingParams(), rng)
        assert rng.bit_generator.state == before

    def test_stochastic_draw_sequence_is_call_count_only(self):
        """With temperature, the Nth call's token depends only on N — not on
        which rows were sampled before."""
        params = SamplingParams(temperature=1.0)
        batch = self.batch()
        other = self.batch(seed=99)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        for j in range(batch.shape[0]):
            # Interleave different *rows* but identical draw counts.
            sample_token(batch[j], params, rng_a)
            sample_token(other[j], params, rng_b)
        target = np.random.default_rng(1).normal(size=64)
        assert sample_token(target, params, rng_a) == sample_token(target, params, rng_b)
