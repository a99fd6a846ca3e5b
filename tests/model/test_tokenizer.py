"""Tests for the toy tokenizer."""

import pytest

from repro.model.tokenizer import ToyTokenizer


class TestToyTokenizer:
    def test_deterministic(self):
        tok = ToyTokenizer(vocab_size=256)
        assert tok.encode("hello world") == tok.encode("hello world")

    def test_case_insensitive(self):
        tok = ToyTokenizer()
        assert tok.encode("Hello", add_bos=False) == tok.encode("hello", add_bos=False)

    def test_bos_eos(self):
        tok = ToyTokenizer()
        ids = tok.encode("a b", add_bos=True, add_eos=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id

    def test_ids_within_vocab(self):
        tok = ToyTokenizer(vocab_size=64)
        ids = tok.encode("the quick brown fox jumps over the lazy dog!")
        assert all(0 <= i < 64 for i in ids)

    def test_punctuation_tokenised_separately(self):
        tok = ToyTokenizer()
        with_punct = tok.encode("hello, world", add_bos=False)
        without = tok.encode("hello world", add_bos=False)
        assert len(with_punct) == len(without) + 1

    def test_decode_roundtrip_shape(self):
        tok = ToyTokenizer()
        ids = tok.encode("alpha beta", add_bos=True)
        text = tok.decode(ids)
        assert text.startswith("<bos>")
        assert len(text.split()) == len(ids)

    def test_vocab_too_small_raises(self):
        with pytest.raises(ValueError):
            ToyTokenizer(vocab_size=3)
