"""Deterministic toy tokenizer.

Real tokenizers are not required for any experiment in the paper that this
repository reproduces — the accuracy harnesses operate on synthetic key/query
embeddings — but the functional examples need a way to turn text into token
ids for the :class:`~repro.model.transformer.TinyTransformer`.  This tokenizer
is word-level with hashing into a fixed vocabulary, deterministic across runs.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

__all__ = ["ToyTokenizer"]

_WORD_RE = re.compile(r"\w+|[^\w\s]")


@dataclass
class ToyTokenizer:
    """Word-level hashing tokenizer with a handful of special tokens."""

    vocab_size: int = 512
    bos_id: int = 0
    eos_id: int = 1
    pad_id: int = 2
    unk_id: int = 3
    _reserved: int = field(default=4, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.vocab_size <= self._reserved:
            raise ValueError(
                f"vocab_size must exceed {self._reserved} reserved ids, got {self.vocab_size}"
            )

    def _hash_word(self, word: str) -> int:
        digest = hashlib.sha1(word.lower().encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "little") % (self.vocab_size - self._reserved)
        return self._reserved + bucket

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> list[int]:
        """Encode ``text`` into token ids."""
        tokens = [self._hash_word(w) for w in _WORD_RE.findall(text)]
        if add_bos:
            tokens = [self.bos_id] + tokens
        if add_eos:
            tokens = tokens + [self.eos_id]
        return tokens

    def decode(self, ids: list[int]) -> str:
        """Lossy decode: special tokens are named, others rendered as ``<tok_i>``."""
        names = {
            self.bos_id: "<bos>",
            self.eos_id: "<eos>",
            self.pad_id: "<pad>",
            self.unk_id: "<unk>",
        }
        return " ".join(names.get(i, f"<tok_{i}>") for i in ids)
