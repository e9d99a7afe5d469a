"""Text tokenization: character-level by default, pre-phonemized as escape hatch."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PAD_ID = 0
UNK_ID = 1

MODES = ("characters", "phonemes")


class EmptyTextError(ValueError):
    """Text empty after normalization."""


class VocabularyError(ValueError):
    """Malformed vocabulary input or file."""


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def _split(text: str, mode: str) -> list[str]:
    if mode not in MODES:
        raise ValueError(f"unknown tokenization mode: {mode!r}")
    if mode == "characters":
        return list(text)
    return text.split()


@dataclass
class Vocabulary:
    """The symbols in id order: ``symbols[i]`` has id ``i + 2``, after pad and unk."""
    symbols: list[str]

    def __post_init__(self):
        if (type(self.symbols) is not list or not all(type(s) is str for s in self.symbols)
                or len(set(self.symbols)) != len(self.symbols)):
            raise VocabularyError("symbols must be a list of distinct strings")
        self._ids = {s: i for i, s in enumerate(self.symbols, start=2)}

    def __len__(self) -> int:
        return len(self.symbols) + 2  # plus pad and unk

    def id_of(self, symbol: str) -> int:
        return self._ids.get(symbol, UNK_ID)


@dataclass
class PhonemeSequence:
    ids: np.ndarray    # int64

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.size == 0:
            raise ValueError("sequence needs at least one token")
        if np.any(self.ids == PAD_ID):
            raise ValueError("padding id among tokens")

    def __len__(self) -> int:
        return self.ids.size


def build_vocab(transcripts: Iterable[str], mode: str = "characters") -> Vocabulary:
    """Deterministic vocabulary: symbols sorted lexicographically, ids from 2."""
    symbols: set[str] = set()
    empty = True
    for text in transcripts:
        empty = False
        symbols.update(_split(_normalize(text), mode))
    if empty:
        raise VocabularyError("empty corpus")
    return Vocabulary(sorted(symbols))


def encode_text(text: str, vocab: Vocabulary, mode: str = "characters",
                strict: bool = False) -> PhonemeSequence:
    """Token ids; a symbol outside ``vocab`` is unk, or refused when ``strict``."""
    normalized = _normalize(text)
    if not normalized:
        raise EmptyTextError("text is empty after normalization")
    tokens = _split(normalized, mode)
    ids = np.array([vocab.id_of(t) for t in tokens], dtype=np.int64)
    if strict and UNK_ID in ids:
        raise VocabularyError(f"symbol {tokens[int(np.argmax(ids == UNK_ID))]!r} "
                              "is not in the model's vocabulary")
    return PhonemeSequence(ids)

