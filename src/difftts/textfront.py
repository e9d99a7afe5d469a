"""Text tokenization: character-level by default, pre-phonemized as escape hatch."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PAD_ID = 0  # id 1 is reserved: no symbol gets it, so ids match older checkpoints

MODES = ("characters", "phonemes")


class EmptyTextError(ValueError):
    """Text empty after normalization."""


class VocabularyError(ValueError):
    """Malformed vocabulary input or file, or a symbol outside the vocabulary."""


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
    """The symbols in id order: ``symbols[i]`` has id ``i + 2``, after pad
    and the reserved id 1."""
    symbols: list[str]

    def __post_init__(self):
        if (type(self.symbols) is not list or not all(type(s) is str for s in self.symbols)
                or len(set(self.symbols)) != len(self.symbols)):
            raise VocabularyError("symbols must be a list of distinct strings")
        self._ids = {s: i for i, s in enumerate(self.symbols, start=2)}

    def __len__(self) -> int:
        return len(self.symbols) + 2  # plus pad and the reserved id

    def id_of(self, symbol: str) -> int | None:
        """The symbol's id, None for a symbol outside the vocabulary."""
        return self._ids.get(symbol)


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


def encode_text(text: str, vocab: Vocabulary, mode: str = "characters") -> PhonemeSequence:
    """Token ids; VocabularyError names every symbol outside ``vocab`` and
    its token position, counted from 1 after normalization."""
    normalized = _normalize(text)
    if not normalized:
        raise EmptyTextError("text is empty after normalization")
    tokens = _split(normalized, mode)
    ids = [vocab.id_of(t) for t in tokens]
    unknown = [f"symbol {t!r} is not in the model's vocabulary (token {i} of {len(tokens)})"
               for i, (t, id_) in enumerate(zip(tokens, ids), start=1) if id_ is None]
    if unknown:
        raise VocabularyError("; ".join(unknown))
    return PhonemeSequence(np.array(ids, dtype=np.int64))

