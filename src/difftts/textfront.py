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
    symbol_to_id: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.symbol_to_id.values())
        if ids != list(range(2, 2 + len(ids))):
            raise VocabularyError("symbol ids must be contiguous starting at 2")

    def __len__(self) -> int:
        return len(self.symbol_to_id) + 2  # plus pad and unk

    def id_of(self, symbol: str) -> int:
        return self.symbol_to_id.get(symbol, UNK_ID)

    def symbols_in_id_order(self) -> list[str]:
        return [s for s, _ in sorted(self.symbol_to_id.items(), key=lambda kv: kv[1])]


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
    return Vocabulary({s: i for i, s in enumerate(sorted(symbols), start=2)})


def encode_text(text: str, vocab: Vocabulary, mode: str = "characters") -> PhonemeSequence:
    normalized = _normalize(text)
    if not normalized:
        raise EmptyTextError("text is empty after normalization")
    tokens = _split(normalized, mode)
    ids = np.array([vocab.id_of(t) for t in tokens], dtype=np.int64)
    return PhonemeSequence(ids)

