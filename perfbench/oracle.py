"""Reference scorer for the eval-manifest output check.

A plain rolling-row Levenshtein DP and the text normalization that CER and
WER are defined over, kept inside the benchmark so the check still has an
independent oracle once the library's edit distance is replaced by a faster
algorithm.
"""

from __future__ import annotations

import unicodedata
from typing import Sequence


def normalize(text: str) -> str:
    """NFC, whitespace runs collapsed to one space, ends stripped."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def levenshtein(ref: Sequence, hyp: Sequence) -> int:
    """Unit-cost edit distance, one DP row at a time."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i]
        for j, h in enumerate(hyp, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def score(reference: str, hypothesis: str, mode: str) -> float:
    """CER over characters (spaces included) or WER over whitespace tokens."""
    ref, hyp = normalize(reference), normalize(hypothesis)
    if mode == "wer":
        ref, hyp = ref.split(), hyp.split()
    return levenshtein(list(ref), list(hyp)) / len(ref)
