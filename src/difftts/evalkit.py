"""CER/WER computation, SIM-O aggregation, and table rendering."""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from typing import Sequence


class EmptyReferenceError(ValueError):
    """Reference text empty after normalization."""


class ManifestError(ValueError):
    """Malformed manifest content; message carries the line number."""


MANIFEST_COLUMNS = ("id", "dataset", "language", "reference", "hypothesis", "sim_o")

METRIC_LABELS = {"cer": "CER", "wer": "WER", "simo": "SIM-O"}


def normalize_text(text: str) -> str:
    """NFC + collapse runs of whitespace to single spaces + strip."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Levenshtein distance with unit costs.

    Myers' bit-vector algorithm (G. Myers, "A fast bit-vector algorithm for
    approximate string matching based on dynamic programming", JACM 1999)
    in the global edit-distance form of H. Hyyrö ("Explaining and extending
    the bit-parallel approximate string matching algorithm of Myers", 2001).
    One DP column of the shorter sequence is held as vertical +1/-1 delta
    bit vectors in Python ints, so each token of the longer sequence costs a
    fixed number of big-int operations instead of one step per DP cell.

    Tokens must be hashable: characters (CER) and words (WER) alike are
    matched through a dict of per-token bit masks.
    """
    # the distance is symmetric, so the shorter sequence is the pattern
    text, pattern = (ref, hyp) if len(ref) >= len(hyp) else (hyp, ref)
    if len(pattern) == 0:
        return len(text)
    peq: dict = {}  # token -> bit i set where pattern[i] == token
    bit = 1
    for tok in pattern:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    vp, vn, dist = mask, 0, len(pattern)
    for tok in text:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | (~(xh | vp) & mask)
        mh = vp & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        # the shifted-in 1 is the +1 horizontal delta of DP row 0
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & mask
        vn = ph & xv
    return dist


def cer(reference: str, hypothesis: str) -> float:
    """Character error rate; spaces count as characters."""
    ref = normalize_text(reference)
    if not ref:
        raise EmptyReferenceError("reference empty after normalization")
    hyp = normalize_text(hypothesis)
    return edit_distance(ref, hyp) / len(ref)


def wer(reference: str, hypothesis: str) -> float:
    """Word error rate over whitespace tokens."""
    ref = normalize_text(reference).split()
    if not ref:
        raise EmptyReferenceError("reference has no words")
    hyp = normalize_text(hypothesis).split()
    return edit_distance(ref, hyp) / len(ref)


@dataclass
class UtteranceRecord:
    utterance_id: str
    dataset: str
    language: str
    reference: str
    hypothesis: str | None = None
    sim_o: float | None = None

    def __post_init__(self):
        if self.hypothesis is None and self.sim_o is None:
            raise ValueError(f"record {self.utterance_id!r}: no metric field present")


@dataclass
class MetricTable:
    metric: str                                  # cer | wer | simo
    cells: dict[tuple[str, str], tuple[float, int]]  # (dataset, language) -> (mean, count)
    datasets: list[str]
    languages: list[str]
    skipped: int = 0

    @property
    def label(self) -> str:
        return METRIC_LABELS[self.metric]


def aggregate(records: Sequence[UtteranceRecord], metric: str) -> MetricTable:
    """Unweighted per-(dataset, language) mean of the selected metric."""
    if metric not in METRIC_LABELS:
        raise ValueError(f"unknown metric {metric!r}")
    if not records:
        raise ValueError("no records to aggregate")
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    skipped = 0
    for rec in records:
        if metric == "simo":
            if rec.sim_o is None:
                skipped += 1
                continue
            value = rec.sim_o
        else:
            if rec.hypothesis is None:
                skipped += 1
                continue
            score = cer if metric == "cer" else wer
            try:
                value = score(rec.reference, rec.hypothesis)
            except EmptyReferenceError as exc:
                raise EmptyReferenceError(f"record {rec.utterance_id!r}: {exc}") from exc
        key = (rec.dataset, rec.language)
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    cells = {k: (sums[k] / counts[k], counts[k]) for k in sums}
    datasets = sorted({d for d, _ in cells})
    languages = sorted({l for _, l in cells})
    return MetricTable(metric, cells, datasets, languages, skipped)


def _format_cell(table: MetricTable, dataset: str, language: str) -> str:
    cell = table.cells.get((dataset, language))
    if cell is None:
        return "--"
    value = cell[0]
    if table.metric == "simo":
        return f"{value:.4f}"
    return f"{100.0 * value:.2f}"  # error rates rendered in percent


def render_table(table: MetricTable, fmt: str = "tsv") -> str:
    """Deterministic text rendering: datasets as rows, languages as columns."""
    header = ["dataset"] + [f"{lang} {table.label}" for lang in table.languages]
    rows = [[ds] + [_format_cell(table, ds, lang) for lang in table.languages]
            for ds in table.datasets]
    if fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def read_manifest(path) -> list[UtteranceRecord]:
    """Parse the TSV manifest (header: id dataset language reference hypothesis sim_o)."""
    records: list[UtteranceRecord] = []
    seen_ids: set[str] = set()
    try:
        with open(path, encoding="utf-8") as f:
            header, *lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ManifestError(f"cannot read manifest {path}: {reason}") from exc
    if tuple(header.split("\t")) != MANIFEST_COLUMNS:
        raise ManifestError("line 1: header must be " + "\t".join(MANIFEST_COLUMNS))
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise ManifestError(f"line {lineno}: expected {len(MANIFEST_COLUMNS)} columns, got {len(parts)}")
        uid, dataset, language, reference, hypothesis, sim_text = parts
        if uid in seen_ids:
            raise ManifestError(f"line {lineno}: duplicate id {uid!r}")
        seen_ids.add(uid)
        sim_val: float | None = None
        if sim_text:
            try:
                sim_val = float(sim_text)
            except ValueError as exc:
                raise ManifestError(f"line {lineno}: bad sim_o value {sim_text!r}") from exc
            if not math.isfinite(sim_val):
                raise ManifestError(f"line {lineno}: non-finite sim_o value {sim_text!r}")
        try:
            records.append(UtteranceRecord(uid, dataset, language, reference,
                                           hypothesis or None, sim_val))
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from exc
    if not records:
        raise ManifestError("manifest has no data rows")
    return records
