"""Corpus layout: a flat directory of <id>.wav + <id>.txt plus speakers.tsv."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .audio import AudioFormatError, MelSpectrogram, TooShortError, load_wav, wav_to_mel
from .config import Config
from .durpred import ReferenceUnavailableError


class CorpusError(ValueError):
    """Missing or inconsistent corpus files; message names the culprit."""


@dataclass
class Utterance:
    utterance_id: str
    speaker: str
    text: str
    mel: MelSpectrogram


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise CorpusError(f"cannot read {what} {path}: {reason}") from exc


def read_speaker_map(path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    lines = _read_text(path, "speaker map").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path} line {lineno}: expected id<TAB>speaker")
        if parts[0] in mapping:
            raise CorpusError(f"{path} line {lineno}: duplicate utterance id {parts[0]!r}")
        mapping[parts[0]] = parts[1]
    if not mapping:
        raise CorpusError(f"{path}: no speaker entries")
    return mapping


def load_corpus(corpus_dir, cfg: Config) -> list[Utterance]:
    """Read and mel-analyse every utterance listed in speakers.tsv."""
    root = Path(corpus_dir)
    speakers = read_speaker_map(root / "speakers.tsv")
    utterances: list[Utterance] = []
    for uid in sorted(speakers):
        wav_path = root / f"{uid}.wav"
        txt_path = root / f"{uid}.txt"
        if not wav_path.exists():
            raise CorpusError(f"missing audio file {wav_path}")
        if not txt_path.exists():
            raise CorpusError(f"missing transcript {txt_path}")
        wave = load_wav(wav_path)
        text = _read_text(txt_path, "transcript").strip()
        if not text:
            raise CorpusError(f"empty transcript {txt_path}")
        try:
            mel = wav_to_mel(wave, cfg.audio)
        except (AudioFormatError, TooShortError) as exc:
            raise type(exc)(f"{wav_path}: {exc}") from exc
        utterances.append(Utterance(uid, speakers[uid], text, mel))
    return utterances


def speaker_pools(utterances: list[Utterance]) -> dict[str, dict[str, MelSpectrogram]]:
    """speaker -> {utterance id -> mel}, the reference-selection pools.

    Training needs an unrelated reference, so every speaker needs two utterances.
    """
    pools: dict[str, dict[str, MelSpectrogram]] = {}
    for utt in utterances:
        pools.setdefault(utt.speaker, {})[utt.utterance_id] = utt.mel
    starved = sorted(s for s, pool in pools.items() if len(pool) < 2)
    if starved:
        raise ReferenceUnavailableError(
            "speakers with a single utterance and no disjoint region: " + ", ".join(starved))
    return pools
