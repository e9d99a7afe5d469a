"""Synthetic speech-like corpora for experiments and tests.

Each character maps to a tone segment whose pitch multiplier and duration
are fixed per character, so alignments and durations are learnable; each
synthetic speaker has a distinct fundamental and harmonic envelope, so
spectral statistics separate speakers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, write_wav

ALPHABET = "abcdefgh"
SILENCE = " "

CHAR_PITCH = {ch: 1.0 + 0.25 * i for i, ch in enumerate(ALPHABET)}
CHAR_SECONDS = {ch: 0.10 + 0.015 * i for i, ch in enumerate(ALPHABET)}
CHAR_SECONDS[SILENCE] = 0.10
# each character emphasizes a different harmonic so spectra differ in shape,
# not just in fundamental position
CHAR_BOOST = {ch: 1 + (i % 4) for i, ch in enumerate(ALPHABET)}


@dataclass(frozen=True)
class SpeakerVoice:
    name: str
    f0: float
    rolloff: float       # harmonic amplitude ~ 1 / k**rolloff
    n_harmonics: int
    tempo: float = 1.0   # scales every segment duration

    def harmonic_amps(self) -> np.ndarray:
        k = np.arange(1, self.n_harmonics + 1, dtype=np.float64)
        amps = 1.0 / k**self.rolloff
        return amps / amps.sum()


def default_voices(n_speakers: int = 2) -> list[SpeakerVoice]:
    # bright enough that characters separate in mel space, distinct enough in
    # both spectrum and tempo that reference audio carries real timing signal
    bases = [(170.0, 1.2, 8, 0.9), (310.0, 0.7, 10, 1.2), (225.0, 1.6, 7, 1.05), (130.0, 2.2, 6, 0.8)]
    voices = []
    for i in range(n_speakers):
        f0, roll, nh, tempo = bases[i % len(bases)]
        voices.append(SpeakerVoice(f"spk{i}", f0 * (1.0 + 0.29 * (i // len(bases))), roll, nh, tempo))
    return voices


def render_text(voice: SpeakerVoice, text: str, sample_rate: int) -> np.ndarray:
    """One tone segment per character at amplitude 0.35, with short fades to avoid clicks."""
    pieces = []
    base_amps = voice.harmonic_amps()
    for ch in text:
        n = int(CHAR_SECONDS.get(ch, 0) * voice.tempo * sample_rate)
        if ch == SILENCE:
            pieces.append(np.zeros(n))
            continue
        if ch not in CHAR_PITCH:
            raise ValueError(f"character {ch!r} not in the toy alphabet")
        t = np.arange(n) / sample_rate
        freq = voice.f0 * CHAR_PITCH[ch]
        amps = base_amps.copy()
        boost = CHAR_BOOST[ch]
        if boost <= amps.size:
            amps[boost - 1] *= 4.0
        amps = amps / amps.sum()
        seg = np.zeros(n)
        for k, a in enumerate(amps, start=1):
            seg += a * np.sin(2.0 * np.pi * k * freq * t)
        fade = min(int(0.008 * sample_rate), n // 2)
        if fade > 0:
            ramp = np.linspace(0.0, 1.0, fade)
            seg[:fade] *= ramp
            seg[-fade:] *= ramp[::-1]
        pieces.append(seg)
    return 0.35 * np.concatenate(pieces)


def random_text(rng: np.random.Generator, seconds: float, tempo: float = 1.0) -> str:
    """Space-separated words; silences anchor the alignment like real pauses."""
    words = []
    total = 0.0
    while total < seconds:
        length = int(rng.integers(2, 5))
        word = "".join(ALPHABET[int(rng.integers(0, len(ALPHABET)))] for _ in range(length))
        words.append(word)
        total += (sum(CHAR_SECONDS[c] for c in word) + CHAR_SECONDS[SILENCE]) * tempo
    return " ".join(words)


def make_corpus(corpus_dir, n_speakers: int = 2, utts_per_speaker: int = 4,
                seconds: float = 5.0, seed: int = 0) -> list[str]:
    """Write 22.05 kHz wav/txt pairs plus speakers.tsv; returns the utterance ids."""
    sample_rate = 22050
    root = Path(corpus_dir)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    voices = default_voices(n_speakers)
    ids = []
    lines = []
    for voice in voices:
        for j in range(utts_per_speaker):
            uid = f"{voice.name}_u{j}"
            text = random_text(rng, seconds, voice.tempo)
            samples = render_text(voice, text, sample_rate)
            write_wav(root / f"{uid}.wav", Waveform(samples, sample_rate))
            (root / f"{uid}.txt").write_text(text, encoding="utf-8")
            lines.append(f"{uid}\t{voice.name}")
            ids.append(uid)
    (root / "speakers.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ids
