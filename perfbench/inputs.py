"""Seeded inputs: the toy config, corpus, synthesis texts and eval manifest.

The same seed gives the same files.  Sizes are fixed and only content
depends on the seed, so the work per operation stays nearly constant from
seed to seed.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path

import numpy as np

from difftts import config, toydata

# The config of scripts/run_toy_experiment.py and the acceptance suite,
# copied so that the workload does not move when the demo script does.
TOY_CONFIG = """\
audio.hop_length=512
model.d_model=128
model.n_enc_blocks=2
model.n_heads=2
model.d_spk=16
model.dec_channels=32
train.batch_size=1
train.epochs=200
train.seed={seed}
train.checkpoint_every=100
"""

N_SPEAKERS = 2
UTTS_PER_SPEAKER = 4
UTT_SECONDS = 5.0

# One synthesis round: texts of about 1 s to 8 s of toy speech, which
# random_text fills at about 7 characters a second.
SYNTH_CHARS = (7, 56, 14, 49, 21, 42, 28, 35)

# eval manifest: mostly sentences, plus a few paragraphs
SENTENCES = 40
SENTENCE_CHARS = (20, 300)
PARAGRAPH_CHARS = (1000, 1200)
EDIT_RATE = 0.08


def toy_config(seed: int) -> config.Config:
    return config.parse_config(TOY_CONFIG.format(seed=seed))


def make_corpus(corpus_dir: Path, seed: int) -> None:
    toydata.make_corpus(corpus_dir, n_speakers=N_SPEAKERS, utts_per_speaker=UTTS_PER_SPEAKER,
                        seconds=UTT_SECONDS, seed=seed)


def synth_texts(seed: int) -> list[str]:
    """random_text cut to exact lengths, so the frame count of a round is fixed."""
    rng = np.random.default_rng([seed, 1])
    texts = []
    for chars in SYNTH_CHARS:
        text = toydata.random_text(rng, 2.0 * chars / 7.0)[:chars]
        texts.append(text[:-1] + toydata.ALPHABET[0] if text.endswith(" ") else text)
    return texts


def flatten_durations(model) -> None:
    """Predict the same duration for every token: the corpus frames-per-token rate.

    Synthesis cost follows the frame count, not the weight values, and an
    untrained predictor's rate swings by more than an order of magnitude
    from seed to seed.  With the head's weights at zero and its bias at the
    corpus rate (set by ``new_trainer``), every seed synthesizes a text of n
    characters into the same number of frames, at the speaking rate of the
    corpus.  The predictor itself still runs in full.
    """
    model.store["dur.head.w"].tensor.data[:] = 0.0


# -- eval manifest -----------------------------------------------------------------

# Non-ASCII letters are written precomposed; hypotheses are sometimes stored
# decomposed (NFD), so scoring is only right if NFC normalization runs.
ALPHABETS = {
    "en": "abcdefghijklmnopqrstuvwxyz",
    "de": "abcdefghijklmnopqrstuvwxyzäöüß",
    "fr": "abcdefghijklmnopqrstuvwxyzéèêàçôù",
    "vi": "abcdeghiklmnopqrstuvxyăâđêôơưáàảãạấầắằếềốồớờứừ",
    "el": "αβγδεζηθικλμνξοπρστυφχψωάέήίόύώ",
}
DATASETS = ("set-a", "set-b")


def _sentence(rng: np.random.Generator, letters: str, chars: int) -> str:
    words: list[str] = []
    length = -1
    while length < chars:
        word = "".join(letters[i] for i in rng.integers(0, len(letters), int(rng.integers(2, 10))))
        words.append(word)
        length += len(word) + 1
    return " ".join(words)[:chars].rstrip()


def _corrupt(rng: np.random.Generator, text: str, letters: str) -> str:
    """Seeded substitutions, insertions and deletions at EDIT_RATE per character."""
    out = []
    for ch in text:
        roll = rng.random()
        if roll < EDIT_RATE * 0.4:
            out.append(letters[int(rng.integers(0, len(letters)))])
        elif roll < EDIT_RATE * 0.7:
            out.append(ch + letters[int(rng.integers(0, len(letters)))])
        elif roll < EDIT_RATE:
            continue
        else:
            out.append(ch)
    hyp = "".join(out) or text[:1]
    if rng.random() < 0.3:
        hyp = hyp.replace(" ", "  ", 1)
    return hyp


def manifest_rows(seed: int) -> list[tuple[str, str, str, str, str, str]]:
    """Fixed lengths, cells and NFD choices; the seed picks the text and the row order.

    Comparing characters outside Latin-1 costs more in the DP, so which
    script a long record is written in is fixed too, not left to the seed.
    """
    rng = np.random.default_rng([seed, 3])
    lo, hi = SENTENCE_CHARS
    lengths = [int(x) for x in np.linspace(lo, hi, SENTENCES)] + list(PARAGRAPH_CHARS)
    cells = [(d, lang) for d in DATASETS for lang in ALPHABETS]
    records = []
    for k, chars in enumerate(lengths):
        dataset, lang = cells[3 * k % len(cells)]
        letters = ALPHABETS[lang]
        ref = _sentence(rng, letters, chars)
        hyp = _corrupt(rng, ref, letters)
        if k % 3 == 0:
            hyp = unicodedata.normalize("NFD", hyp)
        records.append((dataset, lang, ref, hyp, f"{rng.uniform(0.2, 0.9):.4f}"))
    order = rng.permutation(len(records))
    return [(f"utt{i:04d}",) + records[k] for i, k in enumerate(order)]


def write_manifest(path: Path, seed: int) -> None:
    lines = ["id\tdataset\tlanguage\treference\thypothesis\tsim_o"]
    lines += ["\t".join(row) for row in manifest_rows(seed)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
