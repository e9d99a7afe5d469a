"""Cross-attention duration prediction.

Phoneme embeddings query a fixed-length reference mel window taken from a
different utterance of the same speaker; the attended features feed a small
conv stack that regresses log frame counts per phoneme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .audio import MelSpectrogram
from .config import Config


class ReferenceUnavailableError(ValueError):
    """No unrelated reference material for a speaker."""


class InvalidTargetError(ValueError):
    """Duration targets must be strictly positive."""


class DurationLimitError(ValueError):
    """Predicted durations add up to more frames than one utterance may hold."""


# Ceiling on an utterance's total predicted frames: about 12 minutes at the
# default hop (22.05 kHz / 256).  A fixed constant, not a config key, so
# checkpoint fingerprints do not depend on it.
MAX_FRAMES = 1 << 16


@dataclass
class ReferenceMel:
    mel: MelSpectrogram
    source_utterance: str
    source_speaker: str


@dataclass
class DurationVector:
    frames: np.ndarray  # per-phoneme positive integers

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64)
        if np.any(self.frames < 1):
            raise ValueError("every phoneme needs at least one frame")

    def total(self) -> int:
        return int(self.frames.sum())


# -- reference selection -----------------------------------------------------


def crop_window(mel: MelSpectrogram, length: int, rng: np.random.Generator) -> MelSpectrogram:
    """Random fixed-length window; shorter sources are tile-repeated first."""
    values, frames = mel.values, mel.frames
    if frames < length:
        reps = -(-length // frames)  # ceil
        values = np.tile(values, (reps, 1))
        frames = values.shape[0]
    start = int(rng.integers(0, frames - length + 1))
    return MelSpectrogram(values[start:start + length].copy(), mel.sample_rate,
                          mel.hop_length, mel.n_mels)


def crop_reference(pool: dict[str, MelSpectrogram], target_id: str,
                   rng: np.random.Generator, length: int, speaker: str = "") -> ReferenceMel:
    """Pick another utterance of the speaker and crop a window from it."""
    others = sorted(uid for uid in pool if uid != target_id)
    if not others:
        raise ReferenceUnavailableError(
            f"speaker {speaker or '?'}: no utterance besides the target is available")
    pick = others[int(rng.integers(0, len(others)))]
    return ReferenceMel(crop_window(pool[pick], length, rng), pick, speaker)


# -- parameters ---------------------------------------------------------------


def init_params(store: nc.ParamStore, cfg: Config, rng: np.random.Generator | None) -> None:
    glorot, _ = nc.initializers(rng)
    d = cfg.model.d_model
    k = cfg.model.conv_kernel
    store.create("dur.ref.w", glorot(cfg.audio.n_mels, d))
    store.create("dur.ref.b", np.zeros(d))
    # small query init keeps early attention near-uniform, so the attended
    # output starts as a stable window average instead of arbitrary frames
    store.create("dur.query.w", 0.1 * glorot(d, d))
    # block0 takes [attended reference | text embeddings] side by side
    store.create("dur.block0.conv.w", glorot(k * 2 * d, d))
    store.create("dur.block0.conv.b", np.zeros(d))
    store.create("dur.block0.ln.gain", np.ones(d))
    store.create("dur.block0.ln.bias", np.zeros(d))
    store.create("dur.block1.conv.w", glorot(k * d, d))
    store.create("dur.block1.conv.b", np.zeros(d))
    store.create("dur.block1.ln.gain", np.ones(d))
    store.create("dur.block1.ln.bias", np.zeros(d))
    store.create("dur.head.w", glorot(d, 1))
    store.create("dur.head.b", np.zeros(1))


# -- forward -------------------------------------------------------------------


def cross_attend(store: nc.ParamStore, text_emb: nc.Tensor, ref: ReferenceMel,
                 cfg: Config) -> nc.Tensor:
    """Attend text queries over the projected reference frames.

    The reference serves as both keys and values after one learned linear
    projection to model width, in one attention head.  ``cfg`` is not read.
    """
    m = nc.Tensor(ref.mel.values.astype(store.dtype))
    proj = nc.linear(m, store["dur.ref.w"].tensor, store["dur.ref.b"].tensor)
    q = text_emb @ store["dur.query.w"].tensor
    return nc.scaled_dot_attention(q, proj, proj)


def predict_log_durations(store: nc.ParamStore, attended: nc.Tensor, text_emb: nc.Tensor,
                          cfg: Config) -> nc.Tensor:
    """Two conv+norm blocks over [A | E_t], then a linear head.

    The text embeddings ride along in separate channels so the head can
    weight phoneme identity and reference prosody independently.
    """
    k = cfg.model.conv_kernel
    x = nc.concat_cols(attended, text_emb)
    for i in range(2):
        b = f"dur.block{i}"
        x = nc.conv1d(x, store[f"{b}.conv.w"].tensor, store[f"{b}.conv.b"].tensor, kernel=k)
        x = nc.tanh(x)
        x = nc.layer_norm(x, store[f"{b}.ln.gain"].tensor, store[f"{b}.ln.bias"].tensor)
    return nc.linear(x, store["dur.head.w"].tensor, store["dur.head.b"].tensor)


def durations_to_frames(log_d: np.ndarray) -> DurationVector:
    """Frame counts: max(1, round(exp(log_d))), rounding half away from zero.

    Raises ValueError naming the first token whose log-duration is not
    finite, and DurationLimitError, naming the first token that takes the
    running total past MAX_FRAMES, when the counts add up to more than that.
    """
    log_d = np.asarray(log_d, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(log_d))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"token {i} of {log_d.size} has log-duration {log_d[i]}; "
                         "log-durations must be finite")
    with np.errstate(over="ignore"):
        raw = np.exp(log_d)
    rounded = np.maximum(np.floor(raw + 0.5), 1.0)  # raw > 0, so half away from zero == half up
    totals = np.cumsum(rounded)
    over = np.flatnonzero(totals > MAX_FRAMES)
    if over.size:
        i = int(over[0])
        raise DurationLimitError(
            f"token {i} ({rounded[i]:.4g} frames) brings the frame total to {totals[i]:.4g}, "
            f"over the limit of {MAX_FRAMES} frames")
    return DurationVector(rounded.astype(np.int64))


def duration_loss(log_d_pred: nc.Tensor, true_frames: np.ndarray) -> nc.Tensor:
    """Mean squared error in log-duration space."""
    true_frames = np.asarray(true_frames, dtype=np.float64)
    if np.any(true_frames <= 0):
        raise InvalidTargetError("zero-length duration target")
    target = np.log(true_frames).reshape(-1, 1).astype(log_d_pred.data.dtype)
    diff = log_d_pred - nc.Tensor(target)
    # sum times 1/n, as Tensor division does; ``mean`` would divide instead
    return (diff * diff).sum() / diff.data.size
