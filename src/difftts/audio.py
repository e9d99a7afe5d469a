"""Audio I/O, resampling, STFT/mel analysis, Griffin-Lim, corpus mel stats.

All analysis follows one AnalysisConfig (22.05 kHz, 1024-point FFT, hop 256,
80 mel bins by default).  Mel values are natural-log magnitudes floored at
log(1e-5).
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import wave
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

LOG_FLOOR = 1e-5
# the largest log-magnitude Griffin-Lim inverts: far above any mel of audio
# in [-1, 1], and far below where its float32 passes overflow (near 88)
LOG_CEILING = 20.0

# momentum alpha of the fast Griffin-Lim algorithm (Perraudin, Balazs &
# Soendergaard, "A fast Griffin-Lim algorithm", WASPAA 2013)
FGLA_MOMENTUM = 0.99

# half-width, in source samples, of resample's windowed-sinc kernel, and the
# output samples it computes per block (4096 x 64 float64 products: 2 MB)
RESAMPLE_TAPS = 32
RESAMPLE_BLOCK = 4096


class AudioFormatError(ValueError):
    """Unreadable or unsupported audio / stats file."""


class TooShortError(ValueError):
    """Input shorter than one FFT window."""


class ConfigMismatchError(ValueError):
    """Mel spectrograms analysed under different configs."""


@dataclass(frozen=True)
class AnalysisConfig:
    sample_rate: int = 22050
    n_fft: int = 1024
    hop_length: int = 256
    n_mels: int = 80
    fmin: ClassVar[float] = 0.0

    def __post_init__(self):
        for name in ("sample_rate", "n_fft", "hop_length", "n_mels"):
            if getattr(self, name) < 1:
                raise ValueError(f"audio.{name} must be positive, got {getattr(self, name)}")

    @property
    def fmax(self) -> float:
        """Top edge of the mel band: 8 kHz, capped at Nyquist."""
        return min(8000.0, self.sample_rate / 2)

    def fingerprint(self) -> bytes:
        # the band edges, once settings, stay hashed so older stats files still match
        names = [f.name for f in fields(self)] + ["fmin", "fmax"]
        text = "|".join(f"{name}={getattr(self, name)!r}" for name in names)
        return hashlib.sha256(text.encode("utf-8")).digest()


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise AudioFormatError("empty waveform")

    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class MelSpectrogram:
    values: np.ndarray  # frames x n_mels, natural-log magnitudes
    sample_rate: int
    hop_length: int
    n_mels: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("mel values must be frames x n_mels with frames >= 1")
        if self.values.shape[1] != self.n_mels:
            raise ValueError("n_mels does not match value columns")

    @property
    def frames(self) -> int:
        return self.values.shape[0]


@dataclass
class MelStats:
    mean_frame: np.ndarray  # (n_mels,)
    frame_count: int
    fingerprint: bytes

    def __post_init__(self):
        self.mean_frame = np.asarray(self.mean_frame, dtype=np.float64)
        if self.frame_count <= 0:
            raise ValueError("frame_count must be positive")


# -- WAV I/O --------------------------------------------------------------


def load_wav(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF/WAVE file, scaled to [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise AudioFormatError(f"{path}: only mono supported")
            if w.getsampwidth() != 2:
                raise AudioFormatError(f"{path}: only 16-bit PCM supported")
            if w.getcomptype() != "NONE":
                raise AudioFormatError(f"{path}: compressed WAV not supported")
            rate = w.getframerate()
            raw = w.readframes(w.getnframes())
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: malformed WAV ({exc or 'truncated header'})") from exc
    except RuntimeError as exc:  # wave's chunk reader, sent past the RIFF chunk's end
        raise AudioFormatError(f"{path}: malformed WAV (a chunk size runs past the file)") from exc
    except OSError as exc:
        raise AudioFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if rate <= 0:
        raise AudioFormatError(f"{path}: header sample rate {rate} is not positive")
    if not raw:
        raise AudioFormatError(f"{path}: empty data chunk")
    if len(raw) % 2:
        raise AudioFormatError(f"{path}: data chunk of {len(raw)} bytes ends mid-sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write ``w`` as 16-bit PCM mono, clipped to [-1, 1]; refuses NaN and inf."""
    finite = np.isfinite(w.samples)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}: sample {bad} of {w.samples.size} is not finite; "
                         "refusing to write it as 16-bit PCM")
    quant = np.rint(np.clip(w.samples, -1.0, 1.0) * 32768.0)
    quant = np.clip(quant, -32768, 32767).astype("<i2")
    # opened here, not by wave: a wave writer whose open failed raises from __del__
    with open(path, "wb") as f, wave.open(f, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(w.sample_rate)
        out.writeframes(quant.tobytes())


# -- resampling ------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Windowed-sinc resampling to target_rate, RESAMPLE_BLOCK outputs at a time;
    ``w`` itself when it is already at that rate."""
    if target_rate <= 0 or w.sample_rate <= 0:
        raise ValueError("rates must be positive")
    if target_rate == w.sample_rate:
        return w
    ratio = target_rate / w.sample_rate
    out_len = _round_half_up(w.samples.size * ratio)
    # cutoff relative to the source Nyquist; downsampling narrows it
    fc = min(1.0, ratio)
    taps = RESAMPLE_TAPS
    offsets = np.arange(-taps + 1, taps + 1)
    padded = np.concatenate([np.zeros(taps), w.samples, np.zeros(taps + 1)])
    out = np.empty(out_len)
    for lo in range(0, out_len, RESAMPLE_BLOCK):
        centers = np.arange(lo, min(lo + RESAMPLE_BLOCK, out_len)) / ratio
        idx = np.floor(centers).astype(np.int64)[:, None] + offsets[None, :]
        frac = idx - centers[:, None]
        window = 0.5 + 0.5 * np.cos(np.pi * np.clip(frac / taps, -1.0, 1.0))
        kernel = fc * np.sinc(fc * frac) * window
        out[lo:lo + centers.size] = (padded[idx + taps] * kernel).sum(axis=1)
    return Waveform(out, target_rate)


# -- STFT / mel -------------------------------------------------------------


def _window(cfg: AnalysisConfig) -> np.ndarray:
    # periodic Hann over the whole FFT frame
    n = cfg.n_fft
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, hop_length: int) -> int:
    return 1 + n_samples // hop_length


def _frames(samples: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """The centered, reflect-padded analysis frames: a read-only strided view.

    The frames keep the float dtype of ``samples``.
    """
    samples = np.asarray(samples)
    n_frames = frame_count(samples.size, cfg.hop_length)
    if samples.size < cfg.n_fft:  # reflect padding needs a full window
        samples = np.pad(samples, (0, cfg.n_fft - samples.size))
    half = cfg.n_fft // 2
    # an odd n_fft needs one more sample on the right for the last frame
    padded = np.pad(samples, (half, cfg.n_fft - half), mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[::cfg.hop_length][:n_frames]


def _stft_complex(samples: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Centered complex STFT."""
    return np.fft.rfft(_frames(samples, cfg) * _window(cfg)[None, :], axis=1)


def stft_magnitude(samples: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Centered STFT magnitudes, frames x (n_fft//2 + 1)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < cfg.n_fft:
        raise TooShortError(f"need at least {cfg.n_fft} samples, got {samples.size}")
    return np.abs(_stft_complex(samples, cfg))


def _overlap_add_rows(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum frames[i] into a signal at offset i * hop, one tap block at a time;
    the signal as rows of ``hop`` samples, zero past its end.

    Tap block r (taps r*hop up to (r+1)*hop) of every frame lands on a
    distinct row, so one vectorized add places it.  A sample's later frames
    reach it through earlier tap blocks; running the blocks from last to
    first therefore adds each sample's frames in increasing frame order, the
    order of a per-frame loop, and gives its exact sums.  The rows have the
    dtype of ``frames``.
    """
    n_frames, n = frames.shape
    blocks = -(-n // hop)  # ceil
    out = np.zeros((n_frames - 1 + blocks, hop), dtype=frames.dtype)
    for r in reversed(range(blocks)):
        lo = r * hop
        width = min(hop, n - lo)
        out[r:r + n_frames, :width] += frames[:, lo:lo + width]
    return out


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """The overlap-added signal of ``frames`` at offsets i * hop."""
    n_frames, n = frames.shape
    return _overlap_add_rows(frames, hop).reshape(-1)[:(n_frames - 1) * hop + n]


def _istft_norm(n_frames: int, cfg: AnalysisConfig, dtype) -> np.ndarray:
    """Overlap-added squares of ``_window(cfg)``, floored: the least-squares
    iSTFT divisor, summed in float64 and returned in ``dtype``.

    Row j of hop samples sums tap blocks j - i of frames i, so every row from
    ``blocks - 1`` to ``n_frames - 1`` holds all blocks in the same order and
    the same value.  Overlap-adding ``2 * blocks`` frames gives that interior
    row, the head before it and the tail after it, each exactly as the full
    sum has them; these rows are floored and cast, and the interior row is
    then repeated.
    """
    win = _window(cfg)
    hop = cfg.hop_length
    blocks = -(-win.size // hop)
    m = min(n_frames, 2 * blocks)
    rows = _overlap_add_rows(np.broadcast_to(win * win, (m, win.size)), hop)
    rows = np.maximum(rows, 1e-10, out=rows).astype(dtype, copy=False)
    if m < n_frames:
        interior = np.broadcast_to(rows[blocks - 1], (n_frames - blocks + 1, hop))
        rows = np.concatenate([rows[:blocks - 1], interior, rows[m:]])
    return rows.reshape(-1)[:(n_frames - 1) * hop + win.size]


def _istft_frames(frames: np.ndarray, cfg: AnalysisConfig, win: np.ndarray,
                  norm: np.ndarray) -> np.ndarray:
    """Least-squares inverse STFT (windowed overlap-add / window-square sum)
    of the inverse-FFT ``frames``, which it windows in place.

    ``win`` is ``_window(cfg)`` and ``norm`` is ``_istft_norm`` for this
    frame count; Griffin-Lim builds both once for all of its iterations.
    The audio has the dtype of ``frames``.
    """
    frames *= win
    out = _overlap_add(frames, cfg.hop_length)
    out /= norm
    total = out.size
    half = cfg.n_fft // 2
    end = max(total - half, half + cfg.hop_length)  # never return empty audio
    return out[half:end]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: AnalysisConfig) -> np.ndarray:
    """Triangular HTK-spaced filters, shape (n_mels, n_fft//2 + 1)."""
    points = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    freqs = np.linspace(0.0, cfg.sample_rate / 2.0, cfg.n_fft // 2 + 1)
    fb = np.zeros((cfg.n_mels, freqs.size))
    for i in range(cfg.n_mels):
        lo, mid, hi = points[i], points[i + 1], points[i + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


@functools.cache
def _mel_basis(cfg: AnalysisConfig) -> tuple[np.ndarray, np.ndarray]:
    """``mel_filterbank(cfg)`` and its pseudo-inverse, built once per config.

    Both arrays are shared by every caller, so they are read-only.
    """
    fb = mel_filterbank(cfg)
    inv = np.linalg.pinv(fb)
    fb.flags.writeable = False
    inv.flags.writeable = False
    return fb, inv


def wav_to_mel(w: Waveform, cfg: AnalysisConfig) -> MelSpectrogram:
    """Log-mel analysis at the config rate, resampling ``w`` to it first."""
    mag = stft_magnitude(resample(w, cfg.sample_rate).samples, cfg)
    mel = mag @ _mel_basis(cfg)[0].T
    values = np.log(np.maximum(mel, LOG_FLOOR))
    return MelSpectrogram(values, cfg.sample_rate, cfg.hop_length, cfg.n_mels)


# -- corpus statistics -------------------------------------------------------


def _check_mel_config(m: MelSpectrogram, cfg: AnalysisConfig) -> None:
    for field in ("sample_rate", "hop_length", "n_mels"):
        if getattr(m, field) != getattr(cfg, field):
            raise ConfigMismatchError(f"mel spectrogram {field} {getattr(m, field)} != "
                                      f"analysis config {field} {getattr(cfg, field)}")


def mean_mel(corpus: Sequence[MelSpectrogram], cfg: AnalysisConfig) -> MelStats:
    """Per-bin mean over every frame of every utterance.

    Cross-utterance accumulation uses exact summation, so the result is
    independent of corpus order.
    """
    if not corpus:
        raise ValueError("empty corpus")
    for m in corpus:
        _check_mel_config(m, cfg)
    n_mels = cfg.n_mels
    per_utt = [m.values.sum(axis=0) for m in corpus]
    totals = np.array([math.fsum(s[b] for s in per_utt) for b in range(n_mels)])
    frames = sum(m.frames for m in corpus)
    return MelStats(totals / frames, frames, cfg.fingerprint())


def broadcast_mean(stats: MelStats, frames: int, cfg: AnalysisConfig) -> MelSpectrogram:
    """Tile the mean frame over time; the unconditional decoder condition."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    values = np.tile(stats.mean_frame[None, :], (frames, 1))
    return MelSpectrogram(values, cfg.sample_rate, cfg.hop_length, stats.mean_frame.size)


def save_mel_stats(path, stats: MelStats) -> None:
    """Write a checkpoint container: frame count and hex config fingerprint as
    metadata, the mean frame as the float32 tensor ``mean``."""
    save_checkpoint(path, {"frame_count": stats.frame_count, "fingerprint": stats.fingerprint.hex()},
                    {"mean": stats.mean_frame})


def load_mel_stats(path) -> MelStats:
    """Read what ``save_mel_stats`` wrote; any fault is an AudioFormatError naming ``path``."""
    try:
        meta, tensors = load_checkpoint(path)
    except CheckpointError as exc:
        raise AudioFormatError(f"{exc}; rerun `difftts stats` to rewrite the mel stats") from exc
    if set(meta) != {"frame_count", "fingerprint"} or set(tensors) != {"mean"}:
        raise AudioFormatError(f"{path}: not a mel stats file (metadata keys {sorted(meta)})")
    count, fingerprint, mean = meta["frame_count"], meta["fingerprint"], tensors["mean"]
    if type(count) is not int or count < 1:
        raise AudioFormatError(f"{path}: frame_count {count!r} is not a positive integer")
    if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{64}", fingerprint)):
        raise AudioFormatError(f"{path}: fingerprint {fingerprint!r} is not 32 bytes in hex")
    if mean.ndim != 1 or mean.size == 0:
        raise AudioFormatError(f"{path}: mean has shape {mean.shape}, not a non-empty vector")
    if not np.isfinite(mean).all():
        raise AudioFormatError(f"{path}: non-finite mean values")
    return MelStats(mean.astype(np.float64), count, bytes.fromhex(fingerprint))


# -- Griffin-Lim ---------------------------------------------------------------


def _mel_to_linear_magnitude(m: MelSpectrogram, cfg: AnalysisConfig) -> np.ndarray:
    return np.maximum(np.exp(m.values) @ _mel_basis(cfg)[1].T, 0.0)


def _initial_phase(target: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Phase angles integrated over frames from ``target``'s own magnitude,
    wrapped to [0, 2 pi) and rounded once to float32.

    This is the time direction of phase-gradient heap integration (Prusa,
    Balazs & Soendergaard, IEEE/ACM TASLP 2017).  Bin k's frequency in frame
    n, in radians per sample, is its centre 2 pi k / n_fft plus the slope of
    log |S| over frequency divided by the time variance of the Gaussian that
    matches the Hann window, 0.25645 n_fft^2 / (2 pi).  The slope is a central
    difference over bins, zero at DC and Nyquist, where the spectrum is even;
    magnitudes are floored at LOG_FLOOR first, so a silent bin has a finite
    log.  Frame 0 has phase 0, and frame n + 1 adds hop times the mean
    frequency of frames n and n + 1.  The sums run in float64 and in turns,
    which reach thousands, and only their fractional part is rounded to
    float32: float32 cos and sin are slow and inexact far from zero.
    """
    n = cfg.n_fft
    sigma2 = 0.25645 * n * n / (2.0 * np.pi)
    log_mag = np.log(np.maximum(target, LOG_FLOOR))
    half_step = np.empty_like(log_mag)
    np.subtract(log_mag[:, 2:], log_mag[:, :-2], out=half_step[:, 1:-1])
    half_step[:, 0] = half_step[:, -1] = 0.0
    del log_mag
    # half a hop's advance in turns, hop / (4 pi) times the frequency; the
    # difference spans two bins of 2 pi / n
    half_step *= cfg.hop_length / (4.0 * np.pi) * n / (4.0 * np.pi * sigma2)
    half_step += cfg.hop_length / (2.0 * n) * np.arange(half_step.shape[1])
    turns = np.empty_like(half_step)
    turns[0] = 0.0
    np.add(half_step[:-1], half_step[1:], out=turns[1:])
    np.cumsum(turns, axis=0, out=turns)
    turns -= np.floor(turns, out=half_step)
    return np.multiply(turns, 2.0 * np.pi, out=np.empty(turns.shape, dtype=np.float32))


def _gl_iterate(target: np.ndarray, cfg: AnalysisConfig, iterations: int) -> np.ndarray:
    """Fast Griffin-Lim: ``iterations`` inverse STFTs from ``_initial_phase``.

    Each pass takes ``proj``, the STFT of the current signal, extrapolates
    it to ``proj + FGLA_MOMENTUM * (proj - prev)`` (``prev`` is the last
    pass's ``proj``, zero on the first) and sets that spectrum's magnitude to
    ``target`` before inverting it.

    The passes run in float32 and complex64, the precision of the model's
    mel: ``target``, the window and the normaliser are cast once per call,
    and the result is float32.  The initial phase is computed before any
    pass buffer exists, so its float64 temporaries never coexist with them.
    Every FFT writes into a buffer allocated here: ``rfft`` into ``proj``,
    which swaps with ``prev`` each pass, and ``irfft`` into the one frame
    buffer.

    Both FFTs are orthonormal, so ``target`` is scaled by ``1/sqrt(n_fft)``.
    With the default norm, ``rfft`` passes numpy a Python int scale, which
    selects its float64 loop: float32 frames would be cast up, transformed
    in float64 and cast back down.
    """
    n_frames = target.shape[0]
    mag = _initial_phase(target, cfg)  # the angles, until the passes reuse the buffer
    win = _window(cfg).astype(np.float32)
    norm = _istft_norm(n_frames, cfg, np.float32)
    target = (target / math.sqrt(cfg.n_fft)).astype(np.float32)
    frames = np.empty((n_frames, cfg.n_fft), dtype=np.float32)
    spec = np.empty(target.shape, dtype=np.complex64)
    proj = np.empty_like(spec)
    prev = np.zeros_like(spec)
    np.cos(mag, out=spec.real)
    np.sin(mag, out=spec.imag)
    spec *= target
    np.fft.irfft(spec, n=cfg.n_fft, axis=1, norm="ortho", out=frames)
    x = _istft_frames(frames, cfg, win, norm)
    for _ in range(iterations - 1):
        np.multiply(_frames(x, cfg)[:n_frames], win, out=frames)
        np.fft.rfft(frames, axis=1, norm="ortho", out=proj)
        np.subtract(proj, prev, out=spec)
        spec *= FGLA_MOMENTUM
        spec += proj
        proj, prev = prev, proj
        np.maximum(np.abs(spec, out=mag), 1e-12, out=mag)
        spec *= np.divide(target, mag, out=mag)
        np.fft.irfft(spec, n=cfg.n_fft, axis=1, norm="ortho", out=frames)
        x = _istft_frames(frames, cfg, win, norm)
    return x


def griffin_lim(m: MelSpectrogram, cfg: AnalysisConfig, iterations: int = 12) -> Waveform:
    """Invert a log-mel spectrogram by mel pseudo-inverse + phase recovery."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_mel_config(m, cfg)
    ok = np.isfinite(m.values) & (m.values <= LOG_CEILING)
    if not ok.all():
        bad = int(np.argmin(ok.all(axis=1)))
        value = m.values[bad][~ok[bad]][0]
        raise ValueError(f"mel frame {bad} of {m.frames} holds {value}; Griffin-Lim needs "
                         f"finite log-magnitudes no larger than {LOG_CEILING}")
    # no reference to the float64 magnitudes outlives _gl_iterate's cast
    x = _gl_iterate(_mel_to_linear_magnitude(m, cfg), cfg, iterations)
    peak = np.abs(x).max()
    if peak > 1.0:
        x = x / peak
    return Waveform(x, cfg.sample_rate)

