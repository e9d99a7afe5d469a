import dataclasses
import inspect
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import audio, checkpoint, toydata


CFG = audio.AnalysisConfig()
SMALL = audio.AnalysisConfig(sample_rate=22050, n_fft=512, hop_length=128, n_mels=20,
                             fmax=8000.0)


def sine(freq, seconds, rate, amp=0.5):
    n = int(seconds * rate)
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


def dominant_dft_hz(samples, rate):
    spec = np.abs(np.fft.rfft(samples * np.hanning(samples.size)))
    return np.argmax(spec) * rate / samples.size


# -- wav io -------------------------------------------------------------------

def test_load_wav_all_zero(tmp_path):
    p = tmp_path / "z.wav"
    audio.write_wav(p, audio.Waveform(np.zeros(1000), 22050))
    w = audio.load_wav(p)
    assert np.all(w.samples == 0.0)


def test_wav_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.99, 0.99, 4000)
    p = tmp_path / "r.wav"
    audio.write_wav(p, audio.Waveform(x, 22050))
    back = audio.load_wav(p)
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0


def test_load_wav_reads_header_rate(tmp_path):
    p = tmp_path / "s.wav"
    audio.write_wav(p, audio.Waveform(np.zeros(100), 16000))
    assert audio.load_wav(p).sample_rate == 16000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_refuses_non_finite_samples(tmp_path, bad):
    samples = np.zeros(100)
    samples[37] = bad
    p = tmp_path / "nan.wav"
    with pytest.raises(ValueError, match="sample 37 of 100"):
        audio.write_wav(p, audio.Waveform(samples, 22050))
    assert not p.exists()


def test_load_wav_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"not a riff file at all")
    with pytest.raises(audio.AudioFormatError):
        audio.load_wav(p)


def test_load_wav_rejects_stereo(tmp_path):
    import wave
    p = tmp_path / "st.wav"
    with wave.open(str(p), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(22050)
        f.writeframes(b"\x00" * 400)
    with pytest.raises(audio.AudioFormatError):
        audio.load_wav(p)


def test_load_wav_names_a_data_chunk_cut_mid_sample(tmp_path):
    p = tmp_path / "cut.wav"
    audio.write_wav(p, audio.Waveform(np.zeros(100), 22050))
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(audio.AudioFormatError, match="cut.wav: data chunk of 199 bytes"):
        audio.load_wav(p)


def test_load_wav_names_an_empty_data_chunk(tmp_path):
    import wave
    p = tmp_path / "empty.wav"
    with wave.open(str(p), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(22050)
    with pytest.raises(audio.AudioFormatError, match="empty.wav: empty data chunk"):
        audio.load_wav(p)


def test_load_wav_names_a_zero_header_rate(tmp_path):
    p = tmp_path / "rate0.wav"
    audio.write_wav(p, audio.Waveform(np.zeros(100), 22050))
    raw = bytearray(p.read_bytes())
    raw[24:28] = bytes(4)  # the fmt chunk's sample rate field
    p.write_bytes(bytes(raw))
    with pytest.raises(audio.AudioFormatError, match="rate0.wav: header sample rate 0"):
        audio.load_wav(p)


# -- resample -----------------------------------------------------------------

def resample_one_shot(w, target_rate, taps=32):
    # every output sample's kernel and sum in one (out_len, 2 * taps) pass
    ratio = target_rate / w.sample_rate
    out_len = int(np.floor(w.samples.size * ratio + 0.5))
    fc = min(1.0, ratio)
    centers = np.arange(out_len) / ratio
    idx = np.floor(centers).astype(np.int64)[:, None] + np.arange(-taps + 1, taps + 1)[None, :]
    frac = idx - centers[:, None]
    kernel = fc * np.sinc(fc * frac) * (0.5 + 0.5 * np.cos(np.pi * np.clip(frac / taps, -1.0, 1.0)))
    padded = np.concatenate([np.zeros(taps), w.samples, np.zeros(taps + 1)])
    return (padded[idx + taps] * kernel).sum(axis=1)


@pytest.mark.parametrize("source, target", [(8000, 22050), (16000, 22050), (44100, 22050),
                                            (22050, 16000)])
def test_resample_blocks_equal_the_one_shot_formula(source, target):
    # 1.3 s spans several output blocks and ends inside one
    samples = np.random.default_rng(source).uniform(-1.0, 1.0, int(1.3 * source))
    w = audio.Waveform(samples, source)
    assert np.array_equal(audio.resample(w, target).samples, resample_one_shot(w, target))


def test_resample_memory_does_not_grow_with_length():
    import tracemalloc
    w = audio.Waveform(np.random.default_rng(0).uniform(-1.0, 1.0, 10 * 16000), 16000)
    tracemalloc.start()
    try:
        audio.resample(w, 22050)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_resample_same_rate_identity():
    w = audio.Waveform(sine(440, 0.1, 16000), 16000)
    out = audio.resample(w, 16000)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_resample_length_formula():
    w = audio.Waveform(sine(440, 1.0, 16000), 16000)
    assert audio.resample(w, 22050).samples.size == 22050


def test_resample_preserves_tone():
    w = audio.Waveform(sine(440, 1.0, 16000), 16000)
    out = audio.resample(w, 22050)
    got = dominant_dft_hz(out.samples, 22050)
    bin_hz = 22050 / out.samples.size
    assert abs(got - 440.0) <= bin_hz + 1e-9


def test_resample_downsamples_too():
    w = audio.Waveform(sine(440, 1.0, 22050), 22050)
    out = audio.resample(w, 16000)
    got = dominant_dft_hz(out.samples, 16000)
    assert abs(got - 440.0) <= 16000 / out.samples.size + 1e-9


# -- mel analysis -------------------------------------------------------------

def test_mel_of_silence_is_floor():
    w = audio.Waveform(np.zeros(22050), 22050)
    m = audio.wav_to_mel(w, CFG)
    np.testing.assert_allclose(m.values, np.log(audio.LOG_FLOOR))


@pytest.mark.parametrize("n_fft", [1023, 1024])
@pytest.mark.parametrize("n", [4096, 4097])
def test_stft_frame_count_odd_and_even_fft(n_fft, n):
    cfg = audio.AnalysisConfig(n_fft=n_fft)
    mag = audio.stft_magnitude(np.random.default_rng(n).standard_normal(n), cfg)
    assert mag.shape == (audio.frame_count(n, cfg.hop_length), n_fft // 2 + 1)


def test_frame_count_one_second():
    w = audio.Waveform(sine(440, 1.0, 22050), 22050)
    m = audio.wav_to_mel(w, CFG)
    assert m.frames == 1 + 22050 // 256 == 87


@given(st.integers(1024, 40000))
@settings(max_examples=30, deadline=None)
def test_frame_count_formula_any_length(n):
    w = audio.Waveform(np.random.default_rng(n).uniform(-0.1, 0.1, n), 22050)
    assert audio.wav_to_mel(w, CFG).frames == 1 + n // 256


def test_mel_too_short():
    w = audio.Waveform(np.zeros(500), 22050)
    with pytest.raises(audio.TooShortError):
        audio.wav_to_mel(w, CFG)


def test_mel_rate_mismatch():
    w = audio.Waveform(np.zeros(22050), 16000)
    with pytest.raises(audio.ConfigMismatchError):
        audio.wav_to_mel(w, CFG)


def test_sine_hits_nearest_mel_filter():
    w = audio.Waveform(sine(440, 1.0, 22050), 22050)
    m = audio.wav_to_mel(w, CFG)
    mean_over_time = m.values.mean(axis=0)
    # filter i peaks at the (i+1)-th of n_mels + 2 mel-spaced edge frequencies
    edges = audio.mel_to_hz(np.linspace(audio.hz_to_mel(CFG.fmin),
                                        audio.hz_to_mel(CFG.fmax), CFG.n_mels + 2))
    centers = edges[1:-1]
    expected_bin = int(np.argmin(np.abs(centers - 440.0)))
    assert abs(int(np.argmax(mean_over_time)) - expected_bin) <= 1


def test_filterbank_nonnegative_and_covering():
    fb = audio.mel_filterbank(CFG)
    assert np.all(fb >= 0.0)
    freqs = np.linspace(0.0, CFG.sample_rate / 2.0, CFG.n_fft // 2 + 1)
    edges = audio.mel_to_hz(np.linspace(audio.hz_to_mel(CFG.fmin),
                                        audio.hz_to_mel(CFG.fmax), CFG.n_mels + 2))
    inside = (freqs > edges[0] + 1e-9) & (freqs < edges[-1] - 1e-9)
    covered = fb.sum(axis=0) > 0.0
    # every FFT bin strictly between fmin and fmax feeds at least one filter
    assert np.all(covered[inside])


# -- corpus stats -------------------------------------------------------------

def mel_of(values):
    return audio.MelSpectrogram(np.asarray(values, dtype=float), CFG.sample_rate,
                                CFG.hop_length, np.asarray(values).shape[1])


def test_mean_mel_single_utterance():
    vals = np.random.default_rng(1).standard_normal((7, 80))
    stats = audio.mean_mel([mel_of(vals)], CFG)
    np.testing.assert_allclose(stats.mean_frame, vals.mean(axis=0), atol=1e-12)
    assert stats.frame_count == 7


def test_mean_mel_idempotent_duplicates():
    vals = np.random.default_rng(2).standard_normal((5, 80))
    one = audio.mean_mel([mel_of(vals)], CFG)
    two = audio.mean_mel([mel_of(vals), mel_of(vals)], CFG)
    np.testing.assert_allclose(one.mean_frame, two.mean_frame, atol=1e-12)


def test_mean_mel_arithmetic():
    a = mel_of(np.zeros((1, 80)))
    b = mel_of(2.0 * np.ones((1, 80)))
    stats = audio.mean_mel([a, b], CFG)
    np.testing.assert_array_equal(stats.mean_frame, np.ones(80))


def test_mean_mel_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    mels = [mel_of(rng.standard_normal((rng.integers(1, 9), 80))) for _ in range(6)]
    fwd = audio.mean_mel(mels, CFG)
    rev = audio.mean_mel(mels[::-1], CFG)
    assert np.array_equal(fwd.mean_frame, rev.mean_frame)


def test_fingerprint_bytes_are_stable():
    # every stats file on disk holds this fingerprint; new bytes would refuse them all
    assert CFG.fingerprint().hex().startswith("ab3a71339f375114")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(audio.AnalysisConfig)])
def test_fingerprint_covers_every_analysis_field(name):
    moved = dataclasses.replace(CFG, **{name: getattr(CFG, name) + 1})
    assert moved.fingerprint() != CFG.fingerprint()


def test_mean_mel_config_mismatch():
    bad = audio.MelSpectrogram(np.zeros((2, 40)), CFG.sample_rate, CFG.hop_length, 40)
    with pytest.raises(audio.ConfigMismatchError):
        audio.mean_mel([bad], CFG)


def test_broadcast_mean():
    stats = audio.MelStats(np.arange(80.0), 10, CFG.fingerprint())
    one = audio.broadcast_mean(stats, 1, CFG)
    assert one.values.shape == (1, 80)
    ten = audio.broadcast_mean(stats, 10, CFG)
    assert ten.values.shape == (10, 80)
    np.testing.assert_array_equal(ten.values - stats.mean_frame[None, :], np.zeros((10, 80)))
    # the frames carry the config's rate and hop, not the 22.05 kHz / 256 defaults
    toy = audio.broadcast_mean(stats, 3, dataclasses.replace(CFG, hop_length=512))
    assert (toy.sample_rate, toy.hop_length) == (22050, 512)


def test_mel_stats_file_round_trip(tmp_path):
    stats = audio.MelStats(np.random.default_rng(4).standard_normal(80), 123, CFG.fingerprint())
    p = tmp_path / "stats.bin"
    audio.save_mel_stats(p, stats)
    back = audio.load_mel_stats(p)
    assert back.frame_count == 123
    assert back.fingerprint == stats.fingerprint
    np.testing.assert_allclose(back.mean_frame, stats.mean_frame, atol=1e-6)


def test_mel_stats_rerun_byte_identical(tmp_path):
    stats = audio.MelStats(np.random.default_rng(5).standard_normal(80), 9, CFG.fingerprint())
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    audio.save_mel_stats(p1, stats)
    audio.save_mel_stats(p2, stats)
    assert p1.read_bytes() == p2.read_bytes()


def test_mel_stats_unreadable_file_names_the_file(tmp_path):
    with pytest.raises(audio.AudioFormatError, match="absent.bin"):
        audio.load_mel_stats(tmp_path / "absent.bin")


# Each content test below writes a well-formed container, so the CRC passes
# and only the stats reader's own checks can refuse it.

def save_stats_container(path, mean=np.zeros(80), **meta):
    checkpoint.save_checkpoint(path, {"frame_count": 1, "fingerprint": CFG.fingerprint().hex()}
                               | meta, {"mean": mean})
    return path


def test_mel_stats_zero_frame_count_names_the_file(tmp_path):
    with pytest.raises(audio.AudioFormatError, match=r"zero\.bin: frame_count 0 "):
        audio.load_mel_stats(save_stats_container(tmp_path / "zero.bin", frame_count=0))


@pytest.mark.parametrize("count", [-1, 1.0, 1.5, "1", True, None, [1]],
                         ids=["negative", "float", "fraction", "string", "bool", "null", "list"])
def test_mel_stats_count_that_is_not_a_positive_integer_names_the_file(tmp_path, count):
    with pytest.raises(audio.AudioFormatError, match=r"count\.bin: frame_count "):
        audio.load_mel_stats(save_stats_container(tmp_path / "count.bin", frame_count=count))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mel_stats_non_finite_mean_names_the_file(tmp_path, bad):
    mean = np.zeros(80)
    mean[3] = bad
    with pytest.raises(audio.AudioFormatError, match=r"nan\.bin: non-finite"):
        audio.load_mel_stats(save_stats_container(tmp_path / "nan.bin", mean))


@pytest.mark.parametrize("size", [12, 30, 100, 375, 377])
def test_mel_stats_rejects_wrong_length(tmp_path, size):
    # the config fingerprint is the one field of fixed length: a 32-byte SHA-256
    fingerprint = bytes(range(256)) * 2
    p = save_stats_container(tmp_path / "length.bin", fingerprint=fingerprint[:size].hex())
    with pytest.raises(audio.AudioFormatError, match=r"length\.bin: fingerprint "):
        audio.load_mel_stats(p)


@pytest.mark.parametrize("fingerprint", [None, 32, "", "g" * 64, "AB" * 32, " " + "ab" * 32],
                         ids=["null", "integer", "empty", "not-hex", "upper-case", "space"])
def test_mel_stats_fingerprint_that_is_not_hex_names_the_file(tmp_path, fingerprint):
    p = save_stats_container(tmp_path / "hex.bin", fingerprint=fingerprint)
    with pytest.raises(audio.AudioFormatError, match=r"hex\.bin: fingerprint "):
        audio.load_mel_stats(p)


@pytest.mark.parametrize("shape", [(0,), (1, 80), (80, 1), (2, 2, 20)],
                         ids=["empty", "row", "column", "3-d"])
def test_mel_stats_mean_that_is_not_a_vector_names_the_file(tmp_path, shape):
    p = save_stats_container(tmp_path / "shape.bin", np.zeros(shape))
    with pytest.raises(audio.AudioFormatError, match=r"shape\.bin: mean has shape "):
        audio.load_mel_stats(p)


def test_mel_stats_missing_or_extra_fields_name_the_file(tmp_path):
    fields = {"frame_count": 1, "fingerprint": CFG.fingerprint().hex()}
    cases = [({"frame_count": 1}, {"mean": np.zeros(80)}),
             (fields, {}),
             (fields | {"melstats": ""}, {"mean": np.zeros(80)}),
             (fields, {"mean": np.zeros(80), "std": np.ones(80)})]
    for i, (meta, tensors) in enumerate(cases):
        p = tmp_path / f"fields{i}.bin"
        checkpoint.save_checkpoint(p, meta, tensors)
        with pytest.raises(audio.AudioFormatError, match=rf"fields{i}\.bin: not a mel stats file"):
            audio.load_mel_stats(p)


def test_mel_stats_in_the_old_melstats_format_are_refused(tmp_path):
    # the former layout: magic, u32 version 1, u32 n_mels, u64 frame count,
    # 32-byte fingerprint, float32 means
    p = tmp_path / "old.bin"
    p.write_bytes(b"MELSTATS" + struct.pack("<IIQ", 1, 80, 1) + CFG.fingerprint()
                  + np.zeros(80, dtype="<f4").tobytes())
    with pytest.raises(audio.AudioFormatError, match=r"old\.bin: .*rerun `difftts stats`"):
        audio.load_mel_stats(p)


def test_mel_stats_write_replaces_the_file_atomically(tmp_path, monkeypatch):
    p = tmp_path / "stats.bin"
    audio.save_mel_stats(p, audio.MelStats(np.zeros(80), 1, CFG.fingerprint()))
    before = p.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError):
        audio.save_mel_stats(p, audio.MelStats(np.ones(80), 2, CFG.fingerprint()))
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]


@pytest.fixture(scope="module")
def stats_blob(tmp_path_factory):
    p = tmp_path_factory.mktemp("melstats") / "stats80.bin"
    mean = np.random.default_rng(6).standard_normal(80)
    audio.save_mel_stats(p, audio.MelStats(mean, 12345, CFG.fingerprint()))
    return p.read_bytes()


def _load_stats_bytes(path, blob):
    path.write_bytes(blob)
    return audio.load_mel_stats(path)


def test_mel_stats_every_truncation_is_rejected(stats_blob, tmp_path):
    p = tmp_path / "cut.bin"
    for n in range(len(stats_blob)):
        with pytest.raises(audio.AudioFormatError):
            _load_stats_bytes(p, stats_blob[:n])


@settings(max_examples=100, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_mel_stats_appended_bytes_are_rejected(stats_blob, tmp_path_factory, extra):
    with pytest.raises(audio.AudioFormatError):
        _load_stats_bytes(tmp_path_factory.getbasetemp() / "long.bin", stats_blob + extra)


def test_mel_stats_single_byte_change_raises_typed(stats_blob, tmp_path):
    # every single-bit flip, and the all-bits flip, at every byte of an 80-bin file
    p = tmp_path / "flipped.bin"
    for pos in range(len(stats_blob)):
        for xor in (1, 2, 4, 8, 16, 32, 64, 128, 255):
            blob = bytearray(stats_blob)
            blob[pos] ^= xor
            with pytest.raises(audio.AudioFormatError):
                _load_stats_bytes(p, bytes(blob))


# -- griffin-lim ---------------------------------------------------------------

def test_griffin_lim_recovers_tone():
    # the mel bottleneck quantizes frequency to the analysis FFT grid, so the
    # +-1 bin check lives at n_fft resolution
    w = audio.Waveform(sine(440, 1.0, 22050), 22050)
    m = audio.wav_to_mel(w, CFG)
    out = audio.griffin_lim(m, CFG, iterations=24)
    spec = audio.stft_magnitude(out.samples, CFG).mean(axis=0)
    got = np.argmax(spec) * CFG.sample_rate / CFG.n_fft
    assert abs(got - 440.0) <= CFG.sample_rate / CFG.n_fft + 1e-9


def test_griffin_lim_floor_mel_is_silent():
    m = audio.MelSpectrogram(np.full((40, 80), np.log(audio.LOG_FLOOR)),
                             CFG.sample_rate, CFG.hop_length, 80)
    out = audio.griffin_lim(m, CFG, iterations=4)
    assert np.sqrt(np.mean(out.samples ** 2)) < 1e-3


def griffin_lim_error(m, cfg, iterations):
    """Magnitude reconstruction error after the given iteration count."""
    target = audio._mel_to_linear_magnitude(m, cfg)
    x = audio._gl_iterate(target, cfg, iterations)
    got = np.abs(audio._stft_complex(x, cfg))[:target.shape[0]]
    return float(np.linalg.norm(got - target))


def test_griffin_lim_error_monotone_in_iterations():
    w = audio.Waveform(sine(523, 0.5, 22050), 22050)
    m = audio.wav_to_mel(w, CFG)
    e1 = griffin_lim_error(m, CFG, iterations=8)
    e2 = griffin_lim_error(m, CFG, iterations=16)
    assert e2 <= e1 + 1e-9


def plain_griffin_lim(target, cfg, iterations, seed):
    """Griffin-Lim without momentum: the reference fast Griffin-Lim must beat."""
    n_frames = target.shape[0]
    win = audio._window(cfg)
    norm = audio._istft_norm(n_frames, win, cfg)
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random(target.shape))
    x = istft_reference(target * phase, cfg, win, norm)
    for _ in range(iterations - 1):
        spec = audio._stft_complex(x, cfg)[:n_frames]
        phase = spec / np.maximum(np.abs(spec), 1e-12)
        x = istft_reference(target * phase, cfg, win, norm)
    return x


def spectral_convergence(x, target, cfg):
    got = np.abs(audio._stft_complex(x, cfg))[:target.shape[0]]
    return float(np.linalg.norm(got - target) / np.linalg.norm(target))


@pytest.mark.parametrize("seconds", [2, 4, 6])
def test_fast_griffin_lim_beats_plain_at_twice_the_iterations(seconds):
    voice = toydata.default_voices(2)[1]
    text = toydata.random_text(np.random.default_rng(seconds), seconds, voice.tempo)
    w = audio.Waveform(toydata.render_text(voice, text, CFG.sample_rate), CFG.sample_rate)
    target = audio._mel_to_linear_magnitude(audio.wav_to_mel(w, CFG), CFG)
    default = inspect.signature(audio.griffin_lim).parameters["iterations"].default
    fast = spectral_convergence(audio._gl_iterate(target, CFG, default), target, CFG)
    plain = spectral_convergence(plain_griffin_lim(target, CFG, 32, 0), target, CFG)
    assert fast <= plain


def stft_reference(samples, cfg, win, fft_norm="backward"):
    # the allocating STFT the Griffin-Lim buffers must reproduce
    n_frames = audio.frame_count(samples.size, cfg.hop_length)
    if samples.size < cfg.n_fft:
        samples = np.pad(samples, (0, cfg.n_fft - samples.size))
    half = cfg.n_fft // 2
    padded = np.pad(samples, (half, cfg.n_fft - half), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[::cfg.hop_length][:n_frames]
    return np.fft.rfft(frames * win[None, :], axis=1, norm=fft_norm)


def istft_reference(spec, cfg, win, norm, fft_norm="backward"):
    frames = np.fft.irfft(spec, n=cfg.n_fft, axis=1, norm=fft_norm) * win[None, :]
    out = audio._overlap_add(frames, cfg.hop_length) / norm
    half = cfg.n_fft // 2
    return out[half:max(out.size - half, half + cfg.hop_length)]


def random_angle(shape, seed):
    # the uniformly random initial phase fast Griffin-Lim once started from
    return (2 * np.pi * np.random.default_rng(seed).random(shape)).astype(np.float32)


def gl_iterate_float64(target, cfg, iterations, angle):
    # fast Griffin-Lim in float64 and complex128, the precision it had
    # before it ran at the model's float32, from the initial angles ``angle``
    n_frames = target.shape[0]
    win = audio._window(cfg)
    norm = audio._istft_norm(n_frames, win, cfg)
    spec = target * np.exp(1j * angle.astype(np.float64))
    x = istft_reference(spec, cfg, win, norm)
    prev = np.zeros_like(spec)
    for _ in range(iterations - 1):
        proj = stft_reference(x, cfg, win)[:n_frames]
        np.subtract(proj, prev, out=spec)
        spec *= audio.FGLA_MOMENTUM
        spec += proj
        prev = proj
        spec *= target / np.maximum(np.abs(spec), 1e-12)
        x = istft_reference(spec, cfg, win, norm)
    return x


def gl_iterate_reference(target, cfg, iterations, angle):
    # fast Griffin-Lim in float32 and complex64 from the float32 initial
    # angles ``angle``, written with a fresh array for every intermediate;
    # its FFTs are orthonormal, so the target is scaled by 1/sqrt(n_fft)
    n_frames = target.shape[0]
    win = audio._window(cfg)
    norm = audio._istft_norm(n_frames, win, cfg).astype(np.float32)
    win = win.astype(np.float32)
    target = (target / np.sqrt(cfg.n_fft)).astype(np.float32)
    spec = target * (np.cos(angle) + 1j * np.sin(angle))
    x = istft_reference(spec, cfg, win, norm, "ortho")
    prev = np.zeros_like(spec)
    for _ in range(iterations - 1):
        proj = stft_reference(x, cfg, win, "ortho")[:n_frames]
        spec = proj + audio.FGLA_MOMENTUM * (proj - prev)
        prev = proj
        spec = spec * (target / np.maximum(np.abs(spec), 1e-12))
        x = istft_reference(spec, cfg, win, norm, "ortho")
    return x


@pytest.mark.parametrize("hop", [256, 512])
@pytest.mark.parametrize("n_frames", [1, 2, 3, 5, 9, 189])
def test_gl_iterate_bit_identical_to_allocating_loop(hop, n_frames):
    cfg = audio.AnalysisConfig(hop_length=hop)
    target = np.abs(np.random.default_rng(hop + n_frames).standard_normal((n_frames, 513)))
    angle = audio._initial_phase(target, cfg)
    for iterations in (1, 2, 16):
        got = audio._gl_iterate(target, cfg, iterations)
        want = gl_iterate_reference(target, cfg, iterations, angle)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def toy_target(seconds, cfg, voice=1):
    voice = toydata.default_voices(4)[voice]
    text = toydata.random_text(np.random.default_rng(seconds), seconds, voice.tempo)
    w = audio.Waveform(toydata.render_text(voice, text, cfg.sample_rate), cfg.sample_rate)
    return audio._mel_to_linear_magnitude(audio.wav_to_mel(w, cfg), cfg)


@pytest.mark.parametrize("hop", [256, 512])
@pytest.mark.parametrize("seconds", [2, 4, 6])
def test_gl_iterate_float32_matches_float64_loop(hop, seconds):
    cfg = audio.AnalysisConfig(hop_length=hop)
    target = toy_target(seconds, cfg)
    iterations = inspect.signature(audio.griffin_lim).parameters["iterations"].default
    got = audio._gl_iterate(target, cfg, iterations)
    want = gl_iterate_float64(target, cfg, iterations, audio._initial_phase(target, cfg))
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert abs(spectral_convergence(got, target, cfg)
               - spectral_convergence(want, target, cfg)) <= 1e-4
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def initial_phase_reference(target, cfg):
    # bin centre plus log-magnitude slope over the Gaussian time variance of
    # the Hann window, integrated frame by frame in radians
    n = cfg.n_fft
    sigma2 = 0.25645 * n * n / (2 * np.pi)
    log_mag = np.log(np.maximum(target, audio.LOG_FLOOR))
    slope = np.zeros_like(log_mag)
    slope[:, 1:-1] = (log_mag[:, 2:] - log_mag[:, :-2]) / (2 * 2 * np.pi / n)
    omega = 2 * np.pi * np.arange(target.shape[1]) / n + slope / sigma2
    phase = np.zeros_like(omega)
    for i in range(1, len(phase)):
        phase[i] = phase[i - 1] + cfg.hop_length * 0.5 * (omega[i - 1] + omega[i])
    return phase


@pytest.mark.parametrize("hop", [256, 512])
@pytest.mark.parametrize("n_frames", [1, 2, 189])
def test_initial_phase_matches_frame_by_frame_integration(hop, n_frames):
    cfg = audio.AnalysisConfig(hop_length=hop)
    target = toy_target(2, cfg)[:n_frames]
    got = audio._initial_phase(target, cfg)
    want = initial_phase_reference(target, cfg)
    assert got.dtype == np.float32 and got.shape == target.shape
    assert got.min() >= 0 and got.max() <= np.float32(2 * np.pi)
    assert np.abs(np.angle(np.exp(1j * (got - want)))).max() <= 1e-6


@pytest.mark.parametrize("hop", [256, 512])
@pytest.mark.parametrize("voice, seconds", [(1, 2), (1, 4), (1, 6), (0, 4), (2, 4), (3, 4)])
def test_default_iterations_from_the_integrated_phase_match_16_from_a_random_one(
        hop, voice, seconds):
    cfg = audio.AnalysisConfig(hop_length=hop)
    target = toy_target(seconds, cfg, voice)
    default = inspect.signature(audio.griffin_lim).parameters["iterations"].default
    got = spectral_convergence(audio._gl_iterate(target, cfg, default), target, cfg)
    random16 = gl_iterate_reference(target, cfg, 16, random_angle(target.shape, 0))
    assert got <= spectral_convergence(random16, target, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [
    np.random.default_rng(1).uniform(-8.0, 0.0, (1, 80)),
    np.random.default_rng(2).uniform(-8.0, 0.0, (2, 80)),
    np.full((40, 80), np.log(audio.LOG_FLOOR)),
], ids=["one-frame", "two-frames", "all-floor"])
def test_griffin_lim_edge_mels_give_finite_audio_without_warnings(values):
    # the floor mel's linear magnitudes hold exact zeros, whose log the
    # initial phase must not take
    m = audio.MelSpectrogram(values, CFG.sample_rate, CFG.hop_length, 80)
    assert np.isfinite(audio.griffin_lim(m, CFG).samples).all()


def test_griffin_lim_peak_memory_on_the_longest_synth_mel():
    # 336 frames at hop 512 is the longest mel perfbench's synth-guided
    # workload inverts; the initial phase's float64 temporaries must be gone
    # before the passes allocate their buffers
    import tracemalloc
    cfg = audio.AnalysisConfig(hop_length=512)
    values = np.random.default_rng(0).uniform(np.log(audio.LOG_FLOOR), 0.0, (336, 80))
    m = audio.MelSpectrogram(values, cfg.sample_rate, cfg.hop_length, 80)
    audio._mel_basis(cfg)  # cached once per config, outside the bound
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        audio.griffin_lim(m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 10 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 85.0])
def test_griffin_lim_rejects_a_non_finite_or_huge_mel_naming_the_frame(bad):
    # 85 is finite, but its magnitudes overflow the float32 passes
    values = np.zeros((10, 80))
    values[6, 3] = bad
    values[8, 0] = np.nan
    m = audio.MelSpectrogram(values, CFG.sample_rate, CFG.hop_length, 80)
    with pytest.raises(ValueError, match=f"mel frame 6 of 10 holds {bad}"):
        audio.griffin_lim(m, CFG, iterations=2)


def test_griffin_lim_accepts_the_ceiling():
    m = audio.MelSpectrogram(np.full((10, 80), audio.LOG_CEILING), CFG.sample_rate,
                             CFG.hop_length, 80)
    assert np.isfinite(audio.griffin_lim(m, CFG).samples).all()


@pytest.mark.parametrize("field, mel", [
    ("sample_rate", audio.MelSpectrogram(np.zeros((20, 80)), 16000, 512, 80)),
    ("hop_length", audio.MelSpectrogram(np.zeros((20, 80)), CFG.sample_rate, 512, 80)),
    ("n_mels", audio.MelSpectrogram(np.zeros((20, 40)), CFG.sample_rate, CFG.hop_length, 40)),
])
def test_griffin_lim_rejects_a_mel_of_another_config(field, mel):
    with pytest.raises(audio.ConfigMismatchError, match=field):
        audio.griffin_lim(mel, CFG, iterations=1)


def test_mel_basis_is_one_read_only_pinv_per_config():
    fb, inv = audio._mel_basis(SMALL)
    assert np.array_equal(fb, audio.mel_filterbank(SMALL))
    assert np.array_equal(inv, np.linalg.pinv(audio.mel_filterbank(SMALL)))
    assert audio._mel_basis(SMALL)[1] is inv
    for shared in (fb, inv):
        with pytest.raises(ValueError):
            shared[0, 0] = 1.0
    narrower = dataclasses.replace(SMALL, fmax=6000.0)
    other_fb, other_inv = audio._mel_basis(narrower)
    assert other_inv is not inv
    assert np.array_equal(other_inv, np.linalg.pinv(audio.mel_filterbank(narrower)))
    assert not np.array_equal(other_fb, fb)


def overlap_add_loop(frames, hop):
    # the reference: one frame at a time, in frame order
    n_frames, n = frames.shape
    out = np.zeros((n_frames - 1) * hop + n, dtype=frames.dtype)
    for i in range(n_frames):
        out[i * hop:i * hop + n] += frames[i]
    return out


@pytest.mark.parametrize("hop", [256, 300, 512, 1024])
@pytest.mark.parametrize("n_frames", [1, 2, 9])
def test_overlap_add_matches_per_frame_loop(hop, n_frames):
    frames = np.random.default_rng(hop + n_frames).standard_normal((n_frames, 1024))
    assert np.array_equal(audio._overlap_add(frames, hop), overlap_add_loop(frames, hop))
    frames32 = frames.astype(np.float32)
    got = audio._overlap_add(frames32, hop)
    assert got.dtype == np.float32
    assert np.array_equal(got, overlap_add_loop(frames32, hop))


@pytest.mark.parametrize("hop", [256, 300, 512, 1024])
def test_istft_matches_per_frame_reference(hop):
    cfg = audio.AnalysisConfig(hop_length=hop)
    rng = np.random.default_rng(hop)
    spec = rng.standard_normal((9, 513)) + 1j * rng.standard_normal((9, 513))
    win = audio._window(cfg)
    frames = np.fft.irfft(spec, n=cfg.n_fft, axis=1) * win[None, :]
    norm = overlap_add_loop(np.tile(win * win, (9, 1)), hop)
    want = (overlap_add_loop(frames, hop) / np.maximum(norm, 1e-10))[512:-512]
    got = audio._istft_frames(np.fft.irfft(spec, n=cfg.n_fft, axis=1), cfg, win,
                              audio._istft_norm(9, win, cfg))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hop", [256, 300, 512, 1024])
def test_istft_norm_equals_the_whole_overlap_add(hop, dtype):
    cfg = audio.AnalysisConfig(hop_length=hop)
    win = audio._window(cfg).astype(dtype)
    blocks = -(-cfg.n_fft // hop)
    for n_frames in [*range(1, 2 * blocks + 2), 189]:
        wsq = np.broadcast_to(win * win, (n_frames, win.size))
        want = np.maximum(audio._overlap_add(wsq, hop), 1e-10)
        got = audio._istft_norm(n_frames, win, cfg)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("real, cplx", [(np.float64, np.complex128), (np.float32, np.complex64)])
def test_frames_and_istft_keep_the_input_precision(real, cplx):
    rng = np.random.default_rng(5)
    assert audio._frames(rng.standard_normal(3000).astype(real), CFG).dtype == real
    spec = (rng.standard_normal((9, 513)) + 1j * rng.standard_normal((9, 513))).astype(cplx)
    win = audio._window(CFG).astype(real)
    norm = audio._istft_norm(9, win, CFG)
    assert norm.dtype == real
    frames = np.fft.irfft(spec, n=CFG.n_fft, axis=1)
    assert audio._istft_frames(frames, CFG, win, norm).dtype == real
