import numpy as np
import pytest

from difftts import numcore as nc
from difftts import speaker
from difftts.audio import MelSpectrogram


def make_store(n_mels=20, d_spk=8, seed=0):
    store = nc.ParamStore(dtype=np.float64)
    speaker.init_params(store, n_mels, d_spk, np.random.default_rng(seed))
    return store


def mel_from(values):
    values = np.asarray(values, dtype=float)
    return MelSpectrogram(values, 22050, 256, values.shape[1])


def unit(values):
    """L2-normalize a raw vector into a SpeakerEmbedding."""
    values = np.asarray(values, dtype=np.float64)
    return speaker.SpeakerEmbedding(values / np.linalg.norm(values))


def test_embedding_is_unit_norm():
    store = make_store()
    mel = mel_from(np.random.default_rng(1).standard_normal((30, 20)))
    emb = speaker.embed_baseline(store, mel)
    assert abs(np.linalg.norm(emb.vector) - 1.0) <= 1e-6


def test_embedding_invariant_to_frame_permutation():
    store = make_store()
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((25, 20))
    a = speaker.embed_baseline(store, mel_from(frames))
    b = speaker.embed_baseline(store, mel_from(frames[rng.permutation(25)]))
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)


def test_same_speaker_windows_closer_than_cross_speaker():
    # synthetic "speakers": distinct per-bin offsets plus shared noise
    store = make_store()
    rng = np.random.default_rng(3)
    spk_a = rng.standard_normal(20) * 3.0
    spk_b = rng.standard_normal(20) * 3.0
    win = lambda base: mel_from(base + 0.3 * rng.standard_normal((40, 20)))
    e_a1 = speaker.embed_baseline(store, win(spk_a))
    e_a2 = speaker.embed_baseline(store, win(spk_a))
    e_b = speaker.embed_baseline(store, win(spk_b))
    assert speaker.sim_o(e_a1, e_a2) > speaker.sim_o(e_a1, e_b)


def test_zero_vector_rejected():
    with pytest.raises(speaker.EmbeddingFormatError, match="norm 0.0 is not 1"):
        speaker.SpeakerEmbedding(np.zeros(4))


def test_sim_o_basics():
    v = unit(np.array([1.0, 2.0, 2.0]))
    neg = speaker.SpeakerEmbedding(-v.vector)
    assert speaker.sim_o(v, v) == pytest.approx(1.0)
    assert speaker.sim_o(v, neg) == pytest.approx(-1.0)
    x = speaker.SpeakerEmbedding(np.array([1.0, 0.0]))
    y = speaker.SpeakerEmbedding(np.array([0.0, 1.0]))
    assert speaker.sim_o(x, y) == 0.0


def test_sim_o_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = unit(rng.standard_normal(16))
        b = unit(rng.standard_normal(16))
        assert speaker.sim_o(a, b) == pytest.approx(speaker.sim_o(b, a), abs=1e-12)
        assert abs(speaker.sim_o(a, b)) <= 1.0 + 1e-9


def test_sim_o_dimension_mismatch():
    a = speaker.SpeakerEmbedding(np.array([1.0, 0.0]))
    b = speaker.SpeakerEmbedding(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        speaker.sim_o(a, b)


def test_sim_o_invariant_to_positive_rescaling():
    raw = np.random.default_rng(6).standard_normal(8)
    a, b = unit(raw), unit(7.5 * raw)
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-6)
    assert speaker.sim_o(a, b) == pytest.approx(1.0)
