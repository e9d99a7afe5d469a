import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def raw_file(path, values):
    """An SPKEMB file holding values as stored, without normalizing them."""
    values = np.asarray(values, dtype="<f4")
    path.write_bytes(speaker.SPKEMB_MAGIC + struct.pack("<I", values.size) + values.tobytes())
    return path


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


def test_external_embedding_normalized(tmp_path):
    back = speaker.load_external_embedding(raw_file(tmp_path / "e.bin", [3.0, 4.0]))
    np.testing.assert_allclose(back.vector, [0.6, 0.8], atol=1e-7)


def test_external_embedding_unit_vector_unchanged(tmp_path):
    p = tmp_path / "e.bin"
    v = np.array([0.6, 0.8])
    speaker.save_embedding(p, speaker.SpeakerEmbedding(v))
    back = speaker.load_external_embedding(p)
    np.testing.assert_allclose(back.vector, v, atol=1e-7)


def test_zero_vector_rejected(tmp_path):
    with pytest.raises(speaker.EmbeddingFormatError, match="zero vector"):
        speaker.load_external_embedding(raw_file(tmp_path / "zero.bin", np.zeros(4)))


def test_garbage_file_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"whatever")
    with pytest.raises(speaker.EmbeddingFormatError):
        speaker.load_external_embedding(p)


@pytest.mark.parametrize("extra", [b"\0", bytes(4), bytes(9)])
def test_trailing_bytes_rejected(tmp_path, extra):
    p = raw_file(tmp_path / "long.bin", [3.0, 4.0])
    p.write_bytes(p.read_bytes() + extra)
    with pytest.raises(speaker.EmbeddingFormatError, match="must be 20 bytes"):
        speaker.load_external_embedding(p)


def test_unreadable_file_names_the_file(tmp_path):
    with pytest.raises(speaker.EmbeddingFormatError, match="absent.bin"):
        speaker.load_external_embedding(tmp_path / "absent.bin")


@pytest.fixture(scope="module")
def emb_blob(tmp_path_factory):
    return raw_file(tmp_path_factory.mktemp("spkemb") / "e.bin", [3.0, -4.0, 0.5]).read_bytes()


def _load_emb_bytes(path, blob):
    path.write_bytes(blob)
    return speaker.load_external_embedding(path)


def test_every_truncation_rejected(emb_blob, tmp_path):
    p = tmp_path / "cut.bin"
    for n in range(len(emb_blob)):
        with pytest.raises(speaker.EmbeddingFormatError):
            _load_emb_bytes(p, emb_blob[:n])


@settings(max_examples=100, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_appended_bytes_rejected(emb_blob, tmp_path_factory, extra):
    with pytest.raises(speaker.EmbeddingFormatError):
        _load_emb_bytes(tmp_path_factory.getbasetemp() / "long.bin", emb_blob + extra)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_byte_change_loads_or_raises_typed(emb_blob, tmp_path_factory, data):
    pos = data.draw(st.integers(0, len(emb_blob) - 1), label="pos")
    blob = bytearray(emb_blob)
    blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    try:
        emb = _load_emb_bytes(tmp_path_factory.getbasetemp() / "flipped.bin", bytes(blob))
    except speaker.EmbeddingFormatError:
        return
    assert abs(np.linalg.norm(emb.vector) - 1.0) <= 1e-6


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


def test_sim_o_invariant_to_positive_rescaling(tmp_path):
    rng = np.random.default_rng(6)
    raw = rng.standard_normal(8)
    a = speaker.load_external_embedding(raw_file(tmp_path / "a.bin", raw))
    b = speaker.load_external_embedding(raw_file(tmp_path / "b.bin", 7.5 * raw))
    np.testing.assert_allclose(a.vector, b.vector, atol=1e-6)
    assert speaker.sim_o(a, b) == pytest.approx(1.0)
