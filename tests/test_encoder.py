import numpy as np
import pytest

from difftts import encoder
from difftts import numcore as nc
from difftts.textfront import PhonemeSequence
from tests.conftest import tiny_config


def make_store(cfg, vocab_size=7, seed=0):
    store = nc.ParamStore(dtype=np.float64)
    encoder.init_params(store, cfg, vocab_size, np.random.default_rng(seed))
    return store


def seq_of(ids):
    return PhonemeSequence(np.asarray(ids))


def test_shapes(tiny_cfg):
    store = make_store(tiny_cfg)
    enc = encoder.encode(store, seq_of([2, 3, 4, 5, 2]), tiny_cfg)
    assert enc.embeddings.shape == (5, tiny_cfg.model.d_model)
    assert enc.mu.shape == (5, tiny_cfg.audio.n_mels)


def test_deterministic_across_runs(tiny_cfg):
    a = encoder.encode(make_store(tiny_cfg, seed=42), seq_of([2, 3]), tiny_cfg)
    b = encoder.encode(make_store(tiny_cfg, seed=42), seq_of([2, 3]), tiny_cfg)
    assert np.array_equal(a.embeddings.data, b.embeddings.data)


def test_bad_token_id(tiny_cfg):
    store = make_store(tiny_cfg, vocab_size=4)
    with pytest.raises(nc.ShapeError):
        encoder.encode(store, seq_of([2, 9]), tiny_cfg)


def test_encoder_gradients(tiny_cfg):
    store = make_store(tiny_cfg)
    seq = seq_of([2, 3, 4])
    tensors = [p.tensor for _, p in store.items()]

    def forward():
        enc = encoder.encode(store, seq, tiny_cfg)
        return (enc.embeddings.sum() + enc.mu.sum()).tanh()

    assert nc.grad_check(forward, tensors, epsilon=1e-5) < 1e-4


def test_expand_mu_identity(tiny_cfg):
    store = make_store(tiny_cfg)
    enc = encoder.encode(store, seq_of([2, 3, 4]), tiny_cfg)
    out = encoder.expand_mu(enc, np.array([1, 1, 1]))
    np.testing.assert_array_equal(out.data, enc.mu.data)


def test_expand_mu_repeats():
    enc = encoder.TextEncoding(
        embeddings=nc.Tensor(np.zeros((1, 4))),
        mu=nc.Tensor(np.array([[7.0]])))
    out = encoder.expand_mu(enc, np.array([3]))
    np.testing.assert_array_equal(out.data, [[7.0], [7.0], [7.0]])


def test_expand_mu_direct_repetition():
    enc = encoder.TextEncoding(
        embeddings=nc.Tensor(np.zeros((2, 4))),
        mu=nc.Tensor(np.array([[0.0], [1.0]])))
    out = encoder.expand_mu(enc, np.array([2, 1]))
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [1.0]])


def test_expand_mu_length_checks(tiny_cfg):
    store = make_store(tiny_cfg)
    enc = encoder.encode(store, seq_of([2, 3]), tiny_cfg)
    with pytest.raises(nc.ShapeError):
        encoder.expand_mu(enc, np.array([1, 1, 1]))


def test_prior_loss_zero_at_match(tiny_cfg):
    store = make_store(tiny_cfg)
    enc = encoder.encode(store, seq_of([2, 3]), tiny_cfg)
    frame_mu = encoder.expand_mu(enc, np.array([2, 3]))
    loss = encoder.encoder_prior_loss(frame_mu, frame_mu.data.copy())
    assert loss.item() == 0.0
