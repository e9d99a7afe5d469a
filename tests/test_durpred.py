import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import durpred
from difftts import numcore as nc
from difftts.audio import MelSpectrogram
from tests.conftest import tiny_config


REF_LEN = 12


def mel_of(values):
    values = np.asarray(values, dtype=float)
    return MelSpectrogram(values, 22050, 256, values.shape[1])


def ref_of(values, uid="r", speaker="s"):
    return durpred.ReferenceMel(mel_of(values), uid, speaker)


def make_store(cfg, seed=0):
    store = nc.ParamStore(dtype=np.float64)
    durpred.init_params(store, cfg, np.random.default_rng(seed))
    return store


# -- crop_reference -----------------------------------------------------------

def pool_of(**utts):
    return {uid: mel_of(vals) for uid, vals in utts.items()}


def test_forced_choice_of_other_utterance():
    rng = np.random.default_rng(0)
    pool = pool_of(u1=np.zeros((200, 6)), u2=np.ones((200, 6)))
    for _ in range(50):
        ref = durpred.crop_reference(pool, "u1", rng, REF_LEN)
        assert ref.source_utterance == "u2"
        assert np.all(ref.mel.values == 1.0)


def test_short_source_is_tiled_to_length():
    rng = np.random.default_rng(1)
    pool = pool_of(u1=np.zeros((5, 6)), u2=np.arange(30.0).reshape(5, 6))
    ref = durpred.crop_reference(pool, "u1", rng, 172)
    assert ref.mel.frames == 172


def test_fixed_seed_reproducible_crop():
    pool = pool_of(u1=np.zeros((50, 6)), u2=np.random.default_rng(3).standard_normal((300, 6)))
    a = durpred.crop_reference(pool, "u1", np.random.default_rng(7), REF_LEN)
    b = durpred.crop_reference(pool, "u1", np.random.default_rng(7), REF_LEN)
    assert np.array_equal(a.mel.values, b.mel.values)


def test_never_returns_target_content_with_alternative():
    # target frames are all 5.0, the alternative all -5.0
    pool = pool_of(tgt=np.full((40, 6), 5.0), alt=np.full((40, 6), -5.0))
    for seed in range(1000):
        ref = durpred.crop_reference(pool, "tgt", np.random.default_rng(seed), REF_LEN)
        assert np.all(ref.mel.values == -5.0)


def test_single_utterance_pool_is_rejected():
    pool = {"only": mel_of(np.ones((60, 6)))}
    with pytest.raises(durpred.ReferenceUnavailableError):
        durpred.crop_reference(pool, "only", np.random.default_rng(0), REF_LEN)
    with pytest.raises(durpred.ReferenceUnavailableError):
        durpred.crop_reference({}, "only", np.random.default_rng(0), REF_LEN)


# -- cross attention ------------------------------------------------------------

def test_identical_keys_give_shared_value_row(tiny_cfg):
    store = make_store(tiny_cfg)
    frame = np.arange(6.0)
    ref = ref_of(np.tile(frame, (REF_LEN, 1)))
    text = nc.Tensor(np.random.default_rng(1).standard_normal((4, tiny_cfg.model.d_model)))
    out = durpred.cross_attend(store, text, ref, tiny_cfg)
    expected = frame @ store["dur.ref.w"].value + store["dur.ref.b"].value
    for row in out.data:
        np.testing.assert_allclose(row, expected, atol=1e-9)


def test_single_reference_frame(tiny_cfg):
    store = make_store(tiny_cfg)
    frame = np.linspace(-1, 1, 6)
    ref = ref_of(frame[None, :])
    text = nc.Tensor(np.random.default_rng(2).standard_normal((3, tiny_cfg.model.d_model)))
    out = durpred.cross_attend(store, text, ref, tiny_cfg)
    expected = frame @ store["dur.ref.w"].value + store["dur.ref.b"].value
    for row in out.data:
        np.testing.assert_allclose(row, expected, atol=1e-9)


def test_two_by_two_hand_case():
    cfg = tiny_config(n_mels=2, d_model=2, blocks=1, heads=1, d_spk=2, dec_channels=4)
    store = make_store(cfg)
    store["dur.ref.w"].tensor.data[:] = np.eye(2)
    store["dur.ref.b"].tensor.data[:] = 0.0
    store["dur.query.w"].tensor.data[:] = np.eye(2)
    keys = np.array([[1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[2.0, 0.0], [0.0, 4.0]])
    out = durpred.cross_attend(store, nc.Tensor(queries), ref_of(keys), cfg)
    scale = 1.0 / np.sqrt(2.0)
    logits = queries @ keys.T * scale
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.data, w @ keys, atol=1e-12)


@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_attention_output_is_convex_combination(p, f_ref, seed):
    cfg = tiny_config()
    store = make_store(cfg, seed=1)
    rng = np.random.default_rng(seed)
    ref = ref_of(rng.standard_normal((f_ref, 6)))
    text = nc.Tensor(rng.standard_normal((p, cfg.model.d_model)))
    out = durpred.cross_attend(store, text, ref, cfg)
    values = ref.mel.values @ store["dur.ref.w"].value + store["dur.ref.b"].value
    lo, hi = values.min(axis=0), values.max(axis=0)
    assert np.all(out.data >= lo - 1e-9) and np.all(out.data <= hi + 1e-9)


def one_head_formula(store, text_emb, ref):
    """cross_attend as it was with its one-head split: attention over
    ``slice_cols(., 0, d)`` copies of the query and the projection."""
    m = nc.Tensor(ref.mel.values.astype(store.dtype))
    proj = nc.linear(m, store["dur.ref.w"].tensor, store["dur.ref.b"].tensor)
    q = text_emb @ store["dur.query.w"].tensor
    d = q.shape[1]
    return nc.scaled_dot_attention(nc.slice_cols(q, 0, d), nc.slice_cols(proj, 0, d),
                                   nc.slice_cols(proj, 0, d))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p,f_ref,d_model", [(1, 1, 8), (5, 12, 8), (23, 172, 128)])
def test_cross_attend_equals_one_head_formula_bit_for_bit(dtype, p, f_ref, d_model):
    cfg = tiny_config(n_mels=80, d_model=d_model)
    store = nc.ParamStore(dtype=dtype)
    durpred.init_params(store, cfg, np.random.default_rng(p))
    rng = np.random.default_rng([p, f_ref])
    ref = ref_of(rng.standard_normal((f_ref, 80)))
    emb = rng.standard_normal((p, d_model)).astype(dtype)
    weight = nc.Tensor(rng.standard_normal((p, d_model)).astype(dtype))
    results = []
    for forward in (lambda e: durpred.cross_attend(store, e, ref, cfg),
                    lambda e: one_head_formula(store, e, ref)):
        store.zero_grads()
        text = nc.Tensor(emb, requires_grad=True)
        out = forward(text)
        (out * weight).sum().backward()
        grads = {name: prm.tensor.grad.tobytes() for name, prm in store.items()
                 if prm.tensor.grad is not None}
        results.append((out.data.dtype, out.data.tobytes(), text.grad.tobytes(), grads))
    assert set(results[0][3]) == {"dur.ref.w", "dur.ref.b", "dur.query.w"}
    assert results[0] == results[1]


# -- duration head ---------------------------------------------------------------

def test_log_duration_shape(tiny_cfg):
    store = make_store(tiny_cfg)
    for p in (1, 3, 9):
        rng = np.random.default_rng(p)
        a = nc.Tensor(rng.standard_normal((p, tiny_cfg.model.d_model)))
        e = nc.Tensor(rng.standard_normal((p, tiny_cfg.model.d_model)))
        out = durpred.predict_log_durations(store, a, e, tiny_cfg)
        assert out.shape == (p, 1)


def test_duration_path_gradients(tiny_cfg):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(5)
    text = nc.Tensor(rng.standard_normal((3, tiny_cfg.model.d_model)), requires_grad=True)
    ref = ref_of(rng.standard_normal((4, 6)))
    tensors = [p.tensor for _, p in store.items()] + [text]

    def forward():
        a = durpred.cross_attend(store, text, ref, tiny_cfg)
        return durpred.predict_log_durations(store, a, text, tiny_cfg).sum().tanh()

    assert nc.grad_check(forward, tensors, epsilon=1e-5) < 1e-4


def test_durations_to_frames_rules():
    np.testing.assert_array_equal(durpred.durations_to_frames(np.array([0.0, 0.0])).frames, [1, 1])
    np.testing.assert_array_equal(durpred.durations_to_frames(np.array([np.log(3.4)])).frames, [3])
    np.testing.assert_array_equal(durpred.durations_to_frames(np.array([-5.0])).frames, [1])


@pytest.mark.parametrize("log_d", [[30.0], [800.0], [0.0, 12.0, 1.0]])
def test_durations_over_the_frame_limit_are_refused(log_d):
    bad = int(np.argmax(log_d))
    with pytest.raises(durpred.DurationLimitError, match=f"token {bad} .*frame total"):
        durpred.durations_to_frames(np.array(log_d))


@pytest.mark.parametrize("log_d, bad, shown", [([np.nan], 0, "nan"), ([0.0, 1.0, np.inf, np.nan], 2, "inf"),
                                                ([0.5, -np.inf], 1, "-inf")])
def test_non_finite_log_duration_names_its_token(log_d, bad, shown):
    with pytest.raises(ValueError, match=f"token {bad} of {len(log_d)} has log-duration {shown};"):
        durpred.durations_to_frames(np.array(log_d))


def test_durations_up_to_the_frame_limit_pass():
    log_d = np.log(np.array([durpred.MAX_FRAMES - 1, 1.0]))
    assert durpred.durations_to_frames(log_d).total() == durpred.MAX_FRAMES


def test_duration_loss_values():
    pred = nc.Tensor(np.log(np.array([[1.0], [2.0]])))
    assert durpred.duration_loss(pred, np.array([1, 2])).item() == 0.0
    shifted = nc.Tensor(np.log(np.array([[1.0], [2.0]])) + 1.0)
    assert durpred.duration_loss(shifted, np.array([1, 2])).item() == pytest.approx(1.0)
    hand = nc.Tensor(np.array([[0.0], [np.log(2.0)]]))
    assert durpred.duration_loss(hand, np.array([1, 2])).item() == pytest.approx(0.0)


def test_duration_loss_rejects_zero_targets():
    with pytest.raises(durpred.InvalidTargetError):
        durpred.duration_loss(nc.Tensor(np.zeros((2, 1))), np.array([1, 0]))
