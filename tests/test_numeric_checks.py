"""Finiteness checks on the model's paths: a non-finite value is refused
where a forward's result leaves the tape, and the error names the op that
made it, its input shapes, and the training step and utterance or the
sampler step."""

import re

import numpy as np
import pytest

from difftts import diffusion, durpred, encoder, pipeline, toydata
from difftts import numcore as nc
from difftts.audio import AnalysisConfig, MelSpectrogram, MelStats, load_wav
from difftts.config import Config, ModelConfig, TrainConfig
from difftts.corpus import load_corpus, speaker_pools
from difftts.numcore import _checking_ops
from difftts.textfront import build_vocab

CFG = Config(
    audio=AnalysisConfig(hop_length=512),
    model=ModelConfig(d_model=16, n_enc_blocks=1, n_heads=2, d_spk=8, dec_channels=8),
    train=TrainConfig(learning_rate=1e-4, batch_size=2, epochs=1, seed=3),
)
F32_MAX = float(np.finfo(np.float32).max)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("numeric_corpus")
    toydata.make_corpus(root, n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=0)
    utts = load_corpus(root, CFG)
    return root, utts, build_vocab([u.text for u in utts])


def _synthesize(model, corpus, gamma):
    root = corpus[0]
    stats = MelStats(np.zeros(CFG.audio.n_mels), 1, CFG.audio.fingerprint())
    return pipeline.synthesize(model, stats, "ab cd", load_wav(root / "spk0_u0.wav"),
                               gamma=gamma, steps=4, seed=5)


def _state(trainer):
    opt = trainer.opt
    return ([p.value.tobytes() for _, p in trainer.model.store.items()],
            [opt.m[n].tobytes() for n in opt.m], [opt.v[n].tobytes() for n in opt.v], opt.t)


def _train_refused(trainer, utts, match):
    """One epoch must raise a NumericError matching ``match``, apply no update
    and leave the step and epoch counters where they were."""
    before = _state(trainer), trainer.step, trainer.epoch
    with pytest.raises(nc.NumericError, match=match):
        pipeline.train_epochs(trainer, utts, 1)
    assert (_state(trainer), trainer.step, trainer.epoch) == before


def _first_utterance(utts):
    order = np.random.default_rng([CFG.train.seed, pipeline._ORDER, 1]).permutation(len(utts))
    return utts[order[0]].utterance_id


# -- the op is named ---------------------------------------------------------------


@pytest.mark.parametrize("gamma, batch", [(0.0, ""), (0.7, "2, ")])
def test_nan_decoder_weight_names_the_op_in_synthesis(corpus, gamma, batch):
    model = pipeline.TTSModel(CFG, corpus[2], seed=1)
    model.store["dec.down0.conv.w"].tensor.data[0, 0] = np.nan
    with pytest.raises(nc.NumericError) as info:
        _synthesize(model, corpus, gamma)
    assert re.fullmatch(
        rf"sampler step 1 of 4 \(t=1\): conv1d: non-finite output; input shapes "
        rf"\({batch}\d+, 8\), \(24, 8\) \[non-finite\], \(8,\)", str(info.value)), str(info.value)


def test_nan_encoder_weight_names_op_step_and_utterance(corpus):
    _, utts, vocab = corpus
    trainer = pipeline.new_trainer(CFG, vocab, utts)
    trainer.model.store["enc.block0.ff1.w"].tensor.data[3, 1] = np.nan
    uid = re.escape(_first_utterance(utts))
    _train_refused(trainer, utts, rf"^step 1, utterance {uid}: conv1d: non-finite output; "
                                  rf"input shapes \(\d+, 16\), \(48, 16\) \[non-finite\], \(16,\)$")
    assert trainer.step == trainer.opt.t == 0 and trainer.epoch == 0


# the input conv's weight is split by view into its x_t and mel rows; a NaN
# in either half is reported by the conv that uses it, not by the split
_X_ROW, _MEL_ROW = 0, CFG.audio.n_mels


@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("row, where, bias", [(_X_ROW, r"sampler step 1 of 4 \(t=1\)", ""),
                                              (_MEL_ROW, "sampler conditions", r", \(8,\)")],
                         ids=["x_rows", "mel_rows"])
def test_nan_input_conv_weight_names_the_op_in_synthesis(corpus, gamma, row, where, bias):
    model = pipeline.TTSModel(CFG, corpus[2], seed=1)
    model.store["dec.in.w"].tensor.data[row, 0] = np.nan
    with pytest.raises(nc.NumericError) as info:
        _synthesize(model, corpus, gamma)
    # guidance prepares the mel term of the [conditional, unconditional] batch
    batch = "2, " if gamma and row == _MEL_ROW else ""
    assert re.fullmatch(rf"{where}: conv1d: non-finite output; input shapes "
                        rf"\({batch}\d+, 80\), \(240, 8\) \[non-finite\]{bias}",
                        str(info.value)), str(info.value)


def test_nan_speaker_projection_names_the_op_in_synthesis(corpus):
    # the speaker rows are computed once per sample, with the mel terms
    model = pipeline.TTSModel(CFG, corpus[2], seed=1)
    model.store["dec.mid.spk.w"].tensor.data[0, 0] = np.nan
    with pytest.raises(nc.NumericError, match=r"^sampler conditions: matmul: non-finite output; "
                                              r"input shapes \(1, 8\), \(8, 8\) \[non-finite\]$"):
        _synthesize(model, corpus, 0.7)


@pytest.mark.parametrize("row, bias", [(_X_ROW, ""), (_MEL_ROW, r", \(8,\)")],
                         ids=["x_rows", "mel_rows"])
def test_nan_input_conv_weight_names_op_step_and_utterance(corpus, row, bias):
    _, utts, vocab = corpus
    trainer = pipeline.new_trainer(CFG, vocab, utts)
    trainer.model.store["dec.in.w"].tensor.data[row, 0] = np.nan
    uid = re.escape(_first_utterance(utts))
    _train_refused(trainer, utts, rf"^step 1, utterance {uid}: conv1d: non-finite output; "
                                  rf"input shapes \(\d+, 80\), \(240, 8\) \[non-finite\]{bias}$")


def test_nan_gradient_names_the_parameter(corpus, monkeypatch):
    _, utts, vocab = corpus
    trainer = pipeline.new_trainer(CFG, vocab, utts)
    backward = nc.Tensor.backward

    def poisoned(self):
        backward(self)
        trainer.model.store["dec.mid.conv.b"].tensor.grad[2] = np.nan

    monkeypatch.setattr(nc.Tensor, "backward", poisoned)
    _train_refused(trainer, utts, r"^non-finite gradient for parameter dec\.mid\.conv\.b "
                                  r"in Adam update 1$")


# -- saturating ops cannot hide an overflow ------------------------------------------


def _overflow_into_tanh(model):
    # layer_norm's output overflows in float32 and feeds tanh, which maps
    # +-inf to +-1: without tanh's input check the decoder's result is finite
    model.store["dec.down0.ln.gain"].tensor.data[:] = F32_MAX


def test_decoder_overflow_into_tanh_raises_in_sampling(corpus):
    model = pipeline.TTSModel(CFG, corpus[2], seed=1)
    _overflow_into_tanh(model)
    with pytest.raises(nc.NumericError), np.errstate(over="ignore"):
        _synthesize(model, corpus, 0.7)


def test_decoder_overflow_into_tanh_raises_in_training(corpus):
    _, utts, vocab = corpus
    trainer = pipeline.new_trainer(CFG, vocab, utts)
    _overflow_into_tanh(trainer.model)
    with np.errstate(over="ignore"):
        _train_refused(trainer, utts, None)


def test_minus_inf_attention_score_raises_in_cross_attend():
    # reference frame 0 projects to a huge negative key, so every text
    # query scores it -inf and the others finitely: softmax would give it
    # weight 0 and a finite output
    store = nc.ParamStore()
    durpred.init_params(store, CFG, np.random.default_rng(0))
    d, n_mels = CFG.model.d_model, CFG.audio.n_mels
    store["dur.ref.w"].tensor.data[:] = 0.0
    store["dur.ref.w"].tensor.data[0] = 1.0
    store["dur.query.w"].tensor.data[:] = 1e10 * np.eye(d)
    values = np.ones((5, n_mels))
    values[0, 0] = -1e30
    ref = durpred.ReferenceMel(MelSpectrogram(values, 22050, 512, n_mels), "r", "s")
    text = nc.Tensor(np.ones((3, d), dtype=np.float32))
    with np.errstate(over="ignore"):
        keys = values.astype(np.float32) @ store["dur.ref.w"].value
        scores = (text.data @ store["dur.query.w"].value) @ keys.T
        assert np.isneginf(scores[:, 0]).all() and np.isfinite(scores[:, 1:]).all()
    with pytest.raises(nc.NumericError), np.errstate(over="ignore"):
        durpred.cross_attend(store, text, ref, CFG)


# -- the replay computes what the unchecked pass computes --------------------------------


def _checked_and_unchecked(forward):
    plain = forward()
    with _checking_ops():
        checked = forward()
    return plain, checked


def test_replay_is_bit_identical(corpus):
    _, utts, vocab = corpus
    trainer = pipeline.new_trainer(CFG, vocab, utts)
    model, store = trainer.model, trainer.model.store
    seq = model.encode_text(utts[0].text)

    plain, checked = _checked_and_unchecked(lambda: encoder.encode(store, seq, CFG))
    assert plain.embeddings.data.tobytes() == checked.embeddings.data.tobytes()
    assert plain.mu.data.tobytes() == checked.mu.data.tobytes()

    mu = np.random.default_rng(4).standard_normal((37, CFG.audio.n_mels))
    cond = diffusion.ScoreCondition(np.stack([mu, np.zeros_like(mu)]),
                                    np.full(CFG.model.d_spk, CFG.model.d_spk ** -0.5))
    plain, checked = _checked_and_unchecked(
        lambda: diffusion.score_net(store, mu + 0.5, 0.3, cond, CFG))
    assert plain.data.tobytes() == checked.data.tobytes()

    pools = speaker_pools(utts)
    seqs = [model.encode_text(u.text) for u in utts]
    plain, checked = _checked_and_unchecked(lambda: pipeline._step_loss(
        model, 1, np.arange(len(utts)), utts, seqs, pools, np.zeros(3)))
    assert plain.data.tobytes() == checked.data.tobytes()
