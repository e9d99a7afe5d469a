"""Acceptance suite: one test per criterion, at the stated tolerances.

Criterion 6 trains the full toy model once (session fixture); everything
else is self-contained.  Each test prints via the conftest hook.
"""

import math
import time

import numpy as np
import pytest

from difftts import aligner, diffusion, durpred, encoder, evalkit, pipeline, speaker, toydata
from difftts import numcore as nc
from difftts.audio import AnalysisConfig, MelSpectrogram, Waveform, wav_to_mel
from difftts.config import Config, ModelConfig, TrainConfig
from difftts.corpus import load_corpus, speaker_pools
from difftts.textfront import PhonemeSequence, build_vocab
from tests.conftest import tiny_config

SCHED = diffusion.NoiseSchedule(beta0=0.05, beta1=20.0)

TOY_CFG = Config(
    audio=AnalysisConfig(hop_length=512),
    model=ModelConfig(d_model=128, n_enc_blocks=2, n_heads=2, d_spk=16, dec_channels=32),
    train=TrainConfig(learning_rate=1e-4, batch_size=1, epochs=200, seed=1),
)


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_corpus")
    toydata.make_corpus(root, n_speakers=2, utts_per_speaker=4, seconds=5.0, seed=0)
    return root


@pytest.fixture(scope="session")
def toy_training(toy_corpus):
    """200 epochs at lr 1e-4 on the 2x4 synthetic corpus, plus loss lines."""
    utts = load_corpus(toy_corpus, TOY_CFG)
    vocab = build_vocab([u.text for u in utts])
    trainer = pipeline.new_trainer(TOY_CFG, vocab, utts)
    untrained = pipeline.TTSModel(TOY_CFG, vocab, seed=TOY_CFG.train.seed)
    start = time.monotonic()
    lines = pipeline.train_epochs(trainer, utts, TOY_CFG.train.epochs)
    elapsed = time.monotonic() - start
    return {"trainer": trainer, "untrained": untrained, "utts": utts,
            "lines": lines, "elapsed": elapsed}


# -- criterion 1: gradient integrity ------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    rng = np.random.default_rng(0)

    def t(shape):
        return nc.Tensor(rng.standard_normal(shape), requires_grad=True)

    # elementary differentiable ops, five random small shapes each
    for trial in range(5):
        m, k, n = rng.integers(2, 6, size=3)
        a, b = t((m, k)), t((k, n))
        assert nc.grad_check(lambda: nc.matmul(a, b).tanh().sum(), [a, b]) < 1e-4

        x = t((m, n))
        c = nc.Tensor(rng.standard_normal((m, n)))
        assert nc.grad_check(lambda: (nc.softmax_rows(x) * c).sum(), [x]) < 1e-4

        gain, bias = t(n), t(n)
        assert nc.grad_check(lambda: nc.layer_norm(x, gain, bias).tanh().sum(),
                             [x, gain, bias]) < 1e-4

        cw = t((3 * n, 2))
        cb = t(2)
        assert nc.grad_check(lambda: nc.conv1d(x, cw, cb, kernel=3).tanh().sum(),
                             [x, cw, cb]) < 1e-4

        y = t((m, n))
        assert nc.grad_check(lambda: nc.tanh(y).sum(), [y]) < 1e-4
        assert nc.grad_check(lambda: nc.relu(y).tanh().sum(), [y]) < 1e-4
        assert nc.grad_check(lambda: nc.exp(y * 0.3).sum(), [y]) < 1e-4

        table = t((5, n))
        ids = rng.integers(0, 5, size=4)
        assert nc.grad_check(lambda: nc.embedding(table, ids).tanh().sum(), [table]) < 1e-4

        z = t((m + 2, n))
        counts = rng.integers(1, 3, size=m + 2)
        assert nc.grad_check(lambda: nc.repeat_rows(z, counts).tanh().sum(), [z]) < 1e-4
        assert nc.grad_check(lambda: nc.avg_pool_rows(z).tanh().sum(), [z]) < 1e-4
        w2 = t((m + 2, 2))
        assert nc.grad_check(lambda: nc.concat_cols(z, w2).tanh().sum(), [z, w2]) < 1e-4

        v = t(int(n) + 1)
        cv = nc.Tensor(rng.standard_normal(int(n) + 1))
        assert nc.grad_check(lambda: (nc.l2_normalize(v) * cv).sum(), [v]) < 1e-4

    # composite: full encoder
    for trial in range(5):
        cfg = tiny_config(n_mels=4, d_model=8, blocks=2, heads=2, d_spk=4, dec_channels=8)
        store = nc.ParamStore(dtype=np.float64)
        encoder.init_params(store, cfg, 6, np.random.default_rng(trial))
        p_len = int(rng.integers(2, 6))
        seq = PhonemeSequence(rng.integers(2, 6, size=p_len))
        tensors = [p.tensor for _, p in store.items()]

        def enc_forward():
            enc = encoder.encode(store, seq, cfg)
            return (enc.embeddings.sum() + enc.mu.sum()).tanh()

        assert nc.grad_check(enc_forward, tensors) < 1e-4

    # composite: duration predictor including cross-attention
    for trial in range(5):
        cfg = tiny_config(n_mels=4, d_model=8, blocks=1, heads=1, d_spk=4, dec_channels=8)
        store = nc.ParamStore(dtype=np.float64)
        durpred.init_params(store, cfg, np.random.default_rng(10 + trial))
        p_len = int(rng.integers(1, 5))
        f_ref = int(rng.integers(1, 6))
        text = nc.Tensor(rng.standard_normal((p_len, 8)), requires_grad=True)
        ref = durpred.ReferenceMel(
            MelSpectrogram(rng.standard_normal((f_ref, 4)), 22050, 256, 4), "r", "s")
        tensors = [p.tensor for _, p in store.items()] + [text]

        def dur_forward():
            att = durpred.cross_attend(store, text, ref, cfg)
            return durpred.predict_log_durations(store, att, text, cfg).sum().tanh()

        assert nc.grad_check(dur_forward, tensors) < 1e-4

    # composite: score network
    for trial in range(5):
        cfg = tiny_config(n_mels=4, d_model=8, blocks=1, heads=1, d_spk=4, dec_channels=8)
        store = nc.ParamStore(dtype=np.float64)
        diffusion.init_params(store, cfg, np.random.default_rng(20 + trial))
        store["dec.out.w"].tensor.data[:] = 0.3 * rng.standard_normal(
            store["dec.out.w"].value.shape)
        frames = int(rng.integers(1, 7))
        x = nc.Tensor(rng.standard_normal((frames, 4)), requires_grad=True)
        mel = nc.Tensor(rng.standard_normal((frames, 4)), requires_grad=True)
        spk = nc.Tensor(rng.standard_normal(4), requires_grad=True)
        tensors = [p.tensor for _, p in store.items()] + [x, mel, spk]

        def dec_forward():
            out = diffusion.score_net(store, x, 0.41, diffusion.ScoreCondition(mel, spk), cfg)
            return out.sum().tanh()

        assert nc.grad_check(dec_forward, tensors) < 1e-4

    assert time.monotonic() - start < 120.0


# -- criterion 2: alignment oracle ---------------------------------------------------


def test_criterion_2_alignment_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    combos = [(p, f) for p in range(1, 6) for f in range(p, 9)]
    for trial in range(500):
        p, f = combos[trial % len(combos)]
        log_prior = rng.standard_normal((p, f))
        fast = aligner.mas(log_prior)
        slow = aligner.brute_force_align(log_prior)
        assert fast.log_likelihood == slow.log_likelihood  # exact
        assert np.array_equal(fast.assignment, slow.assignment)
    assert time.monotonic() - start < 60.0


# -- criterion 3: diffusion marginals ------------------------------------------------


def test_criterion_3_diffusion_marginals():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((2, 3))
    mu = rng.standard_normal((2, 3))
    n = 10_000
    for t in (0.1, 0.5, 0.9):
        m0, mmu, sigma = SCHED.coefficients(t)
        draws = np.empty((n,) + x0.shape)
        for i in range(n):
            draws[i] = diffusion.forward_diffuse(
                x0, mu, t, rng.standard_normal(x0.shape), SCHED).data
        exact_mean = m0 * x0 + mmu * mu
        se_mean = sigma / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - exact_mean) < 3 * se_mean)
        se_var = sigma**2 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0) - sigma**2) < 3 * se_var)
    for t in np.random.default_rng(12).uniform(0.0, 1.0, size=100):
        m0, mmu, _ = SCHED.coefficients(float(t))
        assert abs(m0 + mmu - 1.0) < 1e-12
    assert time.monotonic() - start < 60.0


# -- criterion 4: CFG identities -----------------------------------------------------


def test_criterion_4_cfg_identities():
    cfg = tiny_config()
    store = nc.ParamStore(dtype=np.float64)
    diffusion.init_params(store, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    store["dec.out.w"].tensor.data[:] = 0.3 * rng.standard_normal(
        store["dec.out.w"].value.shape)
    mu = rng.standard_normal((6, cfg.audio.n_mels))
    spk = rng.standard_normal(cfg.model.d_spk)
    c_mel = rng.standard_normal((6, cfg.audio.n_mels))

    # gamma 0 sampling is bit-identical to conditional sampling
    guide0 = diffusion.GuidanceConfig(gamma=0.0, steps=6, temperature=1.5)
    a = diffusion.reverse_sample(store, mu, spk, guide0, SCHED, cfg, seed=3, cond_mel=c_mel)
    b = diffusion.reverse_sample(store, mu, spk, guide0, SCHED, cfg, seed=3)
    assert np.array_equal(a, b)

    # identical conditions cancel exactly
    x = rng.standard_normal((6, cfg.audio.n_mels))
    cond = diffusion.ScoreCondition(mu, spk)
    cond_same = diffusion.ScoreCondition(mu.copy(), spk.copy())
    with nc.no_grad():
        eps_c = diffusion.score_net(store, x, 0.5, cond, cfg).data
        eps_u = diffusion.score_net(store, x, 0.5, cond_same, cfg).data
    alpha = diffusion.score_from_noise(eps_c, 0.5, SCHED) - diffusion.score_from_noise(eps_u, 0.5, SCHED)
    assert np.all(alpha == 0.0)

    # affine in gamma to 1e-6
    cond_mel = diffusion.ScoreCondition(c_mel, spk)
    g = lambda gamma: diffusion.cfg_score(store, x, 0.5, cond, cond_mel, gamma, SCHED, cfg)
    lhs = g(0.3) + g(2.1)
    rhs = 2.0 * g(1.2)
    assert np.max(np.abs(lhs - rhs)) < 1e-6

    # the guidance arithmetic itself
    assert diffusion.guided_score(2.0, 0.5, 1.0) == 3.5


# -- criterion 5: metric oracle -------------------------------------------------------


def oracle_distance(a, b):
    n, m = len(a), len(b)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(d[n, m])


def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(5)
    alphabet = "abcde "
    for _ in range(1000):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
        assert evalkit.edit_distance(list(a), list(b)) == oracle_distance(list(a), list(b))

    assert evalkit.cer("kitten", "sitting") == 0.5

    table = evalkit.MetricTable("cer", {("indicsuperb", "hindi"): (0.0616, 1)},
                                ["indicsuperb"], ["gujarati", "hindi"])
    rendered = evalkit.render_table(table, "tsv")
    row = rendered.splitlines()[1].split("\t")
    assert row == ["indicsuperb", "--", "6.16"]

    simo = evalkit.MetricTable("simo", {("indicsuperb", "hindi"): (0.7291, 20)},
                               ["indicsuperb"], ["hindi"])
    assert "0.7291" in evalkit.render_table(simo, "markdown")


# -- criterion 6: end-to-end toy training ----------------------------------------------


def test_criterion_6_toy_training(toy_training):
    lines = toy_training["lines"]
    first = float(lines[0].split(",")[4])
    last = float(lines[-1].split(",")[4])
    assert last <= 0.5 * first, f"total loss fell only to {last/first:.2f} of epoch 1"

    model = toy_training["trainer"].model
    untrained = toy_training["untrained"]
    utts = toy_training["utts"]
    pools = speaker_pools(utts)
    sample_start = time.monotonic()

    def aligned(m, utt):
        seq = m.encode_text(utt.text)
        with nc.no_grad():
            enc = encoder.encode(m.store, seq, TOY_CFG)
        prior = aligner.gaussian_log_prior(enc.mu.data.astype(np.float64), utt.mel.values)
        return seq, enc, aligner.mas(prior)

    # duration predictor totals within +-20% of the alignment totals
    for utt in utts:
        seq, enc, align = aligned(model, utt)
        for s in range(3):
            rng = np.random.default_rng([123, s])
            ref = durpred.crop_reference(pools[utt.speaker], utt.utterance_id, rng,
                                         TOY_CFG.ref_frames, speaker=utt.speaker)
            with nc.no_grad():
                att = durpred.cross_attend(model.store, enc.embeddings, ref, TOY_CFG)
                log_d = durpred.predict_log_durations(model.store, att, enc.embeddings,
                                                      TOY_CFG)
            predicted = durpred.durations_to_frames(log_d.data).total()
            ratio = predicted / align.durations.sum()
            assert 0.8 <= ratio <= 1.2, f"{utt.utterance_id} crop {s}: ratio {ratio:.3f}"

    # trained sampler beats the untrained one on every held-in utterance
    guide = diffusion.GuidanceConfig(gamma=0.0, steps=50, temperature=1.5)
    for utt in utts:
        mse = {}
        for tag, m in (("trained", model), ("untrained", untrained)):
            seq, enc, align = aligned(m, utt)
            with nc.no_grad():
                frame_mu = encoder.expand_mu(enc, align.durations).data
            e_s = speaker.embed_baseline(m.store, utt.mel)
            out = diffusion.reverse_sample(m.store, frame_mu, e_s.vector, guide,
                                           m.schedule, TOY_CFG, seed=7)
            mse[tag] = float(np.mean((out - utt.mel.values) ** 2))
        assert mse["trained"] < mse["untrained"], utt.utterance_id

    total_runtime = toy_training["elapsed"] + (time.monotonic() - sample_start)
    assert total_runtime < 900.0, f"toy pipeline took {total_runtime:.0f}s"


# -- criterion 7: speaker consistency ---------------------------------------------------


def test_criterion_7_speaker_consistency():
    cfg = TOY_CFG
    store = nc.ParamStore(dtype=np.float64)
    speaker.init_params(store, cfg.audio.n_mels, cfg.model.d_spk, np.random.default_rng(0))
    voices = toydata.default_voices(2)
    rng = np.random.default_rng(42)
    sr = cfg.audio.sample_rate

    def window(mel):
        start = int(rng.integers(0, mel.frames - 40))
        return MelSpectrogram(mel.values[start:start + 40], mel.sample_rate,
                              mel.hop_length, mel.n_mels)

    hits = 0
    for _ in range(100):
        mels = []
        for v in voices:
            text = toydata.random_text(rng, 2.5, v.tempo)
            mels.append(wav_to_mel(Waveform(toydata.render_text(v, text, sr), sr), cfg.audio))
        same_a = speaker.embed_baseline(store, window(mels[0]))
        same_b = speaker.embed_baseline(store, window(mels[0]))
        other = speaker.embed_baseline(store, window(mels[1]))
        hits += speaker.sim_o(same_a, same_b) > speaker.sim_o(same_a, other)
    assert hits >= 95, f"same-speaker similarity won only {hits}/100 trials"


# -- criterion 8: determinism and persistence --------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    corpus = tmp_path / "corpus"
    toydata.make_corpus(corpus, n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=0)
    cfg = Config(
        audio=AnalysisConfig(hop_length=512),
        model=ModelConfig(d_model=16, n_enc_blocks=1, n_heads=2, d_spk=8, dec_channels=8),
        train=TrainConfig(learning_rate=1e-4, batch_size=2, epochs=5, seed=3),
    )
    utts = load_corpus(corpus, cfg)
    vocab = build_vocab([u.text for u in utts])

    # identical seeds -> bit-identical loss logs
    lines_a = pipeline.train_epochs(pipeline.new_trainer(cfg, vocab, utts), utts, 2)
    lines_b = pipeline.train_epochs(pipeline.new_trainer(cfg, vocab, utts), utts, 2)
    assert lines_a == lines_b

    # unbroken 5 epochs (10 steps at 2 steps/epoch) vs save/load at epoch 2
    solo = pipeline.new_trainer(cfg, vocab, utts)
    solo_lines = pipeline.train_epochs(solo, utts, 5)
    split = pipeline.new_trainer(cfg, vocab, utts)
    split_lines = pipeline.train_epochs(split, utts, 2)
    ck = tmp_path / "half.ckpt"
    pipeline.save_trainer(ck, split, "stats.bin")
    resumed, _ = pipeline.load_trainer(ck)
    assert resumed.step == split.step == 4
    split_lines += pipeline.train_epochs(resumed, utts, 3)
    assert solo_lines == split_lines
    for name, p in solo.model.store.items():
        assert p.value.tobytes() == resumed.model.store[name].value.tobytes(), name

    # checkpoint round-trip is bit-exact
    ck2 = tmp_path / "full.ckpt"
    pipeline.save_trainer(ck2, resumed, "stats.bin")
    again, _ = pipeline.load_trainer(ck2)
    for name, p in resumed.model.store.items():
        assert p.value.tobytes() == again.model.store[name].value.tobytes(), name

    # identical seeds -> bit-identical mels and WAVs
    from difftts.audio import MelStats, load_wav
    stats = MelStats(np.zeros(cfg.audio.n_mels), 1, cfg.audio.fingerprint())
    ref = load_wav(corpus / "spk0_u0.wav")
    r1 = pipeline.synthesize(resumed.model, stats, "ab cd", ref, gamma=0.7, steps=4, seed=5)
    r2 = pipeline.synthesize(resumed.model, stats, "ab cd", ref, gamma=0.7, steps=4, seed=5)
    assert r1.mel.values.tobytes() == r2.mel.values.tobytes()
    assert np.array_equal(r1.wave.samples, r2.wave.samples)
    out1, out2 = tmp_path / "a.wav", tmp_path / "b.wav"
    from difftts.audio import write_wav
    write_wav(out1, r1.wave)
    write_wav(out2, r2.wave)
    assert out1.read_bytes() == out2.read_bytes()
