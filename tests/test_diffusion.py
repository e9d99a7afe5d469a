import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import diffusion
from difftts import numcore as nc
from tests.conftest import tiny_config

SCHED = diffusion.NoiseSchedule(beta0=0.05, beta1=20.0)


def make_store(cfg, seed=0):
    store = nc.ParamStore(dtype=np.float64)
    diffusion.init_params(store, cfg, np.random.default_rng(seed))
    return store


def count_calls(monkeypatch, *names):
    """Count the calls of each named diffusion function; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(diffusion, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in names:
        monkeypatch.setattr(diffusion, name, counted(name))
    return calls


def randomize_head(store, seed=9):
    # the output conv is zero-initialized; give it weights for tests that
    # need a non-degenerate network
    rng = np.random.default_rng(seed)
    store["dec.out.w"].tensor.data[:] = 0.3 * rng.standard_normal(store["dec.out.w"].value.shape)


# -- schedule ------------------------------------------------------------------

def test_cumulative_matches_hand_integral():
    assert SCHED.cumulative(0.5) == pytest.approx(2.51875, abs=1e-12)
    m0, mmu, sigma = SCHED.coefficients(0.5)
    assert m0 == pytest.approx(math.exp(-1.259375), rel=1e-12)
    assert sigma**2 == pytest.approx(1.0 - math.exp(-2.51875), rel=1e-12)
    assert mmu == pytest.approx(1.0 - m0, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        diffusion.NoiseSchedule(beta0=2.0, beta1=1.0)


def test_coefficients_at_zero():
    m0, mmu, sigma = SCHED.coefficients(0.0)
    assert (m0, mmu, sigma) == (1.0, 0.0, 0.0)


@given(st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_mean_coefficients_convex(t):
    m0, mmu, _ = SCHED.coefficients(t)
    assert m0 + mmu == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= m0 <= 1.0


def test_variance_monotone():
    ts = np.linspace(0.0, 1.0, 50)
    sig = [SCHED.coefficients(t)[2] for t in ts]
    assert all(b >= a for a, b in zip(sig, sig[1:]))


# -- forward diffusion ------------------------------------------------------------

def test_forward_diffuse_near_zero_time():
    x0 = np.ones((3, 4))
    mu = np.zeros((3, 4))
    eps = np.random.default_rng(0).standard_normal((3, 4))
    out = diffusion.forward_diffuse(x0, mu, 1e-9, eps, SCHED)
    np.testing.assert_allclose(out.data, x0, atol=1e-4)


def test_forward_diffuse_rejects_bad_time():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        diffusion.forward_diffuse(z, z, 0.0, z, SCHED)
    with pytest.raises(ValueError):
        diffusion.forward_diffuse(z, z, 1.5, z, SCHED)


def test_forward_marginal_monte_carlo():
    rng = np.random.default_rng(42)
    x0 = rng.standard_normal((2, 3))
    mu = rng.standard_normal((2, 3))
    t = 0.5
    m0, mmu, sigma = SCHED.coefficients(t)
    n = 10_000
    draws = np.stack([
        diffusion.forward_diffuse(x0, mu, t, rng.standard_normal((2, 3)), SCHED).data
        for _ in range(n)
    ])
    exact_mean = m0 * x0 + mmu * mu
    se_mean = sigma / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - exact_mean) < 3 * se_mean)
    var = draws.var(axis=0)
    se_var = sigma**2 * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - sigma**2) < 3 * se_var)


# -- score network ----------------------------------------------------------------

def test_score_net_shape_contract(tiny_cfg):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(1)
    for frames in (1, 2, 5, 9):
        x = rng.standard_normal((frames, tiny_cfg.audio.n_mels))
        cond = diffusion.ScoreCondition(rng.standard_normal((frames, tiny_cfg.audio.n_mels)),
                                        rng.standard_normal(tiny_cfg.model.d_spk))
        out = diffusion.score_net(store, x, 0.5, cond, tiny_cfg)
        assert out.shape == x.shape


@pytest.mark.parametrize("batch", [(), (2,)])
def test_input_layer_is_the_conv_of_the_concatenation(tiny_cfg, monkeypatch, batch):
    # the split input conv against the one conv of concat(x_t, mel); the
    # bias is nonzero so a lost or doubled bias shows too
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(5)
    store["dec.in.b"].tensor.data[:] = rng.standard_normal(tiny_cfg.model.dec_channels)
    x = rng.standard_normal((7, tiny_cfg.audio.n_mels))
    mel = rng.standard_normal(batch + (7, tiny_cfg.audio.n_mels))
    seen = {}
    res_block = diffusion._res_block

    def spy(store, h, add, name, kernel):
        seen.setdefault(name, h)
        return res_block(store, h, add, name, kernel)

    monkeypatch.setattr(diffusion, "_res_block", spy)
    diffusion.score_net(store, x, 0.5, diffusion.ScoreCondition(mel, rng.standard_normal(
        tiny_cfg.model.d_spk)), tiny_cfg)
    joined = np.concatenate([np.broadcast_to(x, mel.shape), mel], axis=-1)
    want = nc.conv1d(nc.Tensor(joined), store["dec.in.w"].tensor, store["dec.in.b"].tensor,
                     kernel=tiny_cfg.model.conv_kernel).data
    got = seen["dec.down0"].data
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_prepared_condition_matches_raw(tiny_cfg, dtype, batch):
    store = nc.ParamStore(dtype=dtype)
    diffusion.init_params(store, tiny_cfg, np.random.default_rng(0))
    randomize_head(store)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    cond = diffusion.ScoreCondition(rng.standard_normal(batch + (6, tiny_cfg.audio.n_mels)),
                                    rng.standard_normal(tiny_cfg.model.d_spk))
    prepared = diffusion.prepare_condition(store, cond, tiny_cfg)
    with nc.no_grad():
        raw = diffusion.score_net(store, x, 0.3, cond, tiny_cfg)
        ahead = diffusion.score_net(store, x, 0.3, prepared, tiny_cfg)
    assert raw.data.dtype == ahead.data.dtype == dtype
    assert raw.data.tobytes() == ahead.data.tobytes()


@pytest.mark.parametrize("rows, frames", [(3, 6), (3, 5), (1, 2), (1, 1)])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_upsample_matches_repeat_then_slice(rows, frames, batch):
    # one repeat whose last count is 1 at an odd frame count, against every
    # row doubled and the surplus row sliced off: values and gradients
    rng = np.random.default_rng(rows * 10 + frames)
    data = rng.standard_normal(batch + (rows, 4)).astype(np.float32)
    weights = nc.Tensor(rng.standard_normal(batch + (frames, 4)).astype(np.float32))

    def run(upsample):
        x = nc.Tensor(data, requires_grad=True)
        out = upsample(x)
        (out * weights).sum().backward()
        return out.data.tobytes(), x.grad.tobytes()

    def reference(x):
        return nc.slice_rows(nc.repeat_rows(x, np.full(rows, 2)), 0, frames)

    assert run(lambda x: diffusion._upsample_to(x, frames)) == run(reference)


def test_speaker_conditioning_is_not_degenerate(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    mel = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    e1 = rng.standard_normal(tiny_cfg.model.d_spk)
    e2 = rng.standard_normal(tiny_cfg.model.d_spk)
    a = diffusion.score_net(store, x, 0.5, diffusion.ScoreCondition(mel, e1), tiny_cfg)
    b = diffusion.score_net(store, x, 0.5, diffusion.ScoreCondition(mel, e2), tiny_cfg)
    assert np.max(np.abs(a.data - b.data)) > 0.0


def test_score_net_gradients(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(3)
    x = nc.Tensor(rng.standard_normal((5, tiny_cfg.audio.n_mels)), requires_grad=True)
    mel = nc.Tensor(rng.standard_normal((5, tiny_cfg.audio.n_mels)), requires_grad=True)
    spk = nc.Tensor(rng.standard_normal(tiny_cfg.model.d_spk), requires_grad=True)
    tensors = [p.tensor for _, p in store.items()] + [x, mel, spk]

    def forward():
        out = diffusion.score_net(store, x, 0.37, diffusion.ScoreCondition(mel, spk), tiny_cfg)
        return out.sum().tanh()

    assert nc.grad_check(forward, tensors, epsilon=1e-5) < 1e-4


def test_score_recovered_from_noise():
    eps_hat = np.ones((2, 2))
    s = diffusion.score_from_noise(eps_hat, 0.5, SCHED)
    sigma = SCHED.coefficients(0.5)[2]
    np.testing.assert_allclose(s, -eps_hat / sigma)


# -- loss ---------------------------------------------------------------------------

def test_loss_zero_for_oracle_network(tiny_cfg, monkeypatch):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    mu = nc.Tensor(rng.standard_normal((6, tiny_cfg.audio.n_mels)))

    def oracle(store_, x_t, t, cond, cfg_, prefix="dec"):
        m0, mmu, sigma = tiny_cfg.schedule.coefficients(t)
        eps = (x_t.data - m0 * x0 - mmu * mu.data) / sigma
        return nc.Tensor(eps)

    monkeypatch.setattr(diffusion, "score_net", oracle)
    loss = diffusion.diffusion_loss(store, x0, mu, np.zeros(tiny_cfg.model.d_spk),
                                    np.random.default_rng(5), tiny_cfg)
    assert loss.item() < 1e-20


def test_loss_near_one_for_zero_network(tiny_cfg):
    # the output head is zero-initialized, so eps_hat == 0 and the loss is the
    # second moment of the injected unit noise
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    mu = nc.Tensor(rng.standard_normal((4, tiny_cfg.audio.n_mels)))
    n = 400  # 400 draws x 24 entries ~ 1e4 noise samples
    vals = [diffusion.diffusion_loss(store, x0, mu, np.zeros(tiny_cfg.model.d_spk),
                                     np.random.default_rng(100 + i), tiny_cfg).item()
            for i in range(n)]
    entries = n * x0.size
    se = math.sqrt(2.0 / entries)  # var of eps^2 is 2 for unit normals
    assert abs(np.mean(vals) - 1.0) < 3 * se


def test_loss_decreases_during_training(tiny_cfg):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((8, tiny_cfg.audio.n_mels))
    mu = nc.Tensor(rng.standard_normal((8, tiny_cfg.audio.n_mels)))
    spk = np.zeros(tiny_cfg.model.d_spk)
    opt = nc.Adam(store, lr=1e-3)
    losses = []
    for step in range(200):
        store.zero_grads()
        loss = diffusion.diffusion_loss(store, x0, mu, spk,
                                        np.random.default_rng([11, step]), tiny_cfg)
        loss.backward()
        opt.step()
        losses.append(loss.item())
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


# -- guidance ------------------------------------------------------------------------

def test_guided_score_scalar_toy():
    assert diffusion.guided_score(2.0, 0.5, 1.0) == 3.5


def test_gamma_zero_is_bitwise_conditional(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, tiny_cfg.audio.n_mels))
    c_c = diffusion.ScoreCondition(rng.standard_normal((5, tiny_cfg.audio.n_mels)),
                                   rng.standard_normal(tiny_cfg.model.d_spk))
    c_mel = diffusion.ScoreCondition(rng.standard_normal((5, tiny_cfg.audio.n_mels)),
                                     c_c.speaker)
    guided = diffusion.cfg_score(store, x, 0.5, c_c, c_mel, 0.0, SCHED, tiny_cfg)
    plain = diffusion.cfg_score(store, x, 0.5, c_c, None, 0.0, SCHED, tiny_cfg)
    assert np.array_equal(guided, plain)


def test_identical_conditions_cancel(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    mel = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    c_c = diffusion.ScoreCondition(mel, spk)
    c_same = diffusion.ScoreCondition(mel.copy(), spk.copy())
    guided = diffusion.cfg_score(store, x, 0.5, c_c, c_same, 2.5, SCHED, tiny_cfg)
    plain = diffusion.cfg_score(store, x, 0.5, c_c, None, 0.0, SCHED, tiny_cfg)
    # alpha_t is exactly zero, so gamma cannot change anything
    np.testing.assert_array_equal(guided, plain)


def test_cfg_affine_in_gamma(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    c_c = diffusion.ScoreCondition(rng.standard_normal((4, tiny_cfg.audio.n_mels)),
                                   rng.standard_normal(tiny_cfg.model.d_spk))
    c_mel = diffusion.ScoreCondition(rng.standard_normal((4, tiny_cfg.audio.n_mels)),
                                     c_c.speaker)
    g = lambda gamma: diffusion.cfg_score(store, x, 0.5, c_c, c_mel, gamma, SCHED, tiny_cfg)
    lhs = g(0.4) + g(1.8)
    rhs = 2.0 * g(1.1)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def two_pass_cfg_score(store, x, t, c_c, c_mel, gamma, cfg):
    # the reference: one unbatched score_net pass per condition
    with nc.no_grad():
        eps_c = diffusion.score_net(store, x, t, c_c, cfg).data
        eps_u = diffusion.score_net(store, x, t, c_mel, cfg).data
    return diffusion.guided_score(diffusion.score_from_noise(eps_c, t, SCHED),
                                  diffusion.score_from_noise(eps_u, t, SCHED), gamma)


# cfg_score's two input forms: the two raw conditions, and the prepared
# guidance pair with no cond_mel, as reverse_sample passes it
CFG_INPUTS = [pytest.param(frames, dtype, pair,
                           id=("pair-" if pair else "") + f"{frames}-{dtype.__name__}")
              for pair in (False, True) for frames in (5, 6) for dtype in (np.float32, np.float64)]


@pytest.mark.parametrize("frames, dtype, pair", CFG_INPUTS)
def test_one_pass_cfg_matches_two_pass_reference(tiny_cfg, monkeypatch, frames, dtype, pair):
    store = nc.ParamStore(dtype=dtype)
    diffusion.init_params(store, tiny_cfg, np.random.default_rng(0))
    randomize_head(store)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((frames, tiny_cfg.audio.n_mels)).astype(dtype)
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    c_c = diffusion.ScoreCondition(rng.standard_normal((frames, tiny_cfg.audio.n_mels)), spk)
    c_mel = diffusion.ScoreCondition(rng.standard_normal((frames, tiny_cfg.audio.n_mels)), spk)
    want = two_pass_cfg_score(store, x, 0.5, c_c, c_mel, 1.0, tiny_cfg)
    if pair:
        c_c, c_mel = diffusion.prepare_condition(store, c_c, tiny_cfg, c_mel), None

    # the raw pair is prepared in cfg_score, the prepared pair only read
    calls = count_calls(monkeypatch, "prepare_condition", "score_net")
    got = diffusion.cfg_score(store, x, 0.5, c_c, c_mel, 1.0, SCHED, tiny_cfg)
    assert calls == {"prepare_condition": 0 if pair else 1, "score_net": 1}
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_cfg_requires_one_speaker(tiny_cfg):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    c_c = diffusion.ScoreCondition(rng.standard_normal((4, tiny_cfg.audio.n_mels)),
                                   rng.standard_normal(tiny_cfg.model.d_spk))
    c_mel = diffusion.ScoreCondition(rng.standard_normal((4, tiny_cfg.audio.n_mels)),
                                     rng.standard_normal(tiny_cfg.model.d_spk))
    with pytest.raises(ValueError, match="speaker"):
        diffusion.cfg_score(store, x, 0.5, c_c, c_mel, 1.0, SCHED, tiny_cfg)


def test_cfg_requires_one_frame_count(tiny_cfg):
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(19)
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    c_c = diffusion.ScoreCondition(rng.standard_normal((4, tiny_cfg.audio.n_mels)), spk)
    c_mel = diffusion.ScoreCondition(rng.standard_normal((5, tiny_cfg.audio.n_mels)), spk)
    with pytest.raises(nc.ShapeError, match="frame count"):
        diffusion.cfg_score(store, c_c.mel, 0.5, c_c, c_mel, 1.0, SCHED, tiny_cfg)


# -- sampler --------------------------------------------------------------------------

def test_reverse_sample_deterministic(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(11)
    mu = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    guide = diffusion.GuidanceConfig(gamma=0.0, steps=5, temperature=1.5)
    a = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=3)
    b = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=3)
    assert np.array_equal(a, b)


def test_gamma_zero_sampling_matches_conditional_bitwise(tiny_cfg):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(12)
    mu = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    c_mel = rng.standard_normal((6, tiny_cfg.audio.n_mels))
    guide = diffusion.GuidanceConfig(gamma=0.0, steps=8, temperature=1.5)
    with_uncond = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg,
                                           seed=4, cond_mel=c_mel)
    without = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=4)
    assert np.array_equal(with_uncond, without)


def test_guidance_without_unconditional_mel_is_refused(tiny_cfg, monkeypatch):
    # refused before any work: nothing is prepared and the net never runs
    def no_work(*args):
        raise AssertionError("guidance started work")

    for name in ("prepare_condition", "score_net"):
        monkeypatch.setattr(diffusion, name, no_work)
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(14)
    mu = rng.standard_normal((4, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    cond = diffusion.ScoreCondition(mu, spk)
    with pytest.raises(ValueError, match="needs the unconditional mel"):
        diffusion.cfg_score(store, mu, 0.5, cond, None, 1.0, SCHED, tiny_cfg)
    guide = diffusion.GuidanceConfig(gamma=0.5, steps=2, temperature=1.0)
    with pytest.raises(ValueError, match="needs the unconditional mel"):
        diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=1)


def test_single_step_matches_hand_update(tiny_cfg):
    # zero-init head -> eps_hat = 0 -> score = 0, so one Euler step is pure
    # mean reversion on the initial noise draw
    store = make_store(tiny_cfg)
    rng = np.random.default_rng(13)
    mu = rng.standard_normal((3, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    guide = diffusion.GuidanceConfig(gamma=0.0, steps=1, temperature=2.0)
    out = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=5)
    x1 = mu + math.sqrt(2.0) * np.random.default_rng(5).standard_normal(mu.shape)
    h = 1.0 - SCHED.t_min
    expected = x1 - h * SCHED.beta(1.0) * 0.5 * (mu - x1)
    np.testing.assert_allclose(out, expected, rtol=1e-6)


def test_reverse_sample_prepares_its_conditions_once(tiny_cfg, monkeypatch):
    store = make_store(tiny_cfg)
    randomize_head(store)
    rng = np.random.default_rng(17)
    mu = rng.standard_normal((5, tiny_cfg.audio.n_mels))
    c_mel = rng.standard_normal((5, tiny_cfg.audio.n_mels))
    spk = rng.standard_normal(tiny_cfg.model.d_spk)
    calls = count_calls(monkeypatch, "prepare_condition", "score_net")
    guide = diffusion.GuidanceConfig(gamma=1.0, steps=4, temperature=1.0)
    diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=2, cond_mel=c_mel)
    assert calls == {"prepare_condition": 1, "score_net": 4}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reverse_sample_matches_two_pass_reference(tiny_cfg, dtype):
    # the sampler with its hoisted speaker projections and one-pass guidance
    # against the plain Euler loop over unbatched score_net calls
    store = nc.ParamStore(dtype=dtype)
    diffusion.init_params(store, tiny_cfg, np.random.default_rng(0))
    randomize_head(store)
    rng = np.random.default_rng(16)
    mu = rng.standard_normal((7, tiny_cfg.audio.n_mels)).astype(dtype)
    spk = rng.standard_normal(tiny_cfg.model.d_spk).astype(dtype)
    c_mel = rng.standard_normal((7, tiny_cfg.audio.n_mels)).astype(dtype)
    guide = diffusion.GuidanceConfig(gamma=1.0, steps=4, temperature=1.0)
    got = diffusion.reverse_sample(store, mu, spk, guide, SCHED, tiny_cfg, seed=6, cond_mel=c_mel)

    x = mu + np.random.default_rng(6).standard_normal(mu.shape).astype(dtype)
    h = (1.0 - SCHED.t_min) / guide.steps
    for k in range(guide.steps):
        t = 1.0 - k * h
        s = two_pass_cfg_score(store, x, t, diffusion.ScoreCondition(mu, spk),
                               diffusion.ScoreCondition(c_mel, spk), guide.gamma, tiny_cfg)
        drift = (0.5 * (mu - x) - s) * SCHED.beta(t)
        x = (x - h * drift).astype(dtype)
    assert np.array_equal(got, x)
