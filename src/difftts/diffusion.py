"""Mean-reverting forward diffusion, conditional score network, training
loss, classifier-free guidance, and the first-order reverse sampler.

The forward marginal at time t is

    X_t = e^{-B(t)/2} x0 + (1 - e^{-B(t)/2}) mu + sqrt(1 - e^{-B(t)}) eps

with B(t) the integral of the linear beta schedule.  The network predicts
the injected noise; the score follows as -eps_hat / sqrt(1 - e^{-B(t)}).
Guidance extrapolates the conditional score against one computed with the
dataset-mean mel as condition, holding the speaker embedding fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numcore as nc
from .config import Config, ConfigError, NoiseSchedule


@dataclass
class ScoreCondition:
    """Decoder conditioning: a frame-level mel condition plus a speaker vector.

    Either field may be a graph Tensor (training) or an ndarray (sampling);
    ``score_net`` turns arrays into tensors.  ``mel`` may carry a leading
    batch axis of conditions that share the speaker, as ``prepare_condition``
    builds for guidance.  ``terms`` is None, or the condition's terms that
    ``prepare_condition`` computed ahead for ``score_net`` to read instead:
    the five per-block speaker rows and the mel's term of the input conv,
    bias included, valid while the parameters are unchanged.
    """
    mel: object       # [batch x] frames x n_mels (aligned text mu, or mean-mel broadcast)
    speaker: object   # (d_spk,) unit norm
    terms: tuple | None = None


def forward_diffuse(x0, mu, t: float, noise, schedule: NoiseSchedule):
    """Closed-form marginal sample of the forward process at time t.

    Accepts ndarray or Tensor inputs; with Tensor mu the result stays on the
    tape so the loss can reach the encoder.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    m0, mmu, sigma = schedule.coefficients(t)
    x0, mu, noise = (v if isinstance(v, nc.Tensor) else nc.Tensor(v) for v in (x0, mu, noise))
    if x0.shape != mu.shape or x0.shape != noise.shape:
        raise nc.ShapeError("x0, mu and noise must share a shape")
    return x0 * m0 + mu * mmu + noise * sigma


# -- score network -------------------------------------------------------------


_BLOCKS = ("down0", "down1", "mid", "up1", "up0")


def init_params(store: nc.ParamStore, cfg: Config, rng: np.random.Generator | None) -> None:
    glorot, _ = nc.initializers(rng)
    c = cfg.model.dec_channels
    k = cfg.model.conv_kernel
    n_mels = cfg.audio.n_mels
    d_spk = cfg.model.d_spk
    store.create("dec.in.w", glorot(k * 2 * n_mels, c))
    store.create("dec.in.b", np.zeros(c))
    for name in _BLOCKS:
        b = f"dec.{name}"
        store.create(f"{b}.ln.gain", np.ones(c))
        store.create(f"{b}.ln.bias", np.zeros(c))
        store.create(f"{b}.time.w", glorot(c, c))
        store.create(f"{b}.time.b", np.zeros(c))
        store.create(f"{b}.spk.w", glorot(d_spk, c))
        store.create(f"{b}.spk.b", np.zeros(c))
        store.create(f"{b}.conv.w", glorot(k * c, c))
        store.create(f"{b}.conv.b", np.zeros(c))
    # zero-init output head: the untrained net predicts zero noise
    store.create("dec.out.w", np.zeros((k * c, n_mels)))
    store.create("dec.out.b", np.zeros(n_mels))


def _tensor(store: nc.ParamStore, v) -> nc.Tensor:
    return v if isinstance(v, nc.Tensor) else nc.Tensor(np.asarray(v, dtype=store.dtype))


def _block_rows(store: nc.ParamStore, row: nc.Tensor, kind: str) -> list[nc.Tensor]:
    return [nc.linear(row, store[f"dec.{b}.{kind}.w"].tensor, store[f"dec.{b}.{kind}.b"].tensor)
            for b in _BLOCKS]


def _res_block(store: nc.ParamStore, x: nc.Tensor, add: nc.Tensor, name: str,
               kernel: int) -> nc.Tensor:
    h = x + add  # the block's time-plus-speaker row, broadcast over frames
    h = nc.layer_norm(h, store[f"{name}.ln.gain"].tensor, store[f"{name}.ln.bias"].tensor)
    h = nc.tanh(h)
    h = nc.conv1d(h, store[f"{name}.conv.w"].tensor, store[f"{name}.conv.b"].tensor, kernel=kernel)
    return x + h


def _upsample_to(x: nc.Tensor, frames: int) -> nc.Tensor:
    """Each row of ``x`` twice, the last once when ``frames`` is odd."""
    counts = np.full(x.shape[-2], 2, dtype=np.int64)
    counts[-1] = frames - 2 * (len(counts) - 1)
    return nc.repeat_rows(x, counts)


def _input_rows(store: nc.ParamStore, cfg: Config, part: int) -> nc.Tensor:
    """``dec.in.w``'s x_t rows (``part`` 0) or mel rows (``part`` 1).

    Each tap's block of the weight is [x_t rows | mel rows], so the input
    conv of concat(x_t, mel) is the conv of x_t plus the conv of mel.  The
    rows are sliced on the tape, so gradients reach the one parameter.
    """
    k, n = cfg.model.conv_kernel, cfg.audio.n_mels
    taps = store["dec.in.w"].tensor.reshape(k, 2 * n, -1)
    return nc.slice_rows(taps, part * n, (part + 1) * n).reshape(k * n, -1)


def _terms(store: nc.ParamStore, cond: ScoreCondition,
           cfg: Config) -> tuple[list[nc.Tensor], nc.Tensor]:
    """What depends only on ``cond``: each residual block's projection of the
    speaker, a 1 x C row per block, and the mel's input-conv term, bias included."""
    rows = _block_rows(store, _tensor(store, cond.speaker).reshape(1, -1), "spk")
    return rows, nc.conv1d(_tensor(store, cond.mel), _input_rows(store, cfg, 1),
                           store["dec.in.b"].tensor, kernel=cfg.model.conv_kernel)


def prepare_condition(store: nc.ParamStore, cond: ScoreCondition, cfg: Config,
                      cond_mel: ScoreCondition | None = None) -> ScoreCondition:
    """``cond``, batched or not, with its ``terms`` computed off the tape; given
    ``cond_mel``, the batch [``cond``, ``cond_mel``] that one guided pass reads.

    Guidance holds the speaker fixed, so both conditions must carry the same
    speaker vector, and their mels must share the frame count.  A non-finite
    term raises NumericError naming the op.
    """
    if cond_mel is not None:
        mel_c, mel_u = np.asarray(cond.mel), np.asarray(cond_mel.mel)
        if mel_c.shape != mel_u.shape:
            raise nc.ShapeError("conditional and unconditional mels must share frame count")
        if not np.array_equal(cond.speaker, cond_mel.speaker):
            raise ValueError("guidance holds the speaker fixed: "
                             "both conditions need the same speaker")
        cond = ScoreCondition(np.stack([mel_c, mel_u]), cond.speaker)

    def forward():
        with nc.no_grad():
            rows, mel_in = _terms(store, cond, cfg)
            return ([nc.require_finite(r, "speaker row") for r in rows],
                    nc.require_finite(mel_in, "input-layer term of a mel condition"))

    return replace(cond, terms=nc.run_checked(forward))


def score_net(store: nc.ParamStore, x_t, t: float, cond: ScoreCondition,
              cfg: Config) -> nc.Tensor:
    """Predict the injected noise from (X_t, conditions, t): a small conv U.

    ``x_t`` is frames x n_mels.  With a batch of mel conditions (B x frames
    x n_mels) every condition sees the same ``x_t``, ``t`` and speaker in
    one pass, and the result is B x frames x n_mels; slice b equals the
    unbatched result for condition b bit for bit.  The input conv of
    ``x_t`` runs once, unbatched, and is added to each condition's term.
    """
    k = cfg.model.conv_kernel
    x = _tensor(store, x_t)
    rows, mel_in = cond.terms or _terms(store, cond, cfg)
    if x.data.ndim != 2 or x.shape[0] != mel_in.shape[-2]:
        raise nc.ShapeError(f"sample/condition frames disagree: {x.shape} vs {mel_in.shape}")
    t_emb = nc.Tensor(nc.sinusoidal_embedding(t, cfg.model.dec_channels, dtype=store.dtype))
    adds = {b: t_add + s_add for b, t_add, s_add in
            zip(_BLOCKS, _block_rows(store, t_emb, "time"), rows)}

    def block(h: nc.Tensor, name: str) -> nc.Tensor:
        return _res_block(store, h, adds[name], f"dec.{name}", k)

    h0 = block(nc.conv1d(x, _input_rows(store, cfg, 0), kernel=k) + mel_in, "down0")
    h1 = block(nc.avg_pool_rows(h0), "down1")
    h2 = block(nc.avg_pool_rows(h1), "mid")
    u1 = block(_upsample_to(h2, h1.shape[-2]) + h1, "up1")
    u0 = block(_upsample_to(u1, h0.shape[-2]) + h0, "up0")
    return nc.conv1d(u0, store["dec.out.w"].tensor, store["dec.out.b"].tensor, kernel=k)


def score_from_noise(eps_hat: np.ndarray, t: float, schedule: NoiseSchedule) -> np.ndarray:
    """Gaussian-marginal identity: score = -eps_hat / sigma_t."""
    sigma = schedule.coefficients(t)[2]
    return -np.asarray(eps_hat) / sigma


# -- training loss ---------------------------------------------------------------


def diffusion_loss(store: nc.ParamStore, x0: np.ndarray, mu: nc.Tensor,
                   speaker, rng: np.random.Generator, cfg: Config) -> nc.Tensor:
    """Noise-prediction MSE at a time drawn uniformly from [t_min, 1) of ``cfg.schedule``."""
    t = float(rng.uniform(cfg.schedule.t_min, 1.0))
    eps = nc.Tensor(rng.standard_normal(x0.shape).astype(store.dtype))
    x_t = forward_diffuse(nc.Tensor(np.asarray(x0, dtype=store.dtype)), mu, t, eps, cfg.schedule)
    diff = score_net(store, x_t, t, ScoreCondition(mu, speaker), cfg) - eps
    return (diff * diff).mean()


# -- guidance and sampling --------------------------------------------------------


def guided_score(s_cond, s_uncond, gamma: float):
    """s_cond + gamma * (s_cond - s_uncond), the guidance extrapolation."""
    return s_cond + gamma * (s_cond - s_uncond)


def cfg_score(store: nc.ParamStore, x_t: np.ndarray, t: float,
              cond_c: ScoreCondition, cond_mel: ScoreCondition | None,
              gamma: float, schedule: NoiseSchedule, cfg: Config) -> np.ndarray:
    """Guided score; gamma 0 short-circuits to the conditional score and is
    the only setting that may omit ``cond_mel``.

    At gamma > 0 both conditions go through one ``score_net`` pass, as the
    pair ``prepare_condition(store, cond_c, cfg, cond_mel)``.  A pair so
    prepared may also be passed itself as ``cond_c`` with ``cond_mel`` None,
    as ``reverse_sample`` does.  ``score_net`` runs off the tape, its result
    checked once for finiteness.
    """
    if gamma != 0.0:
        if cond_mel is not None:
            cond_c = prepare_condition(store, cond_c, cfg, cond_mel)
        elif len(cond_c.mel.shape) != 3:
            raise ValueError(f"guidance at gamma={gamma} needs the unconditional mel condition")

    with nc.no_grad():
        eps = nc.run_checked(lambda: nc.require_finite(score_net(store, x_t, t, cond_c, cfg),
                                                       "score_net output")).data
    s = score_from_noise(eps, t, schedule)
    return s if gamma == 0.0 else guided_score(s[0], s[1], gamma)


def integrate(score, x: np.ndarray, mu: np.ndarray, schedule: NoiseSchedule,
              steps: int) -> np.ndarray:
    """Euler steps of dX = (mu/2 - X/2 - s) beta dt, s = ``score(x_t, t)``, from
    X_1 = ``x`` at t=1 down to schedule.t_min; the sample keeps x's dtype.

    A NumericError from ``score`` is raised again naming the step and its t.
    """
    h = (1.0 - schedule.t_min) / steps
    for k in range(steps):
        t = 1.0 - k * h
        try:
            s = score(x, t)
        except nc.NumericError as exc:
            raise nc.NumericError(f"sampler step {k + 1} of {steps} (t={t:.4g}): {exc}") from exc
        drift = (0.5 * (mu - x) - s) * schedule.beta(t)
        x = (x - h * drift).astype(x.dtype)
    return x


@dataclass(frozen=True)
class GuidanceConfig:
    """Sampler settings; gamma and steps are the `difftts synth` defaults."""
    gamma: float = 1.0
    steps: int = 50
    temperature: float = 1.5

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ConfigError(f"guidance.gamma must be non-negative and finite, got {self.gamma}")
        if self.steps < 1:
            raise ConfigError(f"guidance.steps must be positive, got {self.steps}")
        if not 0 < self.temperature < math.inf:
            raise ConfigError(f"guidance.temperature must be positive and finite, "
                              f"got {self.temperature}")


def reverse_sample(store: nc.ParamStore, mu: np.ndarray, speaker: np.ndarray,
                   guidance: GuidanceConfig, schedule: NoiseSchedule, cfg: Config,
                   seed: int, cond_mel: np.ndarray | None = None) -> np.ndarray:
    """``integrate`` from X_1 ~ N(mu, temperature * I) with the guided score.

    Deterministic given the seed: randomness enters only through X_1.  The
    condition, at gamma > 0 the guidance pair of mu and ``cond_mel`` (used
    only then), is prepared once, not once per step.
    """
    if guidance.gamma != 0.0 and cond_mel is None:
        raise ValueError(f"guidance at gamma={guidance.gamma} needs the unconditional mel "
                         "condition")
    mu = np.asarray(mu, dtype=store.dtype)
    spk = np.asarray(speaker, dtype=store.dtype)
    rng = np.random.default_rng(seed)
    x = mu + math.sqrt(guidance.temperature) * rng.standard_normal(mu.shape).astype(store.dtype)
    uncond = (ScoreCondition(np.asarray(cond_mel, dtype=store.dtype), spk)
              if guidance.gamma != 0.0 else None)
    try:
        cond = prepare_condition(store, ScoreCondition(mu, spk), cfg, uncond)
    except nc.NumericError as exc:
        raise nc.NumericError(f"sampler conditions: {exc}") from exc
    return integrate(lambda x_t, t: cfg_score(store, x_t, t, cond, None, guidance.gamma,
                                              schedule, cfg), x, mu, schedule, guidance.steps)
