"""End-to-end assembly: the full model, the training loop, and synthesis.

Randomness is stateless per step: every draw comes from a generator keyed by
(seed, purpose, counter), so a resumed run replays the exact stream of the
unbroken one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aligner, checkpoint, diffusion, durpred, encoder, speaker
from . import numcore as nc
from .audio import (LOG_CEILING, LOG_FLOOR, ConfigMismatchError, MelSpectrogram, MelStats,
                    Waveform, broadcast_mean, griffin_lim, wav_to_mel)
from .config import Config, parse_config
from .corpus import Utterance, speaker_pools
from .durpred import DurationVector
from .textfront import PhonemeSequence, Vocabulary, VocabularyError, encode_text

# rng stream tags
_INIT, _ORDER, _STEP, _CROP, _SAMPLE = range(5)


def _init_params(store, cfg: Config, vocab: Vocabulary, rng: np.random.Generator | None) -> None:
    """Create the four modules' parameters in ``store``, in checkpoint order."""
    encoder.init_params(store, cfg, len(vocab), rng)
    durpred.init_params(store, cfg, rng)
    speaker.init_params(store, cfg.audio.n_mels, cfg.model.d_spk, rng)
    diffusion.init_params(store, cfg, rng)


class _ParamShapes(dict):
    """Stands in for a ParamStore to record each parameter's shape by name."""

    def create(self, name: str, value: np.ndarray) -> None:
        self[name] = value.shape


class TTSModel:
    """Parameter store plus config/vocab; everything forward passes need."""

    def __init__(self, cfg: Config, vocab: Vocabulary, seed: int,
                 store: nc.ParamStore | None = None):
        """Parameters drawn from ``seed``, unless ``store`` already holds them."""
        self.cfg = cfg
        self.vocab = vocab
        self.schedule = cfg.schedule
        if store is None:
            store = nc.ParamStore()
            _init_params(store, cfg, vocab, np.random.default_rng([seed, _INIT]))
        self.store = store

    def encode_text(self, text: str) -> PhonemeSequence:
        return encode_text(text, self.vocab, self.cfg.token_mode)


@dataclass
class Trainer:
    model: TTSModel
    opt: nc.Adam
    epoch: int = 0

    @property
    def step(self) -> int:
        """Optimizer steps taken: Adam's own count."""
        return self.opt.t


def new_trainer(cfg: Config, vocab: Vocabulary,
                utterances: list[Utterance] | None = None) -> Trainer:
    model = TTSModel(cfg, vocab, seed=cfg.train.seed)
    if utterances:
        # start the duration head at the corpus average log frames-per-token;
        # the regression then only has to learn deviations from the mean rate
        frames = sum(u.mel.frames for u in utterances)
        tokens = sum(len(_encode_utterance(model, u)) for u in utterances)
        model.store["dur.head.b"].tensor.data[:] = np.log(max(frames / tokens, 1.0))
    opt = nc.Adam(model.store, lr=cfg.train.learning_rate)
    return Trainer(model, opt)


def _encode_utterance(model: TTSModel, utt: Utterance) -> PhonemeSequence:
    try:
        return model.encode_text(utt.text)
    except VocabularyError as exc:
        raise VocabularyError(f"utterance {utt.utterance_id}: {exc}") from exc


def _utterance_losses(model: TTSModel, utt: Utterance, seq: PhonemeSequence,
                      pool: dict[str, MelSpectrogram], rng: np.random.Generator):
    cfg = model.cfg
    store = model.store
    enc = encoder.encode(store, seq, cfg)
    mu = nc.require_finite(enc.mu, "encoder mel means").data
    align = aligner.mas(aligner.gaussian_log_prior(mu, utt.mel.values))
    frame_mu = encoder.expand_mu(enc, align.durations)
    mel = utt.mel.values.astype(store.dtype)
    l_enc = encoder.encoder_prior_loss(frame_mu, mel)
    ref = durpred.crop_reference(pool, utt.utterance_id, rng, model.cfg.ref_frames,
                                 speaker=utt.speaker)
    att = durpred.cross_attend(store, enc.embeddings, ref, cfg)
    log_d = durpred.predict_log_durations(store, att, enc.embeddings, cfg)
    l_dur = durpred.duration_loss(log_d, align.durations)
    e_s = speaker.embed_tensor(store, utt.mel)
    l_diff = diffusion.diffusion_loss(store, mel, frame_mu, e_s, rng, cfg)
    return l_enc, l_dur, l_diff


def _step_loss(model: TTSModel, step: int, batch: np.ndarray, utterances: list[Utterance],
               seqs: list[PhonemeSequence], pools: dict[str, dict[str, MelSpectrogram]],
               sums: np.ndarray) -> nc.Tensor:
    """The step's mean batch loss, from the step's own generator so that a
    second call replays the first; adds each utterance's loss terms to ``sums``."""
    rng = np.random.default_rng([model.cfg.train.seed, _STEP, step])
    total = None
    for idx in batch:
        utt = utterances[idx]
        try:
            l_enc, l_dur, l_diff = _utterance_losses(model, utt, seqs[idx], pools[utt.speaker], rng)
            utt_total = l_enc + l_dur + l_diff
            total = nc.require_finite(utt_total if total is None else total + utt_total, "loss")
        except nc.NumericError as exc:
            raise nc.NumericError(f"step {step}, utterance {utt.utterance_id}: {exc}") from exc
        sums += (l_enc.item(), l_dur.item(), l_diff.item())
    return total * (1.0 / len(batch))


def train_epochs(trainer: Trainer, utterances: list[Utterance], n_epochs: int,
                 log_lines: list[str] | None = None,
                 checkpoint_path=None, stats_path="") -> list[str]:
    """Run n_epochs more epochs; returns the per-epoch loss-log lines.

    Given ``checkpoint_path``, saves the trainer once, after the last epoch.
    """
    if checkpoint_path is not None:
        _require_stats_path(checkpoint_path, stats_path)
    pools = speaker_pools(utterances)
    model = trainer.model
    cfg = model.cfg
    seqs = []
    for utt in utterances:
        seq = _encode_utterance(model, utt)
        if len(seq) > utt.mel.frames:
            raise aligner.InfeasibleError(
                f"utterance {utt.utterance_id}: {len(seq)} tokens over {utt.mel.frames} frames; "
                "alignment needs at least one frame per token")
        seqs.append(seq)
    lines = log_lines if log_lines is not None else []
    n = len(utterances)
    batch_size = min(cfg.train.batch_size, n)
    for _ in range(n_epochs):
        # the epoch advances only once its work is done, so a refused step
        # leaves it in agreement with the parameters and Adam's step count
        epoch = trainer.epoch + 1
        order = np.random.default_rng([cfg.train.seed, _ORDER, epoch]).permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            step = trainer.step + 1
            # last step's gradients go before the forward, and backward frees
            # the graph as it runs, so a step holds one graph and no stale grads
            model.store.zero_grads()
            loss = nc.run_checked(
                lambda: _step_loss(model, step, batch, utterances, seqs, pools, sums))
            loss.backward()
            trainer.opt.step()
        trainer.epoch = epoch
        enc_m, dur_m, diff_m = (float(v) for v in sums / n)
        lines.append(f"{trainer.epoch},{enc_m!r},{dur_m!r},{diff_m!r},{enc_m + dur_m + diff_m!r}")
    if checkpoint_path is not None:
        save_trainer(checkpoint_path, trainer, stats_path)
    return lines


# -- persistence ---------------------------------------------------------------


def _require_stats_path(path, stats_path) -> None:
    # `difftts synth` finds the mel stats through this path, so a checkpoint
    # that names no file, such as "", "." or "..", could not be synthesized from
    if os.path.basename(os.fspath(stats_path)) in ("", ".", ".."):
        raise checkpoint.CheckpointError(
            f"{path}: a checkpoint must name its mel stats file (written by `difftts stats`), "
            f"not {os.fspath(stats_path)!r}")


def save_trainer(path, trainer: Trainer, stats_path) -> None:
    _require_stats_path(path, stats_path)
    # a relative stats path is stored relative to the checkpoint's directory,
    # so `load_trainer` finds the file from any working directory
    if not os.path.isabs(stats_path):
        stats_path = os.path.relpath(stats_path, Path(path).parent)
    model = trainer.model
    tensors = {f"param.{name}": p.value for name, p in model.store.items()}
    for name, _ in model.store.items():
        tensors[f"adam.m.{name}"] = trainer.opt.m[name]
        tensors[f"adam.v.{name}"] = trainer.opt.v[name]
    metadata = {"config": model.cfg.to_lines(), "vocab": model.vocab.symbols,
                "melstats": str(stats_path), "step": trainer.step, "epoch": trainer.epoch}
    checkpoint.save_checkpoint(path, metadata, tensors)


def load_trainer(path, cfg: Config | None = None) -> tuple[Trainer, Path]:
    """Rebuild a trainer from a checkpoint; returns it plus the stats path,
    a stored relative path resolved against the checkpoint's directory.

    A requested ``cfg`` must equal the stored config, whose keys missing from
    the file take their defaults.
    """
    meta, tensors = checkpoint.load_checkpoint(path)
    try:
        stored_cfg = parse_config("\n".join(meta["config"]))
        vocab = Vocabulary(meta["vocab"])
        step, epoch, stats_path = meta["step"], meta["epoch"], meta["melstats"]
    except (KeyError, TypeError, ValueError) as exc:
        raise checkpoint.CheckpointError(f"{path}: bad checkpoint metadata: {exc!r}") from exc
    if not all(type(v) is int and v >= 0 for v in (step, epoch)) or type(stats_path) is not str:
        raise checkpoint.CheckpointError(f"{path}: bad checkpoint counters or stats path")
    if cfg is None:
        cfg = stored_cfg
    elif cfg != stored_cfg:
        diffs = [f"{have} (requested {want})"
                 for have, want in zip(stored_cfg.to_lines(), cfg.to_lines()) if have != want]
        raise checkpoint.CheckpointError(
            f"{path}: the checkpoint was written with different settings: " + ", ".join(diffs))
    # the parameters and moments are the file's own arrays: the names and
    # shapes come from running the init functions without drawing anything
    shapes = _ParamShapes()
    _init_params(shapes, cfg, vocab, None)
    store = nc.ParamStore()

    def record(key: str, shape: tuple[int, ...]) -> np.ndarray:
        if key not in tensors:
            raise checkpoint.CheckpointError(f"{path}: missing tensor {key}")
        value = tensors.pop(key)
        if value.shape != shape:
            raise checkpoint.CheckpointError(
                f"{path}: {key} has shape {value.shape}, expected {shape}")
        return value.astype(store.dtype, copy=False)

    m, v = {}, {}
    for name, shape in shapes.items():
        try:
            store.create(name, record(f"param.{name}", shape))
        except nc.NumericError as exc:
            raise checkpoint.CheckpointError(f"{path}: param.{name}: {exc}") from exc
        m[name] = record(f"adam.m.{name}", shape)
        v[name] = record(f"adam.v.{name}", shape)
    if tensors:
        raise checkpoint.CheckpointError(
            f"{path}: unexpected tensor {next(iter(tensors))}; the model has no such record")
    model = TTSModel(cfg, vocab, cfg.train.seed, store)
    opt = nc.Adam(store, cfg.train.learning_rate, t=step, moments=(m, v))
    return Trainer(model, opt, epoch), Path(path).parent / stats_path


# -- synthesis -------------------------------------------------------------------


@dataclass
class SynthesisResult:
    mel: MelSpectrogram
    durations: DurationVector
    wave: Waveform


def synthesize(model: TTSModel, stats: MelStats, text: str, reference: Waveform,
               gamma: float, steps: int, seed: int) -> SynthesisResult:
    """Text + one reference recording -> mel -> waveform.

    ``stats`` must come from the model's analysis config, or the mean-mel
    guidance anchor would sit in another feature space.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cfg = model.cfg
    store = model.store
    guide = diffusion.GuidanceConfig(gamma=gamma, steps=steps)
    if stats.fingerprint != cfg.audio.fingerprint():
        raise ConfigMismatchError("mel stats were computed under a different analysis config "
                                  "than the model's; rerun `difftts stats` with its config")
    seq = model.encode_text(text)
    ref_mel = wav_to_mel(reference, cfg.audio)

    window = durpred.crop_window(ref_mel, cfg.ref_frames, np.random.default_rng([seed, _CROP]))
    ref = durpred.ReferenceMel(window, "reference", "reference")

    def front_end():
        with nc.no_grad():
            enc = encoder.encode(store, seq, cfg)
            att = durpred.cross_attend(store, enc.embeddings, ref, cfg)
            log_d = nc.require_finite(durpred.predict_log_durations(store, att, enc.embeddings, cfg),
                                      "log-durations")
            durations = durpred.durations_to_frames(log_d.data)
            frame_mu = nc.require_finite(encoder.expand_mu(enc, durations.frames), "frame means")
        return durations, frame_mu.data

    durations, frame_mu = nc.run_checked(front_end)
    e_s = speaker.embed_baseline(store, ref_mel)
    c_mel = broadcast_mean(stats, frame_mu.shape[0], cfg.audio).values
    mel_values = diffusion.reverse_sample(
        store, frame_mu, e_s.vector, guide, cfg.schedule, cfg,
        seed=[seed, _SAMPLE], cond_mel=c_mel)
    # a weakly trained score lets the reverse dynamics wander; clamp into the
    # valid log-magnitude range before inverting to audio
    mel_values = np.clip(mel_values.astype(np.float64), np.log(LOG_FLOOR), LOG_CEILING)
    mel = MelSpectrogram(mel_values, cfg.audio.sample_rate,
                         cfg.audio.hop_length, cfg.audio.n_mels)
    wave = griffin_lim(mel, cfg.audio)
    return SynthesisResult(mel, durations, wave)
