"""Command-line entry point: stats | train | synth | eval."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evalkit, pipeline
from .audio import (AudioFormatError, ConfigMismatchError, TooShortError, load_mel_stats,
                    load_wav, mean_mel, save_mel_stats, write_wav)
from .config import Config, ConfigError, load_config
from .corpus import load_corpus
from .diffusion import GuidanceConfig
from .textfront import build_vocab


def _config_from_args(args) -> Config:
    return load_config(args.config) if args.config else Config()


def _default_stats_path(corpus_dir) -> Path:
    return Path(corpus_dir) / "melstats.bin"


def _output_path(flag: str, path) -> Path:
    """``path`` as given to ``flag``; refused, before any work, unless its
    directory exists."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{flag}: {path}: directory {path.parent} does not exist")
    return path


def cmd_stats(args) -> int:
    out = _output_path("--out", args.out) if args.out else _default_stats_path(args.corpus)
    cfg = _config_from_args(args)
    utterances = load_corpus(args.corpus, cfg)
    stats = mean_mel([u.mel for u in utterances], cfg.audio)
    save_mel_stats(out, stats)
    print(f"wrote {out}: {stats.frame_count} frames over {len(utterances)} utterances")
    return 0


def cmd_train(args) -> int:
    if args.epochs is not None and args.epochs < 1:
        raise ValueError(f"--epochs must be at least 1, got {args.epochs}")
    out = _output_path("--out", args.out)
    log_path = _output_path("--log", args.log) if args.log else out.with_suffix(".losses.csv")
    cfg = _config_from_args(args)
    stats_path = Path(args.stats) if args.stats else _default_stats_path(args.corpus)
    if load_mel_stats(stats_path).fingerprint != cfg.audio.fingerprint():
        raise ConfigMismatchError(f"{stats_path}: mel stats were computed under a different "
                                  "analysis config; rerun `difftts stats` with this config")
    utterances = load_corpus(args.corpus, cfg)
    if args.resume:
        trainer, _ = pipeline.load_trainer(args.resume, cfg)
    else:
        vocab = build_vocab([u.text for u in utterances], cfg.token_mode)
        trainer = pipeline.new_trainer(cfg, vocab, utterances)
    epochs = args.epochs if args.epochs is not None else cfg.train.epochs
    if not args.resume:
        log_path.write_text("", encoding="utf-8")
    # train_epochs checkpoints after its last epoch, so ending each call at a
    # checkpoint_every multiple keeps the log at the epochs a resume starts from
    every, last = cfg.train.checkpoint_every, trainer.epoch + epochs
    while trainer.epoch < last:
        n = min(every - trainer.epoch % every, last - trainer.epoch)
        lines = pipeline.train_epochs(trainer, utterances, n,
                                      checkpoint_path=args.out, stats_path=stats_path)
        with open(log_path, "a", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)
    print(f"trained {epochs} epochs -> {args.out} (loss log: {log_path})")
    return 0


def cmd_synth(args) -> int:
    # the sampler flags are checked before any file is read, each by its name
    if args.seed < 0:
        raise ValueError(f"--seed: seed must be non-negative, got {args.seed}")
    for flag, setting in (("--gamma", {"gamma": args.gamma}), ("--steps", {"steps": args.steps})):
        try:
            GuidanceConfig(**setting)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from exc
    out = _output_path("--out", args.out)
    trainer, stored_stats = pipeline.load_trainer(args.checkpoint)
    # the text is checked against the checkpoint's vocabulary before the
    # stats or the reference is read
    trainer.model.encode_text(args.text)
    stats_path = Path(args.stats) if args.stats else stored_stats
    stats = load_mel_stats(stats_path)
    reference = load_wav(args.ref)
    try:
        result = pipeline.synthesize(trainer.model, stats, args.text, reference,
                                     gamma=args.gamma, steps=args.steps, seed=args.seed)
    except ConfigMismatchError as exc:
        raise ConfigMismatchError(f"{stats_path}: {exc}") from exc
    except (AudioFormatError, TooShortError) as exc:  # the reference, resampled, is too short
        raise type(exc)(f"{args.ref}: {exc}") from exc
    write_wav(out, result.wave)
    frames = result.durations.frames
    print("durations:", " ".join(str(int(d)) for d in frames))
    print(f"wrote {out}: {frames.sum()} frames, {result.wave.duration():.2f} s")
    return 0


def cmd_eval(args) -> int:
    records = evalkit.read_manifest(args.manifest)
    table = evalkit.aggregate(records, args.mode)
    text = evalkit.render_table(table, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if table.skipped:
        print(f"warning: skipped {table.skipped} records without {table.label} data",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="difftts",
                                     description="speaker-conditioned diffusion TTS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="compute the dataset-mean mel statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train on a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--stats", help="mel stats file written by `difftts stats`")
    p.add_argument("--log", help="loss log path")
    p.add_argument("--epochs", type=int, help="override config epoch count")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="synthesize speech from text + reference audio")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--ref", required=True, help="reference WAV of the target speaker")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--gamma", type=float, default=GuidanceConfig.gamma,
                   help="guidance scale, 0 disables (default: %(default)s)")
    p.add_argument("--steps", type=int, default=GuidanceConfig.steps,
                   help="sampler steps (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", help="override the checkpoint's stats reference")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a manifest and render the table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("cer", "wer", "simo"), required=True)
    p.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface errors as exit code + message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
