import argparse
import re
import shlex
import wave
from pathlib import Path

import numpy as np
import pytest

from difftts import aligner, checkpoint, cli, pipeline, toydata
from difftts.audio import (AnalysisConfig, AudioFormatError, ConfigMismatchError, MelStats,
                           load_mel_stats, load_wav, resample, save_mel_stats)
from difftts.checkpoint import CheckpointError, load_checkpoint
from difftts.config import Config, parse_config
from difftts.corpus import CorpusError, load_corpus, read_speaker_map
from difftts.diffusion import GuidanceConfig
from difftts.textfront import build_vocab, encode_text

TINY_CFG_TEXT = """
audio.hop_length=512
model.d_model=16
model.n_enc_blocks=1
model.n_heads=2
model.d_spk=8
model.dec_channels=8
train.batch_size=2
train.epochs=2
train.seed=3
train.checkpoint_every=50
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """The toy corpus, with its mel stats under the tiny config at the default path."""
    root = tmp_path_factory.mktemp("corpus")
    toydata.make_corpus(root, n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=0)
    cfg_path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    cfg_path.write_text(TINY_CFG_TEXT, encoding="utf-8")
    assert run_cli("stats", "--corpus", root, "--config", cfg_path) == 0
    assert (root / "melstats.bin").exists()
    return root


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG_TEXT, encoding="utf-8")
    return p


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# -- stats ---------------------------------------------------------------------

def test_stats_writes_and_is_reproducible(corpus_dir, cfg_file, tmp_path, capsys):
    out1 = tmp_path / "s1.bin"
    out2 = tmp_path / "s2.bin"
    assert run_cli("stats", "--corpus", corpus_dir, "--config", cfg_file, "--out", out1) == 0
    assert "frames" in capsys.readouterr().out
    assert run_cli("stats", "--corpus", corpus_dir, "--config", cfg_file, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats = load_mel_stats(out1)
    assert stats.frame_count > 0


def test_stats_names_corrupt_file(tmp_path, cfg_file, capsys):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=1)
    bad = tmp_path / "c" / "spk0_u0.wav"
    bad.write_bytes(b"junk")
    assert run_cli("stats", "--corpus", tmp_path / "c", "--config", cfg_file) == 1
    assert "spk0_u0.wav" in capsys.readouterr().err


def write_pcm(path, n_samples, rate):
    """A mono 16-bit WAV of ``n_samples`` zeros; 0 writes an empty data chunk."""
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(bytes(2 * n_samples))


# a WAV shorter than one FFT window, one with no samples at all, and one
# sample at 96 kHz, which resamples to none at 22.05 kHz
AUDIO_FAULTS = [pytest.param(300, 22050, "need at least 1024 samples, got 300", id="short"),
                pytest.param(0, 22050, "empty data chunk", id="empty"),
                pytest.param(1, 96000, "empty waveform", id="resampled-empty")]


@pytest.mark.parametrize("n_samples, rate, fault", AUDIO_FAULTS)
def test_stats_names_a_wav_too_short_to_analyse(tmp_path, cfg_file, capsys, n_samples, rate,
                                                fault):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=1)
    write_pcm(tmp_path / "c" / "spk1_u0.wav", n_samples, rate)
    assert run_cli("stats", "--corpus", tmp_path / "c", "--config", cfg_file) == 1
    assert f"spk1_u0.wav: {fault}" in capsys.readouterr().err


# -- train ----------------------------------------------------------------------

def test_train_deterministic_loss_log(corpus_dir, cfg_file, tmp_path):
    logs, checkpoints = [], []
    for name in ("a", "b"):
        ck = tmp_path / f"{name}.ckpt"
        log = tmp_path / f"{name}.csv"
        assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_file,
                       "--out", ck, "--log", log) == 0
        logs.append(log.read_bytes())
        checkpoints.append(ck.read_bytes())
    assert logs[0] == logs[1]
    assert checkpoints[0] == checkpoints[1]


def test_train_missing_transcript_fails(corpus_dir, tmp_path, cfg_file, capsys):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=2)
    (tmp_path / "c" / "spk1_u0.txt").unlink()
    # stats depend only on the analysis config, so another corpus's file passes the check
    assert run_cli("train", "--corpus", tmp_path / "c", "--config", cfg_file,
                   "--out", tmp_path / "x.ckpt", "--stats", corpus_dir / "melstats.bin") == 1
    assert "spk1_u0.txt" in capsys.readouterr().err


def test_speaker_map_names_a_duplicate_id(tmp_path):
    p = tmp_path / "speakers.tsv"
    p.write_text("u0\tspk0\nu1\tspk0\n\nu0\tspk1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 4: duplicate utterance id 'u0'"):
        read_speaker_map(p)


def test_speaker_map_not_utf8_names_the_file(tmp_path):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=2)
    p = tmp_path / "c" / "speakers.tsv"
    p.write_bytes(p.read_bytes().replace(b"spk1", b"spk\xff", 1))
    for read in (lambda: read_speaker_map(p), lambda: load_corpus(tmp_path / "c", Config())):
        with pytest.raises(CorpusError, match=r"speaker map .*speakers\.tsv"):
            read()


def test_transcript_not_utf8_names_the_file(tmp_path):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=2)
    p = tmp_path / "c" / "spk0_u0.txt"
    p.write_bytes(p.read_bytes() + b"\xff")
    with pytest.raises(CorpusError, match=r"transcript .*spk0_u0\.txt"):
        load_corpus(tmp_path / "c", Config())


def test_train_single_utterance_speaker_fails(corpus_dir, tmp_path, cfg_file, capsys):
    toydata.make_corpus(tmp_path / "c", n_speakers=2, utts_per_speaker=1, seconds=1.5, seed=3)
    assert run_cli("train", "--corpus", tmp_path / "c", "--config", cfg_file,
                   "--out", tmp_path / "x.ckpt", "--stats", corpus_dir / "melstats.bin") == 1
    err = capsys.readouterr().err
    assert "spk0" in err and "spk1" in err


def test_train_writes_final_checkpoint_once(corpus_dir, cfg_file, tmp_path, monkeypatch):
    writes = []
    real = checkpoint.save_checkpoint

    def counting(path, *args):
        writes.append(str(path))
        return real(path, *args)

    monkeypatch.setattr(checkpoint, "save_checkpoint", counting)
    ck = tmp_path / "m.ckpt"
    assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_file,
                   "--out", ck, "--epochs", 2) == 0
    assert writes == [str(ck)]
    pipeline.load_trainer(ck)


def test_train_starts_duration_head_at_corpus_rate(corpus_dir, cfg_file, tmp_path):
    ck = tmp_path / "m.ckpt"
    assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_file,
                   "--out", ck, "--epochs", 1) == 0
    cfg = parse_config(TINY_CFG_TEXT)
    utts = load_corpus(corpus_dir, cfg)
    vocab = build_vocab([u.text for u in utts], cfg.token_mode)
    frames = sum(u.mel.frames for u in utts)
    tokens = sum(len(encode_text(u.text, vocab, cfg.token_mode)) for u in utts)
    bias = load_checkpoint(ck)[1]["param.dur.head.b"]
    assert abs(float(bias[0]) - np.log(frames / tokens)) < 0.05


def test_loss_log_holds_the_epochs_of_the_last_checkpoint(corpus_dir, tmp_path, monkeypatch):
    cfg_file = tmp_path / "every2.cfg"
    cfg_file.write_text(TINY_CFG_TEXT.replace("checkpoint_every=50", "checkpoint_every=2"),
                        encoding="utf-8")
    common = ("--corpus", corpus_dir, "--config", cfg_file)
    whole_log = tmp_path / "whole.csv"
    assert run_cli("train", *common, "--out", tmp_path / "whole.ckpt", "--log", whole_log,
                   "--epochs", 4) == 0

    calls = []
    real = pipeline._utterance_losses

    def failing_in_epoch_3(*args):
        calls.append(None)
        if len(calls) == 9:  # 4 utterances per epoch: the first one of epoch 3
            raise RuntimeError("injected failure")
        return real(*args)

    monkeypatch.setattr(pipeline, "_utterance_losses", failing_in_epoch_3)
    ck, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
    assert run_cli("train", *common, "--out", ck, "--log", log, "--epochs", 4) == 1
    assert [line.split(",")[0] for line in log.read_text().splitlines()] == ["1", "2"]
    assert pipeline.load_trainer(ck)[0].epoch == 2
    monkeypatch.setattr(pipeline, "_utterance_losses", real)
    assert run_cli("train", *common, "--out", ck, "--log", log, "--resume", ck,
                   "--epochs", 2) == 0
    assert log.read_bytes() == whole_log.read_bytes()
    assert ck.read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


def test_train_rejects_zero_epochs(corpus_dir, cfg_file, tmp_path, capsys):
    ck = tmp_path / "m.ckpt"
    assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_file,
                   "--out", ck, "--epochs", 0) == 1
    assert "--epochs" in capsys.readouterr().err
    assert not ck.exists()


def test_train_without_stats_fails_before_reading_the_corpus(tmp_path, cfg_file, monkeypatch,
                                                             capsys):
    corpus = tmp_path / "c"
    toydata.make_corpus(corpus, n_speakers=2, utts_per_speaker=2, seconds=1.5, seed=4)
    loads = []
    monkeypatch.setattr(cli, "load_corpus", lambda *args: loads.append(args))
    ck = tmp_path / "m.ckpt"
    assert run_cli("train", "--corpus", corpus, "--config", cfg_file, "--out", ck) == 1
    err = capsys.readouterr().err
    assert str(corpus / "melstats.bin") in err and "`difftts stats`" in err
    assert loads == []
    assert not (corpus / "melstats.bin").exists()
    assert not ck.exists() and not ck.with_suffix(".losses.csv").exists()


def foreign_stats(path):
    """Mel stats stamped with another analysis config (hop 256, not the tiny hop 512)."""
    save_mel_stats(path, MelStats(np.zeros(80), 1, AnalysisConfig().fingerprint()))
    return path


def test_model_checkpoint_passed_as_mel_stats_names_the_file(tmp_path):
    # both kinds share one container, so the readers tell them apart by content
    cfg = parse_config(TINY_CFG_TEXT)
    ck = tmp_path / "model.ckpt"
    pipeline.save_trainer(ck, pipeline.new_trainer(cfg, build_vocab(["ab"])), "stats.bin")
    with pytest.raises(AudioFormatError, match=r"model\.ckpt: not a mel stats file"):
        load_mel_stats(ck)


def test_mel_stats_passed_as_checkpoint_names_the_file(tmp_path):
    stats = foreign_stats(tmp_path / "melstats.bin")
    with pytest.raises(CheckpointError, match=r"melstats\.bin: bad checkpoint metadata"):
        pipeline.load_trainer(stats)


def test_train_rejects_stats_from_another_config(corpus_dir, cfg_file, tmp_path, capsys):
    stats = foreign_stats(tmp_path / "foreign.bin")
    ck = tmp_path / "m.ckpt"
    assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_file,
                   "--out", ck, "--stats", stats) == 1
    err = capsys.readouterr().err
    assert "foreign.bin" in err and "analysis config" in err
    assert not ck.exists()


def test_checkpoint_round_trip_and_resume(corpus_dir, cfg_file, tmp_path):
    cfg = parse_config(TINY_CFG_TEXT)
    utts = load_corpus(corpus_dir, cfg)
    vocab = build_vocab([u.text for u in utts])

    # unbroken: 4 epochs in one run
    solo = pipeline.new_trainer(cfg, vocab, utts)
    solo_lines = pipeline.train_epochs(solo, utts, 4)

    # split: 2 epochs, checkpoint, reload, 2 more
    left = pipeline.new_trainer(cfg, vocab, utts)
    left_lines = pipeline.train_epochs(left, utts, 2)
    ck = tmp_path / "half.ckpt"
    pipeline.save_trainer(ck, left, tmp_path / "stats.bin")
    resumed, stats_ref = pipeline.load_trainer(ck)
    assert stats_ref == tmp_path / "stats.bin"
    resumed_lines = pipeline.train_epochs(resumed, utts, 2)

    assert solo_lines[:2] == left_lines
    assert solo_lines[2:] == resumed_lines
    for name, p in solo.model.store.items():
        assert np.array_equal(p.value, resumed.model.store[name].value), name

    # round trip is bit-exact
    ck2 = tmp_path / "again.ckpt"
    pipeline.save_trainer(ck2, resumed, "stats.bin")
    reloaded, _ = pipeline.load_trainer(ck2)
    for name, p in resumed.model.store.items():
        assert p.value.tobytes() == reloaded.model.store[name].value.tobytes(), name


def test_checkpoint_config_mismatch_rejected(corpus_dir, cfg_file, tmp_path):
    cfg = parse_config(TINY_CFG_TEXT)
    utts = load_corpus(corpus_dir, cfg)
    trainer = pipeline.new_trainer(cfg, build_vocab([u.text for u in utts]), utts)
    ck = tmp_path / "m.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    other = parse_config(TINY_CFG_TEXT + "train.seed=99\nschedule.beta1=10\n")
    with pytest.raises(CheckpointError) as info:
        pipeline.load_trainer(ck, other)
    message = str(info.value)
    assert "train.seed=3 (requested train.seed=99)" in message
    assert "schedule.beta1=20.0 (requested schedule.beta1=10.0)" in message
    assert "train.epochs" not in message


def tiny_trainer(corpus_dir, cfg_text=TINY_CFG_TEXT):
    cfg = parse_config(cfg_text)
    utts = load_corpus(corpus_dir, cfg)
    return pipeline.new_trainer(cfg, build_vocab([u.text for u in utts]), utts), utts


@pytest.mark.parametrize("seed", [123456789, 2**31 - 1])
def test_resume_is_exact_for_large_seeds(corpus_dir, tmp_path, seed):
    text = TINY_CFG_TEXT + f"train.seed={seed}\n"
    solo, utts = tiny_trainer(corpus_dir, text)
    solo_lines = pipeline.train_epochs(solo, utts, 2)
    split, _ = tiny_trainer(corpus_dir, text)
    split_lines = pipeline.train_epochs(split, utts, 1)
    ck = tmp_path / "half.ckpt"
    pipeline.save_trainer(ck, split, "stats.bin")
    resumed, _ = pipeline.load_trainer(ck)
    assert resumed.model.cfg.train.seed == seed
    split_lines += pipeline.train_epochs(resumed, utts, 1)
    assert solo_lines == split_lines
    for name, p in solo.model.store.items():
        assert p.value.tobytes() == resumed.model.store[name].value.tobytes(), name


def test_step_counter_past_float32_precision_survives(corpus_dir, tmp_path):
    trainer, _ = tiny_trainer(corpus_dir)
    trainer.opt.t, trainer.epoch = 2**24 + 1, 2**24 + 3
    ck = tmp_path / "m.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    loaded, _ = pipeline.load_trainer(ck)
    assert (loaded.step, loaded.epoch, loaded.opt.t) == (2**24 + 1, 2**24 + 3, 2**24 + 1)


def test_checkpoint_with_a_removed_key_names_file_and_key(corpus_dir, tmp_path):
    # the config lines of a checkpoint written while each key was still a setting
    trainer, _ = tiny_trainer(corpus_dir)
    ck = tmp_path / "old.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    meta, tensors = load_checkpoint(ck)
    for key in ("audio.win_length", "model.dur_heads", "model.conv_kernel", "schedule.t_min",
                "guidance.gamma", "guidance.steps", "guidance.temperature"):
        checkpoint.save_checkpoint(ck, {**meta, "config": meta["config"] + [f"{key}=1"]}, tensors)
        with pytest.raises(CheckpointError,
                           match=rf"old\.ckpt: bad checkpoint metadata: .*unknown key '{key}'"):
            pipeline.load_trainer(ck)


def test_checkpoint_without_a_defaulted_key_loads(corpus_dir, tmp_path, monkeypatch):
    # stands in for a checkpoint written before model.ref_seconds existed
    trainer, _ = tiny_trainer(corpus_dir)
    cfg = trainer.model.cfg
    assert cfg.model.ref_seconds == Config().model.ref_seconds
    full = Config.to_lines
    monkeypatch.setattr(Config, "to_lines", lambda self: [
        line for line in full(self) if not line.startswith("model.ref_seconds=")])
    ck = tmp_path / "old.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    monkeypatch.undo()
    for requested in (cfg, None):
        loaded, _ = pipeline.load_trainer(ck, requested)
        assert loaded.model.cfg == cfg
    assert "model.ref_seconds" not in str(load_checkpoint(ck)[0]["config"])


def test_missing_adam_moment_is_named(corpus_dir, tmp_path, monkeypatch):
    trainer, _ = tiny_trainer(corpus_dir)
    real = checkpoint.save_checkpoint
    monkeypatch.setattr(checkpoint, "save_checkpoint", lambda path, meta, tensors: real(
        path, meta, {k: v for k, v in tensors.items() if k != "adam.v.dur.head.b"}))
    ck = tmp_path / "m.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="missing tensor adam.v.dur.head.b"):
        pipeline.load_trainer(ck)


def test_wrong_record_shape_is_named(corpus_dir, tmp_path):
    trainer, _ = tiny_trainer(corpus_dir)
    trainer.opt.m["dur.head.b"] = np.zeros(3)
    ck = tmp_path / "m.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    with pytest.raises(CheckpointError, match=r"adam.m.dur.head.b has shape \(3,\)"):
        pipeline.load_trainer(ck)


@pytest.mark.parametrize("vocab", [[1, 2], "ab", ["a", None], ["a", "a"]],
                         ids=["ints", "string", "null", "duplicate"])
def test_checkpoint_vocab_must_be_a_list_of_distinct_strings(corpus_dir, tmp_path, vocab):
    trainer, _ = tiny_trainer(corpus_dir)
    ck = tmp_path / "m.ckpt"
    pipeline.save_trainer(ck, trainer, "stats.bin")
    meta, tensors = load_checkpoint(ck)
    checkpoint.save_checkpoint(ck, {**meta, "vocab": vocab}, tensors)
    with pytest.raises(CheckpointError, match=r"m\.ckpt: bad checkpoint metadata: .*distinct"):
        pipeline.load_trainer(ck)


def test_train_epochs_names_an_utterance_with_more_tokens_than_frames(corpus_dir):
    trainer, utts = tiny_trainer(corpus_dir)
    long = utts[1]
    long.text = "ab cd " * 30
    tokens = len(trainer.model.encode_text(long.text))
    with pytest.raises(aligner.InfeasibleError,
                       match=rf"{long.utterance_id}: {tokens} tokens over {long.mel.frames} frames"):
        pipeline.train_epochs(trainer, utts, 1)
    assert trainer.step == 0


def test_train_epochs_checkpoints_once_after_its_last_epoch(corpus_dir, tmp_path, monkeypatch):
    trainer, utts = tiny_trainer(
        corpus_dir, TINY_CFG_TEXT.replace("checkpoint_every=50", "checkpoint_every=1"))
    written = []
    real = checkpoint.save_checkpoint

    def counting(path, meta, tensors):
        written.append(meta["epoch"])
        real(path, meta, tensors)

    monkeypatch.setattr(checkpoint, "save_checkpoint", counting)
    pipeline.train_epochs(trainer, utts, 3, checkpoint_path=tmp_path / "m.ckpt",
                          stats_path="stats.bin")
    assert written == [3]


def test_checkpoint_must_name_its_stats_file(corpus_dir, tmp_path):
    # `difftts synth` finds the stats through the stored path; an empty one
    # once resolved to the checkpoint's directory ("Is a directory")
    trainer, utts = tiny_trainer(corpus_dir)
    ck = tmp_path / "libck.ckpt"
    with pytest.raises(TypeError):
        pipeline.save_trainer(ck, trainer)
    with pytest.raises(CheckpointError, match=r"libck\.ckpt: .*mel stats file"):
        pipeline.save_trainer(ck, trainer, "")
    with pytest.raises(CheckpointError, match=r"libck\.ckpt: .*mel stats file"):
        pipeline.train_epochs(trainer, utts, 1, checkpoint_path=ck)
    assert trainer.step == 0 and not ck.exists()


def test_readme_cli_flags_are_options_of_their_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # the first code block of the CLI section, with its `\` continuation lines joined
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("difftts ")]
    assert [argv[0] for argv in commands] == ["stats", "train", "synth", "eval"]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, *rest in commands:
        options = subparsers.choices[command]._option_string_actions
        flags = [word for word in rest if re.fullmatch(r"--[\w-]+", word)]
        assert flags and [f for f in flags if f not in options] == [], command


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "c", "--out", "m.ckpt", "--seed", "3"],
    ["synth", "--checkpoint", "m.ckpt", "--text", "ab", "--ref", "r.wav", "--out", "o.wav",
     "--config", "tiny.cfg"],
])
def test_removed_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


# -- synth ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    root = tmp_path_factory.mktemp("trained")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG_TEXT, encoding="utf-8")
    ck = root / "model.ckpt"
    stats = root / "melstats.bin"
    assert run_cli("stats", "--corpus", corpus_dir, "--config", cfg_path, "--out", stats) == 0
    assert run_cli("train", "--corpus", corpus_dir, "--config", cfg_path,
                   "--out", ck, "--stats", stats) == 0
    return {"checkpoint": ck, "stats": stats, "root": root}


def test_synth_bit_identical_for_same_seed(trained, corpus_dir, tmp_path, capsys):
    ref = corpus_dir / "spk0_u0.wav"
    outs = []
    for name in ("one.wav", "two.wav"):
        out = tmp_path / name
        assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", "ab cd",
                       "--ref", ref, "--out", out, "--gamma", "0.5", "--steps", "4",
                       "--seed", "11", "--stats", trained["stats"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_synth_duration_printout_matches_frames(trained, corpus_dir, tmp_path, capsys):
    ref = corpus_dir / "spk1_u0.wav"
    out = tmp_path / "o.wav"
    text = "abc de"
    assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", text,
                   "--ref", ref, "--out", out, "--gamma", "0", "--steps", "2",
                   "--seed", "1", "--stats", trained["stats"]) == 0
    printed = capsys.readouterr().out
    dur_line = [l for l in printed.splitlines() if l.startswith("durations:")][0]
    durs = [int(x) for x in dur_line.split(":")[1].split()]
    assert len(durs) == len(text)
    assert f"{sum(durs)} frames" in printed


def test_synthesize_resamples_a_reference_at_another_rate(trained, corpus_dir):
    trainer, _ = pipeline.load_trainer(trained["checkpoint"])
    stats = load_mel_stats(trained["stats"])
    ref16k = resample(load_wav(corpus_dir / "spk0_u0.wav"), 16000)
    by_hand = resample(ref16k, 22050)
    a, b = (pipeline.synthesize(trainer.model, stats, "ab cd", ref, gamma=0.5, steps=4, seed=3)
            for ref in (ref16k, by_hand))
    assert np.array_equal(a.durations.frames, b.durations.frames)
    assert a.mel.values.tobytes() == b.mel.values.tobytes()
    assert a.wave.sample_rate == b.wave.sample_rate == 22050
    assert a.wave.samples.tobytes() == b.wave.samples.tobytes()


@pytest.mark.parametrize("flag,value,named", [("--seed", "-1", "seed must be non-negative"),
                                              ("--gamma", "nan", "guidance.gamma"),
                                              ("--gamma", "inf", "guidance.gamma")])
def test_synth_refuses_a_bad_seed_or_gamma_by_name(trained, corpus_dir, tmp_path, capsys,
                                                   monkeypatch, flag, value, named):
    # refused before any work: the reference is never analysed
    def no_work(*args, **kwargs):
        raise AssertionError("synthesize started work")

    monkeypatch.setattr(pipeline, "wav_to_mel", no_work)
    out = tmp_path / "o.wav"
    assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", "ab",
                   "--ref", corpus_dir / "spk0_u0.wav", "--out", out, "--steps", "2",
                   "--stats", trained["stats"], flag, value) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_samples, rate, fault", AUDIO_FAULTS)
def test_synth_names_a_ref_too_short_to_analyse(trained, tmp_path, capsys, n_samples, rate,
                                                fault):
    ref = tmp_path / "short_ref.wav"
    write_pcm(ref, n_samples, rate)
    out = tmp_path / "o.wav"
    assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", "ab",
                   "--ref", ref, "--out", out, "--steps", "2", "--stats", trained["stats"]) == 1
    assert f"short_ref.wav: {fault}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_missing_stats_instructs_stats_command(trained, corpus_dir, tmp_path, capsys):
    ref = corpus_dir / "spk0_u0.wav"
    missing = tmp_path / "never-written.bin"
    assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", "ab",
                   "--ref", ref, "--out", tmp_path / "o.wav",
                   "--stats", missing) == 1
    assert "difftts stats" in capsys.readouterr().err


def test_synth_rejects_stats_from_another_config(trained, corpus_dir, tmp_path, capsys):
    stats = foreign_stats(tmp_path / "foreign.bin")
    assert run_cli("synth", "--checkpoint", trained["checkpoint"], "--text", "ab",
                   "--ref", corpus_dir / "spk0_u0.wav", "--out", tmp_path / "o.wav",
                   "--steps", "2", "--stats", stats) == 1
    assert "foreign.bin" in capsys.readouterr().err
    trainer, _ = pipeline.load_trainer(trained["checkpoint"])
    with pytest.raises(ConfigMismatchError):
        pipeline.synthesize(trainer.model, load_mel_stats(stats), "ab",
                            load_wav(corpus_dir / "spk0_u0.wav"), gamma=1.0, steps=2, seed=0)


def test_synth_finds_stats_relative_to_the_checkpoint(corpus_dir, tmp_path, monkeypatch, capsys):
    work = tmp_path / "toy1"
    work.mkdir()
    (work / "tiny.cfg").write_text(TINY_CFG_TEXT, encoding="utf-8")
    monkeypatch.chdir(work)
    assert run_cli("stats", "--corpus", corpus_dir, "--config", "tiny.cfg",
                   "--out", "melstats.bin") == 0
    assert run_cli("train", "--corpus", corpus_dir, "--config", "tiny.cfg", "--out", "model.ckpt",
                   "--stats", "melstats.bin", "--epochs", 1) == 0
    assert checkpoint.load_checkpoint("model.ckpt")[0]["melstats"] == "melstats.bin"
    monkeypatch.chdir(tmp_path)
    assert run_cli("synth", "--checkpoint", "toy1/model.ckpt", "--text", "ab",
                   "--ref", corpus_dir / "spk0_u0.wav", "--out", "o.wav", "--steps", 2) == 0
    assert (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("stats", [Path(""), ".", ".."])
def test_a_stats_path_that_names_no_file_is_refused(corpus_dir, tmp_path, stats):
    trainer, utts = tiny_trainer(corpus_dir)
    ck = tmp_path / "libck.ckpt"
    with pytest.raises(CheckpointError, match=r"libck\.ckpt: .*mel stats file"):
        pipeline.save_trainer(ck, trainer, stats)
    with pytest.raises(CheckpointError, match=r"libck\.ckpt: .*mel stats file"):
        pipeline.train_epochs(trainer, utts, 1, checkpoint_path=ck, stats_path=stats)
    assert trainer.step == 0 and not ck.exists()


def test_absolute_stats_path_is_stored_as_given(trained):
    assert checkpoint.load_checkpoint(trained["checkpoint"])[0]["melstats"] == str(trained["stats"])


def test_checkpoint_saved_from_the_library_finds_its_stats(trained, corpus_dir, tmp_path,
                                                          monkeypatch):
    # a relative stats path that does not lie beside the checkpoint
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "melstats.bin").write_bytes(trained["stats"].read_bytes())
    trainer, _ = pipeline.load_trainer(trained["checkpoint"])
    pipeline.save_trainer("sub/lib.ckpt", trainer, "melstats.bin")
    assert checkpoint.load_checkpoint("sub/lib.ckpt")[0]["melstats"] == "../melstats.bin"
    assert pipeline.load_trainer("sub/lib.ckpt")[1] == Path("sub/../melstats.bin")
    assert run_cli("synth", "--checkpoint", "sub/lib.ckpt", "--text", "ab",
                   "--ref", corpus_dir / "spk0_u0.wav", "--out", "o.wav", "--steps", 2) == 0


def test_synth_defaults_come_from_guidance_config(trained, corpus_dir, tmp_path, monkeypatch):
    seen = []
    real = pipeline.synthesize

    def spy(*args, **kwargs):
        seen.append((kwargs["gamma"], kwargs["steps"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synthesize", spy)
    synth = ("synth", "--checkpoint", trained["checkpoint"], "--text", "ab",
             "--ref", corpus_dir / "spk0_u0.wav", "--out", tmp_path / "o.wav")
    assert run_cli(*synth) == 0
    assert run_cli(*synth, "--gamma", "0.5", "--steps", "2") == 0
    assert seen == [(GuidanceConfig().gamma, GuidanceConfig().steps), (0.5, 2)]


# -- eval -------------------------------------------------------------------------

def test_eval_end_to_end(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
        "u1\tindicsuperb\thindi\tabcd\tabcd\t\n"
        "u2\tindicsuperb\thindi\tabcd\tabxd\t\n", encoding="utf-8")
    assert run_cli("eval", "--manifest", manifest, "--mode", "cer") == 0
    out = capsys.readouterr().out
    assert "hindi CER" in out.splitlines()[0]
    assert "12.50" in out  # mean of 0 and 0.25, in percent


@pytest.mark.parametrize("mode,message", [("cer", "reference empty after normalization"),
                                          ("wer", "reference has no words")])
def test_eval_empty_reference_names_the_record(tmp_path, capsys, mode, message):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
        "u1\td\tl\tabcd\tabcd\t\n"
        "u2\td\tl\t \u00a0\tabcd\t\n", encoding="utf-8")
    assert run_cli("eval", "--manifest", manifest, "--mode", mode) == 1
    assert f"error: record 'u2': {message}" in capsys.readouterr().err


def test_eval_malformed_row_names_line(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
        "u1\td\tl\tr\th\t\n"
        "broken row\n", encoding="utf-8")
    assert run_cli("eval", "--manifest", manifest, "--mode", "cer") == 1
    assert "line 3" in capsys.readouterr().err


def test_eval_simo_table_formatting(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
        "u1\tindicsuperb\thindi\tx\t\t0.7291\n", encoding="utf-8")
    assert run_cli("eval", "--manifest", manifest, "--mode", "simo",
                   "--format", "markdown") == 0
    assert "0.7291" in capsys.readouterr().out
