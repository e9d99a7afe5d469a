import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import config as cf
from difftts.diffusion import GuidanceConfig


def test_defaults_are_paper_conventions():
    cfg = cf.Config()
    assert cfg.audio.sample_rate == 22050
    assert cfg.audio.hop_length == 256
    assert cfg.schedule.beta0 == 0.05 and cfg.schedule.beta1 == 20.0
    assert cfg.train.learning_rate == 1e-4
    assert cfg.train.batch_size == 64
    assert cfg.ref_frames == 172  # round(2 * 22050 / 256)
    assert (cfg.audio.fmin, cfg.audio.fmax, cfg.model.ref_seconds) == (0.0, 8000.0, 2.0)
    assert len(cfg.to_lines()) == 17


def test_round_trip_through_lines():
    cfg = cf.Config()
    text = "\n".join(cfg.to_lines())
    back = cf.parse_config(text)
    assert back == cfg


def test_parse_overrides():
    cfg = cf.parse_config("model.d_model=32\ntrain.seed=9\ntoken_mode=phonemes\n")
    assert cfg.model.d_model == 32
    assert cfg.train.seed == 9
    assert cfg.token_mode == "phonemes"


def test_unknown_key_rejected():
    with pytest.raises(cf.ConfigError, match="unknown"):
        cf.parse_config("model.what_is_this=3\n")
    with pytest.raises(cf.ConfigError, match="unknown"):
        cf.parse_config("nonsense=3\n")


@pytest.mark.parametrize("key", ["model.dur_heads", "audio.win_length", "guidance.gamma",
                                 "guidance.steps", "guidance.temperature", "model.conv_kernel",
                                 "schedule.t_min", "audio.fmin", "audio.fmax",
                                 "model.ref_seconds"])
def test_removed_key_names_line_and_key(tmp_path, key):
    p = tmp_path / "old.cfg"
    p.write_text(f"train.seed=1\n{key}=1\n", encoding="utf-8")
    with pytest.raises(cf.ConfigError, match=f"line 2: unknown key '{re.escape(key)}'"):
        cf.load_config(p)


@pytest.mark.parametrize("key", ["train.seed", "token_mode"])
def test_repeated_key_names_both_lines(key):
    value = "phonemes" if key == "token_mode" else "2"
    with pytest.raises(cf.ConfigError,
                       match=f"line 3: key '{re.escape(key)}' is already set on line 1"):
        cf.parse_config(f"{key}={value}\nmodel.d_model=32\n{key}={value}\n")


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1]
    block = section.split("```\n", 2)[1]
    keys = [line.split("=")[0] for line in block.splitlines()]
    assert keys == [line.split("=")[0] for line in cf.Config().to_lines()]
    assert cf.parse_config(block) == cf.Config()


def test_invalid_values_rejected():
    with pytest.raises(cf.ConfigError):
        cf.parse_config("schedule.beta0=30\n")  # beta0 >= beta1
    with pytest.raises(cf.ConfigError):
        cf.parse_config("model.d_model=notanumber\n")


def test_config_equality_follows_values():
    # checkpoints compare configs with ==
    assert cf.parse_config("train.seed=0\n") == cf.Config()
    assert cf.parse_config("train.seed=1\n") != cf.Config()
    assert cf.parse_config("schedule.beta1=20\n") == cf.Config()


@pytest.mark.parametrize("line", ["train.learning_rate=nan", "schedule.beta1=inf",
                                  "schedule.beta0=nan", "train.learning_rate=-inf"])
def test_non_finite_values_rejected(line):
    key = line.split("=")[0]
    with pytest.raises(cf.ConfigError, match=f"{key}: non-finite"):
        cf.parse_config(line + "\n")


def test_unreadable_file_names_the_file(tmp_path):
    with pytest.raises(cf.ConfigError, match="absent.cfg"):
        cf.load_config(tmp_path / "absent.cfg")
    p = tmp_path / "latin1.cfg"
    p.write_bytes("train.seed=1 # caf\xe9\n".encode("latin-1"))
    with pytest.raises(cf.ConfigError, match="latin1.cfg"):
        cf.load_config(p)


def test_file_round_trip(tmp_path):
    cfg = cf.parse_config("model.d_model=16\nmodel.n_heads=2\n")
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(cfg.to_lines()) + "\n", encoding="utf-8")
    assert cf.load_config(p) == cfg


# every key at its default, so byte changes reach every field's validation
CONFIG_BLOB = ("\n".join(cf.Config().to_lines()) + "\n").encode("utf-8")


def _load_config_bytes(path, blob):
    path.write_bytes(blob)
    try:
        cf.load_config(path)
    except cf.ConfigError:
        pass


def test_every_config_truncation_loads_or_raises_config_error(tmp_path):
    p = tmp_path / "cut.cfg"
    for n in range(len(CONFIG_BLOB)):
        _load_config_bytes(p, CONFIG_BLOB[:n])


@settings(max_examples=100, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_config_appended_bytes_load_or_raise_config_error(tmp_path_factory, extra):
    _load_config_bytes(tmp_path_factory.getbasetemp() / "long.cfg", CONFIG_BLOB + extra)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_single_byte_change_loads_or_raises_config_error(tmp_path_factory, data):
    pos = data.draw(st.integers(0, len(CONFIG_BLOB) - 1), label="pos")
    blob = bytearray(CONFIG_BLOB)
    blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    _load_config_bytes(tmp_path_factory.getbasetemp() / "flipped.cfg", bytes(blob))


# round(2 s * 22050 / 88201) is the first hop at which the reference window is 0 frames
@pytest.mark.parametrize("line", ["audio.n_mels=0", "audio.n_mels=-3", "audio.hop_length=88201",
                                  "audio.hop_length=1000000"])
def test_empty_mel_or_reference_window_names_the_key(line):
    with pytest.raises(cf.ConfigError, match=line.split("=")[0]):
        cf.parse_config(line + "\n")


@pytest.mark.parametrize("line", ["model.n_heads=0"])
def test_zero_head_count_raises_config_error(line):
    with pytest.raises(cf.ConfigError, match="positive"):
        cf.parse_config(line + "\n")


# a negative train.seed would otherwise fail in numpy's seeding, after the corpus loads
@pytest.mark.parametrize("line", ["train.learning_rate=0", "train.batch_size=0", "train.epochs=-1",
                                  "train.checkpoint_every=0", "train.seed=-1", "guidance.steps=0",
                                  "guidance.gamma=-0.5", "guidance.temperature=0"])
def test_out_of_range_training_and_guidance_values_name_key_and_value(line):
    key, value = line.split("=")
    section, name = key.split(".")
    with pytest.raises(cf.ConfigError, match=re.escape(key) + f" must be .*, got {value}"):
        if section == "guidance":  # sampler arguments, not config keys
            GuidanceConfig(**{name: type(getattr(GuidanceConfig, name))(value)})
        else:
            cf.parse_config(line + "\n")


# `dataclasses.replace` skips the file parser, so the dataclasses refuse these themselves
@pytest.mark.parametrize("section,key", [("guidance", "gamma"), ("guidance", "temperature"),
                                         ("train", "learning_rate")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_value_set_by_replace_is_refused(section, key, value):
    base = GuidanceConfig() if section == "guidance" else getattr(cf.Config(), section)
    with pytest.raises(cf.ConfigError, match=f"{section}.{key} must be .*finite, got {value}"):
        dataclasses.replace(base, **{key: value})
