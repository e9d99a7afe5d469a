import pytest

from difftts import config as cf


def test_defaults_are_paper_conventions():
    cfg = cf.Config()
    assert cfg.audio.sample_rate == 22050
    assert cfg.audio.hop_length == 256
    assert cfg.schedule.beta0 == 0.05 and cfg.schedule.beta1 == 20.0
    assert cfg.train.learning_rate == 1e-4
    assert cfg.train.batch_size == 64
    assert cfg.ref_frames == 172  # round(2 * 22050 / 256)


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
                                  "guidance.gamma=nan", "audio.fmax=-inf"])
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
