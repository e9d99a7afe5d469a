import numpy as np
import pytest

from difftts.audio import AnalysisConfig
from difftts.config import Config, ModelConfig


def tiny_config(n_mels=6, d_model=8, blocks=2, heads=2, d_spk=4, dec_channels=8):
    return Config(
        audio=AnalysisConfig(n_mels=n_mels),
        model=ModelConfig(d_model=d_model, n_enc_blocks=blocks, n_heads=heads,
                          d_spk=d_spk, dec_channels=dec_channels),
    )


@pytest.fixture
def tiny_cfg():
    return tiny_config()


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {name}: {report.outcome.upper()}", flush=True)
