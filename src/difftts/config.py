"""Run configuration: validated dataclasses plus the key=value file format."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, ClassVar

from .audio import AnalysisConfig
from .textfront import MODES


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 128
    n_enc_blocks: int = 4
    n_heads: int = 2
    conv_kernel: ClassVar[int] = 3
    d_spk: int = 64
    dec_channels: int = 64
    ref_seconds: ClassVar[float] = 2.0

    def __post_init__(self):
        # positive first: the divisibility test below divides by the head count
        for name in ("d_model", "n_enc_blocks", "n_heads", "d_spk", "dec_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by the head count")


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule; training draws t from [t_min, 1) and sampling stops at t_min."""
    beta0: float = 0.05
    beta1: float = 20.0
    t_min: ClassVar[float] = 1e-3

    def __post_init__(self):
        if not (0 < self.beta0 < self.beta1):
            raise ConfigError("need 0 < beta0 < beta1")

    def beta(self, t: float) -> float:
        return self.beta0 + (self.beta1 - self.beta0) * t

    def cumulative(self, t: float) -> float:
        return self.beta0 * t + 0.5 * (self.beta1 - self.beta0) * t * t

    def coefficients(self, t: float) -> tuple[float, float, float]:
        """(x0 mean coeff, mu mean coeff, standard deviation) at time t."""
        b = self.cumulative(t)
        m0 = math.exp(-0.5 * b)
        return m0, 1.0 - m0, math.sqrt(1.0 - math.exp(-b))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 200
    seed: int = 0
    checkpoint_every: int = 50

    def __post_init__(self):
        # `replace` skips the file parser's finiteness check, so check here
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"train.learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        for name in ("batch_size", "epochs", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Config:
    audio: AnalysisConfig = field(default_factory=AnalysisConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    train: TrainConfig = field(default_factory=TrainConfig)
    token_mode: str = "characters"

    def __post_init__(self):
        if self.token_mode not in MODES:
            raise ConfigError(f"unknown token_mode {self.token_mode!r}")
        if self.ref_frames < 1:
            raise ConfigError(f"audio.hop_length={self.audio.hop_length} gives a reference "
                              f"window of {self.ref_frames} frames; it needs at least 1")

    @property
    def ref_frames(self) -> int:
        """Reference window length in frames (2 s -> 172 at the defaults)."""
        return int(self.model.ref_seconds * self.audio.sample_rate / self.audio.hop_length + 0.5)

    def to_lines(self) -> list[str]:
        lines = []
        for section in _SECTIONS:
            obj = getattr(self, section)
            for f in fields(obj):
                lines.append(f"{section}.{f.name}={getattr(obj, f.name)}")
        lines.append(f"token_mode={self.token_mode}")
        return lines


# every field of Config with a dataclass default is a key=value section
_SECTIONS = {f.name: f.default_factory for f in fields(Config) if f.default_factory is not MISSING}
# "section.field" -> (section, field, value type)
_KEYS = {f"{s}.{f.name}": (s, f.name, type(f.default))
         for s, cls in _SECTIONS.items() for f in fields(cls)}


def _parse_value(key: str, raw: str, kind: type) -> Any:
    raw = raw.strip()
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: non-finite value {raw!r}")
    return value


def parse_config(text: str) -> Config:
    """Parse key=value lines; unknown and repeated keys are rejected."""
    by_section: dict[str, dict[str, Any]] = {name: {} for name in _SECTIONS}
    top: dict[str, Any] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        if key == "token_mode":
            top["token_mode"] = raw.strip()
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, kind = _KEYS[key]
        by_section[section][name] = _parse_value(key, raw, kind)
    try:
        return Config(**{s: _SECTIONS[s](**kw) for s, kw in by_section.items()}, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> Config:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's text repeats the path
        raise ConfigError(f"cannot read config file {path}: {reason}") from exc
    return parse_config(text)

