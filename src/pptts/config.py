"""Run configuration: feature frontend, model, training and codebook sections.

A run config is a JSON file with up to four sections (``feature``, ``model``,
``train``, ``codebook``). Unknown keys are rejected so typos fail loudly,
and the effective merged config is echoed into every run directory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .data import DEFAULT_CHARACTERS


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


# An int field is >= 1 and a float field >= 0 unless named here. Seeds feed
# numpy, which takes 0; a mel floor of 0 lets log-mels of silence reach -inf.
# AudioConfig checks fmin and fmax against the sample rate.
_INT_MIN = {"seed": 0, "checkpoint_interval": 0}
_POSITIVE = {"mel_floor", "scratch_lr_multiplier"}
_RANGED = {"fmin", "fmax"}


def _check_fields(section) -> None:
    """Check the type and bound of every field of a config section against
    its annotation. A ``| None`` field also takes null, and a bool never
    counts as a number."""
    label = next(name for name, cls in _SECTIONS.items() if cls is type(section))
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        kind, _, optional = f.type.partition(" | ")
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if kind == "int":
            low = _INT_MIN.get(f.name, 1)
            need = f"an integer >= {low}"
            ok = number and isinstance(value, numbers.Integral) and value >= low
        elif kind == "float":
            need = "a finite number"
            # An int is finite; math.isfinite would overflow on a huge one.
            ok = number and (isinstance(value, numbers.Integral) or math.isfinite(value))
            if f.name in _POSITIVE:
                need, ok = need + " > 0", ok and value > 0
            elif f.name not in _RANGED:
                need, ok = need + " >= 0", ok and value >= 0
        elif kind == "bool":
            need, ok = "true or false", isinstance(value, bool)
        elif kind == "str":
            need, ok = "a string", isinstance(value, str)
        else:
            raise TypeError(f"no rule for the {f.type} field {f.name}")
        if optional:
            need, ok = need + " or null", ok or value is None
        if not ok:
            raise ConfigError(f"[{label}]: {f.name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class AudioConfig:
    """STFT / mel frontend settings shared across the pipeline."""

    sample_rate: int = 22050
    n_fft: int = 1024
    hop_length: int = 256
    win_length: int = 1024
    center: bool = True
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float | None = None
    mel_floor: float = 1e-5

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.win_length > self.n_fft:
            raise ConfigError(f"win_length must be <= n_fft, got {self.win_length} > {self.n_fft}")
        # A null fmax is the Nyquist frequency.
        nyquist = self.sample_rate / 2
        fmax = nyquist if self.fmax is None else self.fmax
        if not 0 <= self.fmin < fmax <= nyquist:
            raise ConfigError(
                f"fmin and fmax must satisfy 0 <= fmin < fmax <= sample_rate / 2 = {nyquist:g}, "
                f"got fmin={self.fmin!r}, fmax={self.fmax!r}"
            )

    @property
    def spec_bins(self) -> int:
        return self.n_fft // 2 + 1


@dataclass(frozen=True)
class ModelConfig:
    """Sizes of the conditional VAE. Channel count must be even for the
    channel-split coupling blocks."""

    latent_channels: int = 32
    hidden_channels: int = 96
    flow_blocks: int = 4
    flow_hidden: int = 64
    duration_hidden: int = 64
    decoder_channels: int = 48
    text_vocab_size: int = 28
    pseudo_vocab_size: int = 128
    speaker_embed_dim: int = 32
    multi_speaker: bool = False
    dtype: str = "float32"

    def __post_init__(self) -> None:
        _check_fields(self)
        # Text ids are the indices of DEFAULT_CHARACTERS: a smaller table
        # fails on the first text that uses a dropped character, and rows
        # past it never train.
        if self.text_vocab_size != len(DEFAULT_CHARACTERS):
            raise ConfigError(
                f"text_vocab_size must be {len(DEFAULT_CHARACTERS)}, the size of the "
                f"character set, got {self.text_vocab_size}"
            )
        if self.latent_channels % 2 != 0:
            raise ConfigError(f"latent_channels must be even, got {self.latent_channels}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")


@dataclass(frozen=True)
class TrainConfig:
    stage: str = "pretrain"
    iterations: int = 1000
    batch_size: int = 8
    learning_rate: float = 2e-4
    weight_decay: float = 1e-2
    seed: int = 0
    log_interval: int = 10
    checkpoint_interval: int = 0  # 0: only final checkpoint
    kld_weight: float = 1.0
    duration_weight: float = 1.0
    mel_weight: float = 5.0
    from_scratch: bool = False
    # Fine-tuning only: learning-rate multiplier for the heads trained from
    # scratch (text encoder, duration predictor) relative to the carried-over
    # flow. Fresh heads usually need larger steps than weights that only
    # adapt.
    scratch_lr_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.stage not in ("pretrain", "finetune"):
            raise ConfigError(f"unknown train stage {self.stage!r}")


@dataclass(frozen=True)
class CodebookConfig:
    k: int = 128
    seed: int = 0
    max_iters: int = 100
    tol: float = 1e-6
    provider: str = "builtin-mel"
    feature_dir: str | None = None  # for the precomputed provider

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class RunConfig:
    feature: AudioConfig = field(default_factory=AudioConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    codebook: CodebookConfig = field(default_factory=CodebookConfig)


# Section name -> class, in the order of RunConfig's fields.
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _build_section(cls: type, values: dict[str, Any], section: str):
    if not isinstance(values, dict):
        raise ConfigError(f"[{section}] must be an object, got {values!r}")
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
        )
    return cls(**values)


def config_from_dict(raw: dict[str, Any]) -> RunConfig:
    """Build a RunConfig from nested dicts, rejecting unknown keys."""
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    kwargs = {
        name: _build_section(cls, raw.get(name, {}), name)
        for name, cls in _SECTIONS.items()
    }
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    return {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}


def load_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(raw)


def merge_overrides(cfg: RunConfig, overrides: dict[str, dict[str, Any]]) -> RunConfig:
    """Apply ``{section: {key: value}}`` overrides (command-line flags win)."""
    raw = config_to_dict(cfg)
    for section, values in overrides.items():
        raw.setdefault(section, {}).update(values)
    return config_from_dict(raw)


def write_config(cfg: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
