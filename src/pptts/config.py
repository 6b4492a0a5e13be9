"""Run configuration: feature frontend, model, training and codebook sections.

A run config is a JSON file with up to four sections (``feature``, ``model``,
``train``, ``codebook``). Unknown keys are rejected so typos fail loudly,
and the effective merged config is echoed into every run directory.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _require_sizes(section, *names: str) -> None:
    for name in names:
        if getattr(section, name) < 1:
            raise ConfigError(f"{name} must be >= 1")


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
        _require_sizes(self, "sample_rate", "n_fft", "hop_length", "win_length", "n_mels")
        if self.win_length > self.n_fft:
            raise ConfigError("win_length must be <= n_fft")

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
        _require_sizes(
            self, "latent_channels", "hidden_channels", "flow_blocks", "flow_hidden",
            "duration_hidden", "decoder_channels", "text_vocab_size", "pseudo_vocab_size",
            "speaker_embed_dim",
        )
        if self.latent_channels % 2 != 0:
            raise ConfigError("latent_channels must be even")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")


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
        if self.stage not in ("pretrain", "finetune"):
            raise ConfigError(f"unknown train stage {self.stage!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.log_interval < 1:
            raise ConfigError("log_interval must be >= 1")
        if self.scratch_lr_multiplier <= 0:
            raise ConfigError("scratch_lr_multiplier must be > 0")


@dataclass(frozen=True)
class CodebookConfig:
    k: int = 128
    seed: int = 0
    max_iters: int = 100
    tol: float = 1e-6
    provider: str = "builtin-mel"
    normalize_features: bool = True
    feature_dir: str | None = None  # for the precomputed provider


@dataclass(frozen=True)
class RunConfig:
    feature: AudioConfig = field(default_factory=AudioConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    codebook: CodebookConfig = field(default_factory=CodebookConfig)


_SECTIONS = {
    "feature": AudioConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "codebook": CodebookConfig,
}


def _build_section(cls: type, values: dict[str, Any], section: str):
    if not isinstance(values, dict):
        raise ConfigError(f"[{section}] must be an object, got {values!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
        )
    try:
        return cls(**values)
    except TypeError as exc:  # a value of the wrong type, met by a range check
        raise ConfigError(f"[{section}]: {exc}") from None


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
        if section not in raw:
            raise ConfigError(f"unknown config section {section!r}")
        raw[section].update(values)
    return config_from_dict(raw)


def write_config(cfg: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
