"""Audio frontend: linear/mel spectrograms and frame-feature providers.

The chain waveform -> magnitude STFT -> log-mel is written once, in tensor
ops (:func:`linear_spectrogram`, :func:`log_mel`). The reconstruction loss
runs it on a waveform that requires grad; the ndarray entry points
(:func:`compute_linear_spectrogram`, :func:`compute_mel`,
:func:`mel_of_waveform`) run the same chain on plain arrays and record no
graph.

The ``builtin-mel`` provider feeds log-mel features to the unit-discovery
pipeline, optionally standardized per mel bin by a mean and std fitted
once, on the codebook's corpus, and stored in the codebook file with the
audio config, so every later quantization uses that same front end. The
``precomputed`` provider loads externally dumped feature matrices so
representations from large self-supervised models can be plugged in
without bundling them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import read_wav
from .config import AudioConfig, ConfigError
from .data import ManifestEntry
from .tensor import Tensor


@dataclass(frozen=True)
class FrameFeatures:
    """Per-frame feature matrix [frames x dim] from a named provider."""

    values: np.ndarray
    provider_id: str
    frame_rate_hz: float


@lru_cache(maxsize=16)
def hann_window(cfg: AudioConfig, dtype=np.float32) -> np.ndarray:
    """Periodic Hann window of win_length, zero-padded centered to n_fft.

    Built once per (config, dtype); the array is shared, so it is read-only.
    """
    n = cfg.win_length
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if n < cfg.n_fft:
        pad_left = (cfg.n_fft - n) // 2
        full = np.zeros(cfg.n_fft)
        full[pad_left : pad_left + n] = win
        win = full
    win = win.astype(dtype)
    win.flags.writeable = False
    return win


def pad_indices(num_samples: int, cfg: AudioConfig) -> np.ndarray | None:
    """Sample indices realizing the center reflect-pad (``np.pad`` mode
    ``reflect``), or None if uncentered."""
    if not cfg.center:
        return None
    half = cfg.n_fft // 2
    if num_samples <= half:
        raise ValueError(
            f"waveform too short for centered STFT: {num_samples} <= {half}"
        )
    idx = np.arange(-half, num_samples + half)
    # np.pad reflect: mirror without repeating the edge sample.
    idx = np.abs(idx)
    over = idx > num_samples - 1
    idx[over] = 2 * (num_samples - 1) - idx[over]
    return idx


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank_cached(
    sample_rate: int, n_fft: int, n_mels: int, fmin: float, fmax: float
) -> np.ndarray:
    bins = n_fft // 2 + 1
    if n_mels > bins:
        raise ConfigError(f"n_mels {n_mels} exceeds spectrogram bins {bins}")
    freqs = np.arange(bins) * sample_rate / n_fft
    points = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    fb = np.zeros((n_mels, bins))
    for m in range(n_mels):
        lo, mid, hi = points[m], points[m + 1], points[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    sums = fb.sum(axis=1)
    if np.any(sums <= 0):
        raise ConfigError(
            "mel filterbank has empty rows; lower n_mels or raise n_fft"
        )
    return fb


def mel_filterbank(cfg: AudioConfig) -> np.ndarray:
    """Triangular filterbank [n_mels x bins]; every row has positive sum."""
    fmax = cfg.sample_rate / 2 if cfg.fmax is None else cfg.fmax
    return _mel_filterbank_cached(cfg.sample_rate, cfg.n_fft, cfg.n_mels, cfg.fmin, fmax)


@lru_cache(maxsize=16)
def mel_basis_t(cfg: AudioConfig, dtype=np.float32) -> np.ndarray:
    """Transposed filterbank [bins x n_mels] in the given dtype.

    Built once per (config, dtype); the array is shared, so it is read-only.
    """
    basis = np.ascontiguousarray(mel_filterbank(cfg).T.astype(dtype))
    basis.flags.writeable = False
    return basis


def linear_spectrogram(wave: Tensor, cfg: AudioConfig) -> Tensor:
    """Magnitude STFT [frames x bins] of a 1-D waveform tensor.

    Center reflect-pad, Hann-windowed frames of n_fft every hop_length
    samples, then |rfft|; raises for waveforms shorter than the padding
    convention supports.
    """
    idx = pad_indices(wave.shape[0], cfg)
    padded = wave if idx is None else T.take_rows(wave, idx)
    frames = T.frame_rows(padded, cfg.n_fft, cfg.hop_length)
    return T.stft_mag(frames * hann_window(cfg, dtype=wave.dtype))


def log_mel(spec: Tensor, cfg: AudioConfig) -> Tensor:
    """Log-mel [frames x n_mels] of a magnitude spectrogram, floored at
    cfg.mel_floor."""
    basis = mel_basis_t(cfg, dtype=spec.dtype)
    if spec.shape[1] != basis.shape[0]:
        raise ConfigError(
            f"spectrogram bins {spec.shape[1]} do not match n_fft {cfg.n_fft}"
        )
    mel = spec @ Tensor(basis)
    return mel.clamp(min_value=np.asarray(cfg.mel_floor, dtype=spec.dtype)).log()


def compute_linear_spectrogram(waveform: np.ndarray, cfg: AudioConfig) -> np.ndarray:
    """:func:`linear_spectrogram` of an ndarray, in the waveform's dtype."""
    return linear_spectrogram(Tensor(waveform), cfg).data


def compute_mel(spec: np.ndarray, cfg: AudioConfig) -> np.ndarray:
    """:func:`log_mel` of an ndarray spectrogram, in its dtype."""
    return log_mel(Tensor(spec), cfg).data


def mel_of_waveform(waveform: np.ndarray, cfg: AudioConfig) -> np.ndarray:
    """Log-mel [frames x n_mels] of an ndarray waveform, in its dtype."""
    return compute_mel(compute_linear_spectrogram(waveform, cfg), cfg)


# ---------------------------------------------------------------------------
# Frame-feature providers
# ---------------------------------------------------------------------------

FEATURE_MAGIC = b"FTFX"


def write_feature_file(
    path: str | Path, values: np.ndarray, frame_rate_hz: float
) -> None:
    """Binary feature matrix: magic, u32 T, u32 D, f32 rate, f32 rows (LE)."""
    values = np.ascontiguousarray(values, dtype="<f4")
    t, d = values.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIf", t, d, float(frame_rate_hz)))
        fh.write(values.tobytes())


def read_feature_file(path: str | Path) -> FrameFeatures:
    """Read a file written by :func:`write_feature_file`.

    A bad magic, a cut-short header or a body whose size is not the
    header's T x D raises ``ValueError`` naming the file; the body is read
    only once the file is known to hold it.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        head = fh.read(12)
        if len(head) != 12:
            raise ValueError(f"{path}: truncated header ({4 + len(head)} of 16 bytes)")
        t, d, rate = struct.unpack("<IIf", head)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if t * d * 4 > left:
            raise ValueError(
                f"{path}: truncated body (header claims {t} x {d} float32, "
                f"{left} bytes follow it)"
            )
        if t * d * 4 < left:
            raise ValueError(
                f"{path}: {left - t * d * 4} trailing bytes after the "
                f"{t} x {d} float32 body"
            )
        body = fh.read(t * d * 4)
    values = np.frombuffer(body, dtype="<f4").reshape(t, d)
    return FrameFeatures(
        values=values.copy(), provider_id="precomputed", frame_rate_hz=rate
    )


class BuiltinMelProvider:
    """Log-mel frame features, standardized by ``mean`` and ``std`` when
    ``normalize``: :meth:`fit` sets them from a corpus, or they are set
    from a codebook that recorded them."""

    provider_id = "builtin-mel"

    def __init__(self, audio: AudioConfig, normalize: bool = True):
        self.audio = audio
        self.normalize = normalize
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    @property
    def frame_rate_hz(self) -> float:
        return self.audio.sample_rate / self.audio.hop_length

    def _read(self, entry: ManifestEntry) -> np.ndarray:
        wave, sr = read_wav(entry.audio_path)
        if sr != self.audio.sample_rate:
            raise ValueError(
                f"{entry.id}: sample rate {sr} != configured {self.audio.sample_rate}"
            )
        return wave

    def features_for_wave(self, wave: np.ndarray) -> FrameFeatures:
        """Features of an in-memory waveform."""
        return self.features_for_mel(mel_of_waveform(wave, self.audio))

    def features_for_mel(self, mel: np.ndarray) -> FrameFeatures:
        """Features of a log-mel [frames x n_mels] computed at ``self.audio``,
        standardized if the provider normalizes."""
        if self.normalize:
            if self.mean is None:
                raise RuntimeError("provider not fitted; call fit() first")
            mel = (mel - self.mean) / self.std
        return FrameFeatures(
            values=mel, provider_id=self.provider_id, frame_rate_hz=self.frame_rate_hz
        )

    def fit(self, entries: list[ManifestEntry]) -> "BuiltinMelProvider":
        """Accumulate corpus mean/std per mel bin (manifest order)."""
        total = np.zeros(self.audio.n_mels, dtype=np.float64)
        total_sq = np.zeros(self.audio.n_mels, dtype=np.float64)
        count = 0
        for entry in entries:
            vals = mel_of_waveform(self._read(entry), self.audio).astype(np.float64)
            total += vals.sum(axis=0)
            total_sq += np.square(vals).sum(axis=0)
            count += vals.shape[0]
        if count == 0:
            raise ValueError("no frames in corpus")
        mean = total / count
        var = np.maximum(total_sq / count - mean**2, 0.0)
        self.mean = mean.astype(np.float32)
        self.std = np.sqrt(var).astype(np.float32) + np.float32(1e-8)
        return self

    def features_for(self, entry: ManifestEntry) -> FrameFeatures:
        return self.features_for_wave(self._read(entry))


class PrecomputedProvider:
    """Loads one FTFX feature file per utterance id from a directory."""

    provider_id = "precomputed"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def features_for(self, entry: ManifestEntry) -> FrameFeatures:
        path = self.directory / f"{entry.id}.ftfx"
        if not path.exists():
            raise FileNotFoundError(f"no precomputed features for {entry.id}: {path}")
        return read_feature_file(path)


FeatureProvider = BuiltinMelProvider | PrecomputedProvider


def build_provider(
    provider: str,
    audio: AudioConfig,
    entries: list[ManifestEntry] | None = None,
    normalize: bool = True,
    feature_dir: str | Path | None = None,
) -> FeatureProvider:
    if provider == "builtin-mel":
        built = BuiltinMelProvider(audio, normalize=normalize)
        if normalize:
            if entries is None:
                raise ValueError("builtin-mel normalization needs corpus entries")
            built.fit(entries)
        return built
    if provider == "precomputed":
        if feature_dir is None:
            raise ValueError("precomputed provider needs feature_dir")
        return PrecomputedProvider(feature_dir)
    raise ValueError(f"unknown feature provider {provider!r}")
