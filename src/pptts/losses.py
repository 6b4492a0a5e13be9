"""Training objectives: prior-matching KLD, duration MSE, mel reconstruction.

The KLD path is one code path shared by both training stages; only the
source of the token prior differs (text encoder vs pseudo-token encoder).
The reconstruction loss runs the generated waveform through the log-mel
chain of :mod:`pptts.features`, the same code that makes the target mel, so
identical audio gives a loss of exactly zero.
"""

from __future__ import annotations

import numpy as np

from . import features
from .config import AudioConfig
from .model import Stats
from .tensor import Tensor

_LOG_2PI = float(np.log(2.0 * np.pi))


class LossError(ValueError):
    """Loss inputs with incompatible shapes or empty overlap."""


def gaussian_log_density(x: Tensor, stats: Stats) -> Tensor:
    """Elementwise log N(x; mean, std) for strictly positive std."""
    if x.shape != stats.mean.shape:
        raise LossError(
            f"value shape {x.shape} does not match stats shape {stats.mean.shape}"
        )
    centered = (x - stats.mean) / stats.std
    return (centered**2 + _LOG_2PI) * -0.5 - stats.std.log()


def kld_prior_loss(
    post: Stats,
    z: Tensor,
    z_p: Tensor,
    frame_prior: Stats,
    logdet_forward: Tensor,
) -> Tensor:
    """Single-sample KLD between the posterior and the flow-mapped prior.

    Per element: log q(z; post) - [log p(z_p; frame prior) + logdet / (T*C)],
    averaged over all frames and channels of the utterance.
    """
    if z.shape != z_p.shape:
        raise LossError(f"z shape {z.shape} does not match z_p shape {z_p.shape}")
    log_q = gaussian_log_density(z, post)
    log_p = gaussian_log_density(z_p, frame_prior)
    elements = float(z.size)
    return ((log_q - log_p).sum() - logdet_forward) * (1.0 / elements)


def duration_loss(predicted_logdur: Tensor, target_durations: np.ndarray) -> Tensor:
    """MSE between predicted log-durations and log of aligned durations."""
    targets = np.asarray(target_durations)
    if predicted_logdur.shape != targets.shape:
        raise LossError(
            f"predicted {predicted_logdur.shape} vs targets {targets.shape}"
        )
    if np.any(targets < 1):
        raise LossError("durations must be >= 1")
    log_targets = np.log(targets.astype(np.float64)).astype(
        predicted_logdur.dtype
    )
    return ((predicted_logdur - log_targets) ** 2).mean()


def reconstruction_loss(
    generated_wave: Tensor, target_mel: np.ndarray, cfg: AudioConfig
) -> Tensor:
    """L1 between the generated waveform's log-mel and the target log-mel.

    Frames beyond the shorter of the two are ignored; an empty overlap is
    an error.
    """
    gen_mel = features.log_mel(features.linear_spectrogram(generated_wave, cfg), cfg)
    target = np.asarray(target_mel, dtype=generated_wave.dtype)
    overlap = min(gen_mel.shape[0], target.shape[0])
    if overlap < 1:
        raise LossError("no overlapping mel frames between generated and target")
    diff = gen_mel[:overlap, :] - Tensor(target[:overlap])
    return diff.abs().mean()
