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
from . import tensor as T
from .config import AudioConfig
from .model import Stats
from .tensor import Tensor

_LOG_2PI = float(np.log(2.0 * np.pi))


class LossError(ValueError):
    """Loss inputs with incompatible shapes or empty overlap."""


def _log_density(d: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise log N(mean + d; mean, std) with the centered values
    ``d / std``, by the expressions of the op chain
    ``((d / std)**2 + log(2 pi)) * -0.5 - log(std)``."""
    centered = d / std
    sq = centered**2
    a = sq + np.asarray(_LOG_2PI, dtype=sq.dtype)
    m = a * np.asarray(-0.5, dtype=a.dtype)
    return centered, m - np.log(std)


def _log_density_grads(
    g: np.ndarray, d: np.ndarray, std: np.ndarray, centered: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`_log_density` for ``d`` and ``std`` from its
    output gradient, summed for ``std`` in the chain's order: the log
    term, then the quotient's."""
    g_std = -g / std
    g_c = g * np.asarray(-0.5, dtype=centered.dtype) * 2 * centered
    g_std += -g_c * d / np.square(std)
    return g_c / std, g_std


def _check_stats(x: Tensor, stats: Stats) -> None:
    if x.shape != stats.mean.shape or stats.std.shape != stats.mean.shape:
        raise LossError(
            f"value shape {x.shape} does not match stats shapes "
            f"{stats.mean.shape} and {stats.std.shape}"
        )


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

    Records ``z - post.mean`` and one node over (that difference,
    ``post.std``, ``z_p``, ``frame_prior.mean``, ``frame_prior.std``,
    ``logdet_forward``). The difference stays its own node because ``z``
    has other consumers (the flow, the decoder): the chain added this term
    to z's gradient after theirs, and so does a separate node.
    """
    if z.shape != z_p.shape:
        raise LossError(f"z shape {z.shape} does not match z_p shape {z_p.shape}")
    _check_stats(z, post)
    _check_stats(z_p, frame_prior)
    if logdet_forward.ndim != 0:
        raise LossError(f"logdet must be a scalar, got shape {logdet_forward.shape}")
    diff_q = z - post.mean
    std_q, mean_p, std_p = post.std, frame_prior.mean, frame_prior.std
    diff_p = z_p.data - mean_p.data
    centered_q, log_q = _log_density(diff_q.data, std_q.data)
    centered_p, log_p = _log_density(diff_p, std_p.data)
    gap = log_q - log_p
    total = np.asarray(gap.sum() - logdet_forward.data)
    scale = np.asarray(1.0 / float(z.size), dtype=total.dtype)
    parents = (diff_q, std_q, z_p, mean_p, std_p, logdet_forward)

    def vjp(g: np.ndarray) -> list:
        g_total = g * scale
        g_gap = np.array(np.broadcast_to(g_total, gap.shape), dtype=gap.dtype, copy=True)
        g_dq, g_std_q = _log_density_grads(g_gap, diff_q.data, std_q.data, centered_q)
        g_dp, g_std_p = _log_density_grads(-g_gap, diff_p, std_p.data, centered_p)
        grads = [g_dq, g_std_q, g_dp, -g_dp, g_std_p, -g_total]
        return [gr if p.requires_grad else None for p, gr in zip(parents, grads)]

    return T._make_fused(total * scale, parents, vjp, "kld_prior")


def duration_loss(predicted_logdur: Tensor, target_durations: np.ndarray) -> Tensor:
    """MSE between predicted log-durations and log of aligned durations, as
    one graph node."""
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
    diff = predicted_logdur.data - log_targets
    total = np.asarray((diff**2).sum())
    scale = np.asarray(1.0 / float(diff.size), dtype=total.dtype)

    def vjp(g: np.ndarray) -> np.ndarray:
        return np.broadcast_to(g * scale, diff.shape) * 2 * diff

    return T._make(total * scale, [(predicted_logdur, vjp)], "duration_mse")


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
