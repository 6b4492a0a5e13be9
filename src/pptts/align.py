"""Monotonic alignment between token-level priors and latent frames.

The grid scores every (token, frame) pair by the diagonal-Gaussian
log-likelihood of the frame under the token's prior statistics; a dynamic
program then finds the best monotonic, complete, surjective alignment.
Used identically for phoneme and pseudo-phoneme priors.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from . import _kernels

_LOG_2PI = float(np.log(2.0 * np.pi))


def likelihood_grid(
    mean: np.ndarray, std: np.ndarray, frames: np.ndarray
) -> np.ndarray:
    """Per-(token, frame) Gaussian log-likelihood summed over channels.

    Args:
        mean, std: [channels, n_tokens] prior statistics, std > 0.
        frames: [channels, n_frames] latent frames.

    Returns:
        [n_tokens, n_frames] float64 grid.
    """
    mean = np.asarray(mean, dtype=np.float64).T
    std = np.asarray(std, dtype=np.float64).T
    frames = np.asarray(frames, dtype=np.float64).T
    if mean.shape != std.shape:
        raise ValueError("mean/std shape mismatch")
    if mean.shape[1] != frames.shape[1]:
        raise ValueError(
            f"channel mismatch: prior {mean.shape[1]} vs frames {frames.shape[1]}"
        )
    if np.any(std <= 0):
        raise ValueError("std must be strictly positive")
    c = mean.shape[1]
    inv_var = 1.0 / np.square(std)  # [N, C]
    # sum_c log N(x; mu, sigma) expanded into x^2, x, const terms -> 3 GEMMs.
    const = -0.5 * c * _LOG_2PI - np.log(std).sum(axis=1)
    const -= 0.5 * np.square(mean / std).sum(axis=1)
    quad = -0.5 * (np.square(frames) @ inv_var.T)  # [T, N]
    lin = frames @ (mean * inv_var).T  # [T, N]
    return (quad + lin).T + const[:, None]


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


@functools.lru_cache(maxsize=256)
def alignment_log_prior(n_tokens: int, n_frames: int) -> np.ndarray:
    """Static beta-binomial log-prior over (token, frame) pairs.

    The alignment prior of RAD-TTS (arXiv 2108.10447): frame ``k`` of ``T``
    places its token index on a beta-binomial distribution over ``0..N-1``
    with ``alpha = k + 1`` and ``beta = T - k``, which peaks near the
    diagonal ``j ~ k * N / T``. Added to a likelihood grid before the
    search, it turns the flat grid of an untrained prior into near-equal
    durations (instead of one token taking every spare frame) and keeps
    early training off collapsed alignments; the likelihood of a trained
    prior soon outweighs it.

    Returns a read-only [n_tokens, n_frames] float64 array (cached).
    """
    if n_tokens < 1 or n_frames < 1:
        raise ValueError("need at least one token and one frame")
    j = np.arange(n_tokens, dtype=np.float64)[:, None]
    alpha = np.arange(1, n_frames + 1, dtype=np.float64)[None, :]
    beta = alpha[:, ::-1]
    n = n_tokens - 1
    log_choose = math.lgamma(n + 1) - _lgamma(j + 1) - _lgamma(n - j + 1)
    log_beta_num = (
        _lgamma(j + alpha) + _lgamma(n - j + beta) - _lgamma(n + alpha + beta)
    )
    log_beta_den = _lgamma(alpha) + _lgamma(beta) - _lgamma(alpha + beta)
    out = log_choose + log_beta_num - log_beta_den
    out.setflags(write=False)
    return out


def monotonic_alignment_search(grids: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Maximum-likelihood monotonic complete alignment of each grid.

    Given a sequence of [n_tokens, n_frames] arrays (sizes may differ),
    returns one per-frame token-index array per grid, all found by one
    search over the batch. Requires n_tokens <= n_frames. Ties in the DP
    prefer staying on the current token.
    """
    return _kernels.mas_assignments(grids)


def alignment_to_durations(assignment: np.ndarray, n_tokens: int) -> np.ndarray:
    """Frames per token; sums to n_frames, every token gets >= 1."""
    durations = np.bincount(assignment, minlength=n_tokens)
    if len(durations) != n_tokens or np.any(durations < 1):
        raise ValueError("assignment does not cover every token")
    return durations.astype(np.int64)

