"""Shared pytest hooks.

The acceptance tests in ``test_acceptance.py`` are named
``test_criterion_<n>_...``; after the run, one PASS/FAIL line per criterion
is printed so the acceptance status is readable at a glance. The
``conv1d_chain`` fixture is the oracle of the fused convolution tests,
``upsampled_chain`` that of the fused upsampling convolution,
``upsample_cols`` the zero-stuffed input that the upsampling convolution
never builds, and ``per_utterance_step`` the oracle of a training step with
frozen encodings and one alignment search per batch. ``pad_cols`` and
``frame_cols`` are single ops those chains are made of.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

_CRITERIA = {
    1: "monotonic alignment matches exhaustive search",
    2: "flow invertibility and log-determinant accuracy",
    3: "analytic gradients match central finite differences",
    4: "pseudo-phoneme pipeline: purity, monotone inertia, merge round trip",
    5: "fine-tuning freeze contract",
    6: "pre-training + fine-tuning beats from-scratch training",
    7: "zero-shot speaker transfer from reference audio",
    8: "bit-identical reruns: training logs and synthesized audio",
    9: "latent KL divergence closed-form spot checks",
}

_results: dict[int, str] = {}


def _criterion_of(nodeid: str) -> int | None:
    match = re.search(r"test_criterion_(\d+)", nodeid)
    return int(match.group(1)) if match else None


def pytest_runtest_logreport(report) -> None:
    number = _criterion_of(report.nodeid)
    if number is None:
        return
    if report.when == "call" or report.failed:
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        if _results.get(number) != "FAIL":
            _results[number] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_results):
        terminalreporter.write_line(
            f"criterion {number} [{_results[number]}] {_CRITERIA[number]}"
        )


def _pad_cols(x, left: int, right: int, mode: str = "zeros"):
    """Time-axis padding as an op on ``np.pad``, independent of ``tensor``'s
    padding code."""
    from pptts import tensor as tz

    width = x.data.shape[1]
    if mode == "zeros":
        out = np.pad(x.data, ((0, 0), (left, right)))

        def vjp(g):
            return g[:, left : left + width]

    else:
        out = np.pad(x.data, ((0, 0), (left, right)), mode="wrap")

        def vjp(g):
            core = np.array(g[:, left : left + width], copy=True)
            if left:
                core[:, width - left :] += g[:, :left]
            if right:
                core[:, :right] += g[:, left + width :]
            return core

    return tz._make(out, [(x, vjp)], "pad_cols")


def _frame_cols(x, kernel: int):
    """im2col of a [C, T] tensor: [C * kernel, T - kernel + 1], column t
    holding the flattened window x[:, t : t + kernel]."""
    from pptts import tensor as tz

    out = tz._im2col(x.data, kernel)
    return tz._make(out, [(x, lambda g: tz._col2im(g, x.data, kernel))], "frame_cols")


def _take_rows_scatter(x, ids):
    """``x[ids]`` along the leading axis with a plain-scatter backward: a
    row that ``ids`` repeats gets one of its gradients, not their sum."""
    from pptts import tensor as tz

    def vjp(g):
        gx = np.zeros_like(x.data)
        # ``+ 0.0`` turns -0.0 into 0.0, as adding into zeros does.
        gx[ids] = g + 0.0
        return gx

    return tz._make(x.data[ids], [(x, vjp)], "take_rows")


def _conv1d_chain(conv, x):
    """``Conv1d.__call__`` as a chain of five graph nodes: pad, im2col,
    matmul, bias reshape and add."""
    if conv.padding:
        x = _pad_cols(x, conv.padding, conv.padding, conv.pad_mode)
    cols = _frame_cols(x, conv.kernel_size)
    return (conv.weight @ cols) + conv.bias.reshape(conv.out_channels, 1)


def _upsampled_chain(conv, x, factor: int, take_rows=_take_rows_scatter):
    """``Conv1d.upsampled`` as a chain of twelve graph nodes: weight
    transpose, concat with a zero row, gather of the phase weights,
    reshape, pad, im2col, transpose, matmul, reshape, transpose, bias
    reshape and add."""
    from pptts import tensor as tz

    f = factor
    channels, width = x.shape
    # Row (c, j, r) of the gathered weight holds tap f*j - r of input
    # channel c, or the appended zero row where that tap does not exist.
    c, j, r = np.meshgrid(np.arange(channels), np.arange(3), np.arange(f), indexing="ij")
    taps = f * j - r
    zero_row = channels * conv.kernel_size
    ids = np.where(taps >= 0, c * conv.kernel_size + taps, zero_row).ravel()
    zero = tz.Tensor(np.zeros((1, conv.out_channels), conv.weight.dtype))
    weight_t = tz.concat([conv.weight.t(), zero])
    phases = take_rows(weight_t, ids).reshape(3 * channels, -1)
    cols = _frame_cols(_pad_cols(x, 1, 1), 3)
    out = (cols.t() @ phases).reshape(width * f, conv.out_channels).t()
    return out + conv.bias.reshape(conv.out_channels, 1)


def _upsample_cols(x, factor: int):
    """Zero-stuff the time axis of a [C, T] tensor by an integer factor:
    each column is followed by ``factor - 1`` zero columns."""
    from pptts import tensor as tz

    channels, width = x.data.shape
    out = np.zeros((channels, width * factor), dtype=x.data.dtype)
    out[:, ::factor] = x.data

    def vjp(g):
        return g[:, ::factor]

    return tz._make(out, [(x, vjp)], "upsample_cols")


@pytest.fixture
def upsample_cols():
    """Oracle of ``Conv1d.upsampled``: the zero-stuffed input that it
    convolves without materializing."""
    return _upsample_cols


@pytest.fixture
def pad_cols():
    return _pad_cols


@pytest.fixture
def frame_cols():
    return _frame_cols


@pytest.fixture
def upsampled_chain():
    """Oracle for byte-equality tests of ``tensor.conv1d_upsampled``; has
    the signature of ``Conv1d.upsampled`` so it can be patched in for it."""
    return _upsampled_chain


@pytest.fixture
def conv1d_chain():
    """Oracle for byte-equality tests of ``tensor.conv1d``; has the signature
    of ``Conv1d.__call__`` so it can be patched in for it."""
    return _conv1d_chain


def _per_utterance_step(model, optimizer, items, cfg, step_index, partition, include_recon):
    """``train.training_step`` as a loop that runs every encoder and one
    alignment search per utterance; encodings stored on the items are
    ignored."""
    from pptts import align, losses
    from pptts import tensor as tz
    from pptts.model import Stats
    from pptts.seeding import seeded_rng

    terms = []
    for j, item in enumerate(items):
        rng = seeded_rng(cfg.seed, step_index, j)
        eps = rng.standard_normal(
            (model.config.latent_channels, item.spec.shape[0])
        ).astype(model.np_dtype)
        z, post = model.posterior_encode(item.spec, eps)
        speaker = model.reference_encode(item.mel) if model.config.multi_speaker else None
        z_p, logdet = model.flow_forward(z, speaker)
        hidden, prior = model.token_encode(item.tokens)
        with tz.no_grad():
            grid = align.likelihood_grid(prior.mean_tc, prior.std_tc, z_p.data.T)
            grid += align.alignment_log_prior(*grid.shape)
            assignment = align.monotonic_alignment_search(grid)
        durations = align.alignment_to_durations(assignment, item.tokens.size)
        frame_prior = Stats(
            mean=tz.repeat_cols(prior.mean, durations),
            std=tz.repeat_cols(prior.std, durations),
        )
        term = {
            "kld": losses.kld_prior_loss(post, z, z_p, frame_prior, logdet),
            "dur": losses.duration_loss(model.predict_durations(hidden), durations),
        }
        if include_recon:
            wave = model.decode(z, speaker)
            term["recon"] = losses.reconstruction_loss(wave, item.mel, model.audio)
        terms.append(term)

    mean = {}
    for key in terms[0]:
        total = terms[0][key]
        for term in terms[1:]:
            total = total + term[key]
        mean[key] = total * (1.0 / len(terms))
    total = cfg.kld_weight * mean["kld"] + cfg.duration_weight * mean["dur"]
    if include_recon:
        total = total + cfg.mel_weight * mean["recon"]
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    out = {
        "loss_total": float(total.item()),
        "loss_kld": float(mean["kld"].item()),
        "loss_dur": float(mean["dur"].item()),
    }
    if include_recon:
        out["loss_recon"] = float(mean["recon"].item())
    return out


@pytest.fixture
def per_utterance_step():
    """Oracle of ``train.training_step``, with its signature so it can be
    patched in for it."""
    return _per_utterance_step
