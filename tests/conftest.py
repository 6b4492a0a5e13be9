"""Shared pytest hooks.

The acceptance tests in ``test_acceptance.py`` are named
``test_criterion_<n>_...``; after the run, one PASS/FAIL line per criterion
is printed so the acceptance status is readable at a glance. The
``conv1d_chain`` fixture is the oracle of the fused convolution tests,
``upsample_cols`` that of the zero-stuffing-free upsampling convolution and
``per_utterance_step`` that of a training step with frozen encodings and
one alignment search per batch.
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


def _np_pad_cols(x, pad: int, mode: str):
    """Time-axis padding as an op on ``np.pad``, independent of ``tensor``'s
    padding code."""
    from pptts import tensor as tz

    width = x.data.shape[1]
    if mode == "zeros":
        out = np.pad(x.data, ((0, 0), (pad, pad)))

        def vjp(g):
            return g[:, pad : pad + width]

    else:
        out = np.pad(x.data, ((0, 0), (pad, pad)), mode="wrap")

        def vjp(g):
            core = np.array(g[:, pad : pad + width], copy=True)
            core[:, width - pad :] += g[:, :pad]
            core[:, :pad] += g[:, pad + width :]
            return core

    return tz._make(out, [(x, vjp)], "pad_cols")


def _conv1d_chain(conv, x):
    """``Conv1d.__call__`` as a chain of five graph nodes: pad, im2col,
    matmul, bias reshape and add."""
    from pptts import tensor as tz

    if conv.padding:
        x = _np_pad_cols(x, conv.padding, conv.pad_mode)
    cols = tz.frame_cols(x, conv.kernel_size)
    return (conv.weight @ cols) + conv.bias.reshape(conv.out_channels, 1)


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
def conv1d_chain():
    """Oracle for byte-equality tests of ``tensor.conv1d``; has the signature
    of ``Conv1d.__call__`` so it can be patched in for it."""
    return _conv1d_chain


def _per_utterance_step(
    model, optimizer, items, cfg, step_index, partition, include_recon, frozen=None
):
    """``train.training_step`` as a loop that runs every encoder and one
    alignment search per utterance; ``frozen`` is accepted and ignored."""
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
