"""Shared pytest hooks.

The acceptance tests in ``test_acceptance.py`` are named
``test_criterion_<n>_...``; after the run, one PASS/FAIL line per criterion
is printed so the acceptance status is readable at a glance. The
``conv1d_chain`` fixture is the oracle of the fused convolution tests and
``upsample_cols`` that of the zero-stuffing-free upsampling convolution.
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
