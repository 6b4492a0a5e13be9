#!/usr/bin/env python3
"""Time the NumPy kernels of ``pptts._kernels`` on realistic problem sizes,
two of the decoder's audio-rate layers from ``pptts.tensor``, and one pass
of the audio front end from ``pptts.features``.

Prints one row per kernel with the median wall time of one call, over at
least 7 calls and at least 0.5 s of timed calls. The layer rows take the
input the decoder gives them in a pretrain step at the acceptance sizes:
the F-ordered [16, 3456] output of the last upsampling stage (a 54-frame
utterance at hop 64). ``post conv1d`` is the decoder's last convolution
(16 channels to 1, 7 taps, padding 3), forward plus backward to the
weight, bias and input; ``relu`` is one forward.
``quantize`` assigns one utterance's float32 frames to a k=9 codebook,
the per-utterance call of tokenizing and of scoring a synthesis request.
``log-mel`` is ``mel_of_waveform`` (STFT, filterbank, log) of 1.5 s of
audio at the acceptance sizes: 8 kHz, n_fft 256, hop 64, window 128,
20 mels. Evaluating one utterance runs it once per wave. ``synthetic
corpus`` is ``generate_synthetic_corpus`` writing 256 one-word utterances
in 8 voices at 8 kHz, the size of the benchmark's codebook corpus, to a
temporary directory. ``kmeans++ init`` and ``train_codebook`` run on the
standardized log-mel frames of such a corpus (288 utterances), trimmed to
the 10,760 x 20 frames of the codebook workload at seed 1: seeding of
k=64 centroids, a whole fit of 32 Lloyd passes at tolerance 0, and a whole
fit at the default ``max_iters`` and ``tol``, as ``pptts codebook`` runs
it, which stops once the largest centroid shift is below ``tol``.

Each row runs in a fresh process that builds only that row's input (the
codebook rows load their frames from a file the parent process wrote), so
no row inherits the allocator state of another: a kernel that pays page
faults on fresh temporaries pays them here as it does in a short-lived
``pptts`` command.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from pptts import _kernels, pseudo, tensor
from pptts.config import AudioConfig
from pptts.data import load_manifest
from pptts.features import FrameFeatures, build_provider, mel_of_waveform
from pptts.synthetic import generate_synthetic_corpus, random_texts

AUDIO = AudioConfig(sample_rate=8000, n_fft=256, hop_length=64, win_length=128, n_mels=20)


def _median_ms(fn, args, min_calls: int = 7, min_s: float = 0.5) -> float:
    """Median wall time of one call in milliseconds, after one warm-up call,
    over at least ``min_calls`` calls and at least ``min_s`` seconds, so a
    sub-millisecond row takes its median over thousands of calls."""
    fn(*args)
    samples = []
    deadline = time.perf_counter() + min_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _post_conv_step(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, upstream: np.ndarray):
    """Forward and backward of the decoder's ``post`` convolution."""
    x, weight, bias = (tensor.Tensor(a, requires_grad=True) for a in (x, weight, bias))
    tensor.conv1d(x, weight, bias, 7, 3).backward(upstream)


def _synthetic_corpus(out_dir: str, texts: list[str]) -> None:
    generate_synthetic_corpus(
        seed=0, n_utts=len(texts), n_speakers=8, out_dir=out_dir,
        sample_rate=AUDIO.sample_rate, texts=texts,
    )


def _codebook_frames(texts: list[str], rows: int = 10_760) -> np.ndarray:
    with tempfile.TemporaryDirectory() as out_dir:
        manifest = generate_synthetic_corpus(
            seed=1, n_utts=len(texts), n_speakers=8, out_dir=out_dir,
            sample_rate=AUDIO.sample_rate, texts=texts,
        )
        entries = load_manifest(manifest)
        provider = build_provider("builtin-mel", AUDIO, entries=entries, normalize=True)
        frames = np.concatenate([provider.features_for(e).values for e in entries])
    if len(frames) < rows:
        raise RuntimeError(f"corpus gave {len(frames)} frames, fewer than {rows}")
    return frames[:rows].astype(np.float64)


def _fit_codebook(frames: np.ndarray, **schedule) -> None:
    stream = [FrameFeatures(frames, "bench", 50.0)]
    pseudo.train_codebook(stream, k=64, seed=1, **schedule)


def _audio(rng: np.random.Generator) -> np.ndarray:
    """The F-ordered [16, 3456] output of the decoder's last upsampling stage."""
    return np.asfortranarray(rng.standard_normal((16, 3456)).astype(np.float32))


def _post_conv_args(rng, _):
    return (
        _audio(rng),
        rng.standard_normal((1, 16 * 7)).astype(np.float32),
        np.zeros(1, np.float32),
        rng.standard_normal((1, 3456)).astype(np.float32),
    )


# The codebook rows' frames, saved by the parent process in its scratch directory.
FRAMES = "frames.npy"

# (row name, function, its arguments from (rng, scratch directory)).
CASES = [
    (
        "mas_assignments 1 grid 80x600",
        _kernels.mas_assignments,
        lambda rng, _: ([rng.standard_normal((80, 600))],),
    ),
    (
        "mas_assignments 1 grid 200x2000",
        _kernels.mas_assignments,
        lambda rng, _: ([rng.standard_normal((200, 2000))],),
    ),
    (
        # One fine-tune batch: four utterances of 3-4 phonemes.
        "mas_assignments 4 grids ~4x50",
        _kernels.mas_assignments,
        lambda rng, _: ([rng.standard_normal(s) for s in ((3, 45), (4, 55), (3, 40), (4, 56))],),
    ),
    (
        "levenshtein 2x1500",
        _kernels.levenshtein,
        lambda rng, _: tuple(rng.integers(0, 64, (2, 1500)).astype(np.int64)),
    ),
    (
        "nearest_centroids 50000x16 k=128",
        _kernels.nearest_centroids,
        lambda rng, _: (rng.standard_normal((50_000, 16)), rng.standard_normal((128, 16))),
    ),
    (
        "quantize 200x20 k=9",
        pseudo.quantize,
        lambda rng, _: (
            FrameFeatures(rng.standard_normal((200, 20)).astype(np.float32), "bench", 50.0),
            pseudo.Codebook(rng.standard_normal((9, 20)), seed=0, provider_id="bench"),
        ),
    ),
    (
        "kmeans++ init 10760x20 k=64",
        pseudo._kmeans_pp_init,
        lambda _, tmp: (np.load(os.path.join(tmp, FRAMES)), 64, np.random.default_rng(1)),
    ),
    (
        "train_codebook 10760x20 k=64 32 passes",
        functools.partial(_fit_codebook, max_iters=32, tol=0.0),
        lambda _, tmp: (np.load(os.path.join(tmp, FRAMES)),),
    ),
    (
        "train_codebook 10760x20 k=64 default tol",
        _fit_codebook,
        lambda _, tmp: (np.load(os.path.join(tmp, FRAMES)),),
    ),
    ("post conv1d fwd+bwd F 16x3456", _post_conv_step, _post_conv_args),
    ("relu F 16x3456", tensor.Tensor.relu, lambda rng, _: (tensor.Tensor(_audio(rng)),)),
    (
        "log-mel 12000 samples",
        mel_of_waveform,
        lambda rng, _: (rng.uniform(-0.5, 0.5, 12_000).astype(np.float32), AUDIO),
    ),
    (
        "synthetic corpus 256 utts 8 voices",
        _synthetic_corpus,
        lambda rng, tmp: (os.path.join(tmp, "corpus"), random_texts(rng, 256, words=(1, 1))),
    ),
]


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--row":
        # A child process: time one row and print its median.
        row, tmp = int(sys.argv[2]), sys.argv[3]
        _, fn, build = CASES[row]
        print(repr(_median_ms(fn, build(np.random.default_rng([0, row]), tmp))))
        return
    with tempfile.TemporaryDirectory() as tmp:
        texts = random_texts(np.random.default_rng(1), 288, words=(1, 1))
        np.save(os.path.join(tmp, FRAMES), _codebook_frames(texts))
        header = f"{'kernel':<40} {'median (ms)':>12}"
        print(header)
        print("-" * len(header))
        for row, (name, _, _) in enumerate(CASES):
            proc = subprocess.run(
                [sys.executable, __file__, "--row", str(row), tmp], capture_output=True, text=True
            )
            if proc.returncode:
                sys.exit(f"{name}: {proc.stderr}")
            print(f"{name:<40} {float(proc.stdout):>12.3f}", flush=True)


if __name__ == "__main__":
    main()
