"""Spans around calls into pptts's public functions, recorded from outside.

A span is patched in at the name a caller looks up, not only where the
function is defined: ``train`` imports ``quantize`` by name, ``evaluate``
imports ``levenshtein`` and ``mel_of_waveform`` by name, and
``SynthesisModel.synthesize`` calls ``Flow.inverse`` directly. Patching the
defining module alone would miss those calls.

Patches are installed only inside ``Tracer.active()``, so untraced
operations run the program's own functions with no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from pptts import _kernels, align, evaluate, features, losses, model, nn, pseudo, synthetic
from pptts import tensor, train


def _decode_counts(args, result) -> dict[str, float]:
    """Work of one ``model.decode`` call, computed from shapes.

    Each upsampling stage zero-stuffs its input by ``f`` and runs a
    ``2f+1``-tap convolution; a multiply-add is useful when its tap lands on
    a real (not stuffed) input column. Pre and post convolutions read dense
    input, so every multiply-add of theirs is useful.
    """
    mdl, z = args[0], args[1]
    dec = mdl.decoder
    width = z.shape[1]
    channels = dec.pre.out_channels
    total = useful = float(width * channels * dec.pre.in_channels * dec.pre.kernel_size)
    for f in dec.factors:
        out_len = width * f
        taps = 2 * f + 1
        # Real columns sit at multiples of f; count the (output, tap) pairs
        # that reach each one inside the padded frame.
        real = np.arange(width) * f
        reach = np.minimum(real + f, out_len - 1) - np.maximum(real - f, 0) + 1
        per_pair = channels * channels
        total += float(out_len * taps * per_pair)
        useful += float(reach.sum() * per_pair)
        width = out_len
    post = float(width * dec.post.in_channels * dec.post.kernel_size)
    return {
        "model.decode.macs": total + post,
        "model.decode.useful_macs": useful + post,
        "model.decode.audio_s": result.shape[0] / mdl.audio.sample_rate,
    }


def _grid_counts(args, result) -> dict[str, float]:
    return {"align.cells": float(result.size)}


def _nearest_counts(args, result) -> dict[str, float]:
    points, centroids = args[0], args[1]
    return {"nearest.dist_evals": float(len(points) * len(centroids))}


# (span name, owner, attribute, counts from (args, result) or None). A span
# listed with several owners is one layer reached under several names.
SPANS = [
    ("model.decode", model.SynthesisModel, "decode", _decode_counts),
    ("model.posterior_encode", model.SynthesisModel, "posterior_encode", None),
    ("model.token_encode", model.SynthesisModel, "token_encode", None),
    ("model.text_encode", model.SynthesisModel, "text_encode", None),
    ("model.predict_durations", model.SynthesisModel, "predict_durations", None),
    ("model.reference_encode", model.SynthesisModel, "reference_encode", None),
    ("model.flow_forward", model.Flow, "forward", None),
    ("model.flow_inverse", model.Flow, "inverse", None),
    ("model.synthesize", model.SynthesisModel, "synthesize", None),
    ("losses.reconstruction_loss", losses, "reconstruction_loss", None),
    ("losses.kld_prior_loss", losses, "kld_prior_loss", None),
    ("losses.duration_loss", losses, "duration_loss", None),
    ("tensor.backward", tensor.Tensor, "backward", None),
    ("align.likelihood_grid", align, "likelihood_grid", _grid_counts),
    ("align.monotonic_alignment_search", align, "monotonic_alignment_search", None),
    ("kernels.nearest_centroids", _kernels, "nearest_centroids", _nearest_counts),
    ("kernels.levenshtein", _kernels, "levenshtein", None),
    ("kernels.levenshtein", evaluate, "levenshtein", None),
    ("pseudo.train_codebook", pseudo, "train_codebook", None),
    ("pseudo.quantize", pseudo, "quantize", None),
    ("pseudo.quantize", train, "quantize", None),
    ("pseudo.quantize", evaluate, "quantize", None),
    ("nn.AdamW.step", nn.AdamW, "step", None),
    ("features.compute_linear_spectrogram", features, "compute_linear_spectrogram", None),
    ("features.compute_mel", features, "compute_mel", None),
    ("features.mel_of_waveform", features, "mel_of_waveform", None),
    ("features.mel_of_waveform", evaluate, "mel_of_waveform", None),
    ("evaluate.mel_distance", evaluate, "mel_distance", None),
    ("evaluate.token_roundtrip_accuracy", evaluate, "token_roundtrip_accuracy", None),
    ("evaluate.speaker_similarity", evaluate, "speaker_similarity", None),
    ("train.training_step", train, "training_step", None),
    ("train.prepare_corpus", train, "prepare_corpus", None),
    ("train.save_checkpoint", train, "save_checkpoint", None),
    ("synthetic.generate_synthetic_corpus", synthetic, "generate_synthetic_corpus", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPANS))


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count_fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_fn is not None:
                for key, value in count_fn(args, result).items():
                    counts[key] = counts.get(key, 0.0) + value
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install every span patch; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, count_fn in SPANS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count_fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, per: int) -> dict[str, float]:
        """``<span>.calls``, ``.ms`` and ``.self_ms`` divided by ``per``.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children nest fully.
        """
        total = {name: 0.0 for name in SPAN_NAMES}
        child = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        out: dict[str, float] = {}
        scale = 1.0 / max(per, 1)
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] * scale
            out[f"{name}.ms"] = total[name] * 1e3 * scale
            out[f"{name}.self_ms"] = (total[name] - child[name]) * 1e3 * scale
        return out
