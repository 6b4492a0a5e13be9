"""Synthesis quality metrics and manifest-level evaluation reports."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._kernels import levenshtein
from .audio import read_wav
from .data import ManifestEntry, text_to_phonemes
from .features import FrameFeatures, PrecomputedProvider, mel_of_waveform
from .model import SynthesisModel, check_synthesis_scales
from .pseudo import Codebook, merge_runs, quantize


class EvalError(ValueError):
    """Raised for metric inputs that cannot be scored."""


def mel_distance(ref_mel: np.ndarray, gen_mel: np.ndarray) -> float:
    """Mean absolute difference of two log-mels [frames x n_mels] over their
    overlapping frames.

    The two may differ in length; frames beyond the shorter matrix are
    ignored. Both must have at least one frame.
    """
    frames = min(ref_mel.shape[0], gen_mel.shape[0])
    if frames == 0:
        raise EvalError("no overlapping mel frames to compare")
    diff = np.abs(ref_mel[:frames].astype(np.float64) - gen_mel[:frames].astype(np.float64))
    return float(diff.mean())


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise EvalError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        raise EvalError("cosine similarity undefined for zero-norm embeddings")
    return float(np.dot(a, b) / denom)


def speaker_similarity(
    ref_embedding: np.ndarray, gen_mel: np.ndarray, model: SynthesisModel
) -> float:
    """Cosine similarity between a reference-encoder embedding (as
    ``SynthesisResult.speaker`` carries it) and the embedding of a log-mel
    computed at ``model.audio``."""
    if not model.config.multi_speaker:
        raise EvalError("speaker similarity requires a multi-speaker model")
    emb_gen = model.reference_encode(gen_mel).data.ravel()
    return cosine_similarity(ref_embedding, emb_gen)


def token_roundtrip_accuracy(
    features: FrameFeatures, expected_tokens: np.ndarray, codebook: Codebook
) -> float:
    """How well generated audio re-tokenizes to its pseudo token targets.

    Quantizes the generated audio's frame features, from the provider the
    codebook was fitted on, merges runs, and returns
    1 - edit_distance / max(len). 1.0 means the merged sequence round-trips
    exactly.
    """
    expected = np.asarray(expected_tokens, dtype=np.int64).ravel()
    if expected.size == 0:
        raise EvalError("expected token sequence is empty")
    got, _ = merge_runs(quantize(features, codebook))
    if got.size == 0:
        raise EvalError("generated wave produced no tokens")
    dist = levenshtein(got, expected)
    return 1.0 - dist / max(got.size, expected.size)


@dataclass
class EvalReport:
    """Per-utterance metric records plus corpus-level aggregates."""

    records: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_AGGREGATE_FIELDS = ("mel_l1", "speaker_cos", "token_acc")


def evaluate_manifest(
    model: SynthesisModel,
    entries: list[ManifestEntry],
    codebook: Codebook | None = None,
    provider=None,
    noise_scale: float = 0.667,
    length_scale: float = 1.0,
    seed: int = 0,
) -> EvalReport:
    """Synthesize each labeled entry and score it against its recording.

    Each entry's recording and generated wave become one log-mel each at
    ``model.audio``, which all three metrics read, and speaker similarity
    compares the generated wave with the reference embedding that
    conditioned its synthesis; the token features reuse them when
    ``provider.audio`` equals ``model.audio`` and are computed from the
    waves otherwise. Scoring tokens needs the builtin-mel provider the
    codebook was fitted on, standardized as in that fit, not refitted on
    the evaluated manifest. Entries that cannot be scored (missing text,
    unreadable audio) are recorded under ``errors`` instead of aborting the
    whole run.
    """
    if model.mode != "finetune":
        raise EvalError("evaluation synthesizes from text; model must be in finetune mode")
    if codebook is not None and provider is None:
        raise EvalError(
            "token accuracy needs the feature provider the codebook was fitted on"
        )
    if codebook is not None and isinstance(provider, PrecomputedProvider):
        raise EvalError(
            "generated audio has no precomputed features; score token "
            "accuracy with the builtin-mel provider"
        )
    check_synthesis_scales(noise_scale, length_scale)
    multi = model.config.multi_speaker
    report = EvalReport()
    for index, entry in enumerate(entries):
        try:
            if not entry.text:
                raise EvalError("entry has no text to synthesize")
            ref_wave, _ = read_wav(entry.audio_path, model.audio.sample_rate)
            ids = text_to_phonemes(entry.text)
            ref_mel = mel_of_waveform(ref_wave, model.audio)
            result = model.synthesize(
                ids,
                noise_scale=noise_scale,
                length_scale=length_scale,
                ref_mel=ref_mel if multi else None,
                seed=seed + index,
            )
            gen_mel = mel_of_waveform(result.wave, model.audio)
            record = {
                "id": entry.id,
                "mel_l1": mel_distance(ref_mel, gen_mel),
                "gen_seconds": result.wave.size / model.audio.sample_rate,
            }
            if multi:
                record["speaker_cos"] = speaker_similarity(result.speaker, gen_mel, model)
            if codebook is not None:
                if provider.audio == model.audio:
                    ref_feats = provider.features_for_mel(ref_mel)
                    gen_feats = provider.features_for_mel(gen_mel)
                else:
                    ref_feats = provider.features_for_wave(ref_wave)
                    gen_feats = provider.features_for_wave(result.wave)
                expected, _ = merge_runs(quantize(ref_feats, codebook))
                record["token_acc"] = token_roundtrip_accuracy(gen_feats, expected, codebook)
            report.records.append(record)
        except (EvalError, ValueError, OSError) as exc:
            report.errors.append({"id": entry.id, "error": str(exc)})
    agg: dict = {"count": len(report.records), "error_count": len(report.errors)}
    for key in _AGGREGATE_FIELDS:
        vals = [r[key] for r in report.records if key in r]
        if vals:
            agg[key] = float(np.mean(vals))
    report.aggregate = agg
    return report
