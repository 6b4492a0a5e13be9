"""Deterministic synthetic speech corpus for desk-scale experiments.

Each character is a fixed "phone": a harmonic comb at the speaker's
fundamental frequency, shaped by a character-specific two-formant envelope,
with a character-specific duration. Spaces are short silences. Voices
differ in fundamental frequency and in a vocal-tract-length proxy that
scales the whole formant envelope, so speaker identity is audible in
timbre, not just pitch. The same (text, speaker) pair always renders the
identical waveform, so a learnable text-to-audio mapping exists by
construction.
"""

from __future__ import annotations

import math
import numbers
import string
from pathlib import Path

import numpy as np

from .audio import write_wav
from .data import ManifestEntry, write_manifest

_RAMP_S = 0.008
_SILENCE_S = 0.06
_PEAK = 0.25
_GOLDEN = 0.6180339887498949


_FORMANT_SPREAD = 0.5


def speaker_f0(speaker_index: int) -> float:
    """Fundamental frequency for a speaker index.

    Golden-ratio spacing inside one octave keeps any new index interleaved
    with earlier ones, so held-out speakers fall within the trained range.
    """
    return 110.0 * 2.0 ** ((speaker_index * _GOLDEN) % 1.0)


def speaker_formant_scale(speaker_index: int) -> float:
    """Vocal-tract-length proxy: multiplies every formant frequency.

    Spread over half an octave with the same golden-ratio interleaving as
    the fundamental. Index 0 maps to exactly 1.0, so single-speaker corpora
    are identical to corpora generated before voices had a timbre axis.
    """
    return 2.0 ** (_FORMANT_SPREAD * ((speaker_index * _GOLDEN) % 1.0))


def _phone_params(char: str) -> tuple[float, float, float]:
    """(formant1_hz, formant2_hz, duration_s) for a character."""
    i = ord(char) - ord("a")
    if i < 0 or i >= 26:
        raise ValueError(f"unsupported character {char!r}")
    f1 = 280.0 + 65.0 * (i % 9)
    f2 = 1150.0 + 160.0 * ((i * 5) % 13)
    dur = 0.09 + 0.012 * (i % 5)
    return f1, f2, dur


def _render_phone(
    char: str,
    f0: float,
    sample_rate: int,
    rng: np.random.Generator | None = None,
    formant_jitter: float = 0.0,
    duration_jitter: float = 0.0,
    formant_scale: float = 1.0,
) -> np.ndarray:
    if char == " ":
        return np.zeros(int(round(_SILENCE_S * sample_rate)), dtype=np.float64)
    f1, f2, dur = _phone_params(char)
    # Keep scaled formants safely below Nyquist so every voice's envelope
    # peak stays representable.
    cap = 0.43 * sample_rate
    f1 = min(f1 * formant_scale, cap)
    f2 = min(f2 * formant_scale, cap)
    if rng is not None:
        if formant_jitter > 0.0:
            f1 *= 1.0 + rng.uniform(-formant_jitter, formant_jitter)
            f2 *= 1.0 + rng.uniform(-formant_jitter, formant_jitter)
        if duration_jitter > 0.0:
            dur *= 1.0 + rng.uniform(-duration_jitter, duration_jitter)
    n = int(round(dur * sample_rate))
    t = np.arange(n, dtype=np.float64) / sample_rate
    limit = 0.45 * sample_rate
    wave = np.zeros(n, dtype=np.float64)
    m = 1
    while m * f0 < limit:
        freq = m * f0
        amp = np.exp(-(((freq - f1) / 200.0) ** 2)) + 0.8 * np.exp(
            -(((freq - f2) / 300.0) ** 2)
        )
        if amp > 1e-4:
            wave += amp * np.sin(2.0 * np.pi * freq * t)
        m += 1
    peak = np.max(np.abs(wave), initial=0.0)  # a phone shorter than one sample is empty
    if peak > 0:
        wave *= _PEAK / peak
    ramp = int(round(_RAMP_S * sample_rate))
    if ramp > 0 and n >= 2 * ramp:
        fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        wave[:ramp] *= fade
        wave[-ramp:] *= fade[::-1]
    return wave


def render_utterance(
    text: str,
    speaker_index: int,
    sample_rate: int,
    rng: np.random.Generator | None = None,
    formant_jitter: float = 0.0,
    duration_jitter: float = 0.0,
    phones: dict[tuple[str, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Render normalized text for a speaker.

    Without an ``rng`` the rendering is pure: the same (text, speaker) pair
    always yields the identical waveform, and each phone is a function of
    (character, speaker, sample rate) alone. ``phones`` then memoizes those
    phones by (character, speaker index); the caller owns it and must not
    share it between sample rates. With an ``rng`` each phone instance gets
    an independent formant/duration perturbation, so repeated renditions of
    one text differ the way natural recordings do while the speaker's
    fundamental and vocal-tract scale stay fixed; ``phones`` is not used.
    """
    f0 = speaker_f0(speaker_index)
    scale = speaker_formant_scale(speaker_index)
    if rng is not None:
        parts = [
            _render_phone(
                ch, f0, sample_rate, rng, formant_jitter, duration_jitter, scale
            )
            for ch in text
        ]
    else:
        memo = {} if phones is None else phones
        parts = []
        for ch in text:
            key = (ch, speaker_index)
            if key not in memo:
                memo[key] = _render_phone(ch, f0, sample_rate, formant_scale=scale)
            parts.append(memo[key])
    if not parts:
        raise ValueError("empty text")
    return np.concatenate(parts)


def random_texts(
    rng: np.random.Generator,
    n: int,
    alphabet: str = "abcdefgh",
    words: tuple[int, int] = (1, 2),
    word_len: tuple[int, int] = (2, 4),
) -> list[str]:
    letters = list(alphabet)
    texts = []
    for _ in range(n):
        n_words = int(rng.integers(words[0], words[1] + 1))
        ws = []
        for _ in range(n_words):
            length = int(rng.integers(word_len[0], word_len[1] + 1))
            ws.append("".join(rng.choice(letters, size=length)))
        texts.append(" ".join(ws))
    return texts


def generate_synthetic_corpus(
    seed: int,
    n_utts: int,
    n_speakers: int,
    out_dir: str | Path,
    sample_rate: int = 22050,
    alphabet: str = "abcdefgh",
    texts: list[str] | None = None,
    speaker_indices: list[int] | None = None,
    formant_jitter: float = 0.0,
    duration_jitter: float = 0.0,
) -> Path:
    """Write a deterministic corpus and return the manifest path.

    Speakers are assigned round-robin. ``speaker_indices`` overrides the
    default ``range(n_speakers)`` so extra corpora can use held-out voices.
    Nonzero jitter gives every utterance its own phone-level perturbations
    (seeded from the corpus seed and utterance index, so reruns still
    reproduce the corpus byte for byte).

    Without jitter each distinct (character, speaker) phone is rendered
    once per call and reused: the memo lives only for this call and holds
    at most (distinct characters x distinct speakers) phones. One-word
    texts over 8 letters in 8 voices at 8 kHz give 64 phones of about 1k
    float64 samples each, about 0.5 MB.
    """
    if n_utts < 1:
        raise ValueError("n_utts must be >= 1")
    if n_speakers < 1:
        raise ValueError("n_speakers must be >= 1")
    integral = isinstance(sample_rate, numbers.Integral) and not isinstance(sample_rate, bool)
    if not (integral and sample_rate >= 1):
        raise ValueError(f"sample_rate must be an integer >= 1, got {sample_rate!r}")
    # Every unjittered sound, the shortest phone and the inter-word silence
    # included, must hold at least one sample.
    shortest = min(_SILENCE_S, *(_phone_params(c)[2] for c in string.ascii_lowercase))
    if round(shortest * sample_rate) < 1:
        raise ValueError(
            f"sample_rate {sample_rate} Hz is too low: a {shortest:g} s sound "
            "would render as zero samples"
        )
    # A phone is scaled by 1 +/- jitter, which must stay positive.
    for name, jitter in (("formant_jitter", formant_jitter), ("duration_jitter", duration_jitter)):
        if not (isinstance(jitter, numbers.Real) and math.isfinite(jitter) and 0 <= jitter < 1):
            raise ValueError(
                f"{name} must be a finite number with 0 <= {name} < 1, got {jitter!r}"
            )
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    # Resolved once: each WAV path is this directory plus a fresh file name.
    wav_dir = wav_dir.resolve()
    rng = np.random.default_rng(seed)
    if texts is None:
        texts = random_texts(rng, n_utts, alphabet=alphabet)
    elif len(texts) != n_utts:
        raise ValueError("len(texts) must equal n_utts")
    speakers = speaker_indices if speaker_indices is not None else list(range(n_speakers))

    phones: dict[tuple[str, int], np.ndarray] = {}
    entries = []
    for i, text in enumerate(texts):
        spk = speakers[i % len(speakers)]
        jitter_rng = (
            np.random.default_rng((seed, i))
            if formant_jitter > 0.0 or duration_jitter > 0.0
            else None
        )
        wave = render_utterance(
            text, spk, sample_rate, jitter_rng, formant_jitter, duration_jitter, phones
        )
        wav_path = wav_dir / f"utt{i:04d}.wav"
        write_wav(wav_path, wave, sample_rate)
        entries.append(
            ManifestEntry(
                id=f"utt{i:04d}",
                audio_path=str(wav_path),
                speaker_id=f"spk{spk}",
                duration_s=len(wave) / sample_rate,
                text=text,
            )
        )
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, entries)
    return manifest_path
