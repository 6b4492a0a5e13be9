"""Deterministic synthetic corpus generator."""

import dataclasses
import shutil
from pathlib import Path

import numpy as np
import pytest

from pptts import synthetic
from pptts.audio import read_wav
from pptts.data import load_manifest, write_manifest
from pptts.synthetic import (
    generate_synthetic_corpus,
    random_texts,
    render_utterance,
    speaker_f0,
    speaker_formant_scale,
)


class TestSpeakerF0:
    def test_within_one_octave(self):
        for i in range(64):
            assert 110.0 <= speaker_f0(i) < 220.0

    def test_distinct_for_small_indices(self):
        f0s = [speaker_f0(i) for i in range(16)]
        assert len(set(round(f, 6) for f in f0s)) == 16

    def test_held_out_indices_interpolate(self):
        # Indices 9 and 10 must land strictly inside the range spanned by 0..7,
        # so they make fair unseen voices for zero-shot reference tests.
        trained = [speaker_f0(i) for i in range(8)]
        for idx in (9, 10):
            assert min(trained) < speaker_f0(idx) < max(trained)


class TestSpeakerFormantScale:
    def test_index_zero_is_exactly_one(self):
        # Guarantees single-speaker corpora are byte-identical to corpora
        # generated before voices gained a timbre axis.
        assert speaker_formant_scale(0) == 1.0

    def test_within_half_octave(self):
        for i in range(64):
            assert 1.0 <= speaker_formant_scale(i) < 2.0**0.5

    def test_distinct_for_small_indices(self):
        scales = [speaker_formant_scale(i) for i in range(16)]
        assert len(set(round(s, 6) for s in scales)) == 16

    def test_held_out_indices_interpolate(self):
        trained = [speaker_formant_scale(i) for i in range(8)]
        for idx in (9, 10):
            assert min(trained) < speaker_formant_scale(idx) < max(trained)

    def test_scales_spectral_envelope(self):
        # For a voice with formant scale > 1, the band around the scaled
        # first formant must hold more energy than the band around the
        # unscaled one: timbre, not just pitch, varies per speaker.
        sample_rate = 22050
        for idx in (3, 6):
            wave = render_utterance("a", idx, sample_rate)
            spectrum = np.abs(np.fft.rfft(wave))
            freqs = np.fft.rfftfreq(len(wave), 1.0 / sample_rate)
            half_width = speaker_f0(idx) / 4
            scaled_f1 = 280.0 * speaker_formant_scale(idx)

            def band_energy(center):
                band = np.abs(freqs - center) <= half_width
                return float((spectrum[band] ** 2).sum())

            assert band_energy(scaled_f1) > band_energy(280.0)


class TestRender:
    def test_deterministic(self):
        a = render_utterance("ab c", 0, 8000)
        b = render_utterance("ab c", 0, 8000)
        assert np.array_equal(a, b)

    def test_speakers_differ(self):
        a = render_utterance("abc", 0, 8000)
        b = render_utterance("abc", 1, 8000)
        assert a.shape == b.shape
        assert not np.allclose(a, b)

    def test_amplitude_bounded(self):
        wave = render_utterance("abcdefgh", 3, 8000)
        assert np.max(np.abs(wave)) <= 1.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            render_utterance("", 0, 8000)


class TestRandomTexts:
    def test_seeded(self):
        a = random_texts(np.random.default_rng(5), 10)
        b = random_texts(np.random.default_rng(5), 10)
        assert a == b

    def test_alphabet_respected(self):
        texts = random_texts(np.random.default_rng(0), 50, alphabet="abc")
        assert all(set(t) <= set("abc ") for t in texts)


class TestCorpus:
    def test_structure(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=0, n_utts=5, n_speakers=2, out_dir=tmp_path, sample_rate=8000
        )
        entries = load_manifest(manifest)
        assert len(entries) == 5
        speakers = {e.speaker_id for e in entries}
        assert speakers == {"spk0", "spk1"}
        for e in entries:
            wave, sr = read_wav(e.audio_path)
            assert sr == 8000
            assert abs(len(wave) / sr - e.duration_s) < 1e-6
            assert e.text

    def test_rerun_identical_bytes(self, tmp_path):
        m1 = generate_synthetic_corpus(seed=3, n_utts=4, n_speakers=1, out_dir=tmp_path / "a", sample_rate=8000)
        m2 = generate_synthetic_corpus(seed=3, n_utts=4, n_speakers=1, out_dir=tmp_path / "b", sample_rate=8000)
        e1, e2 = load_manifest(m1), load_manifest(m2)
        assert [x.text for x in e1] == [x.text for x in e2]
        for a, b in zip(e1, e2):
            wa, _ = read_wav(a.audio_path)
            wb, _ = read_wav(b.audio_path)
            assert np.array_equal(wa, wb)

    def test_speaker_indices_override(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=0, n_utts=4, n_speakers=2, out_dir=tmp_path,
            sample_rate=8000, speaker_indices=[8, 9],
        )
        assert {e.speaker_id for e in load_manifest(manifest)} == {"spk8", "spk9"}

    def test_invalid_counts(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=0, n_utts=0, n_speakers=1, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sample_rate": 0}, "sample_rate must be an integer >= 1, got 0"),
            ({"sample_rate": -8000}, "sample_rate must be an integer >= 1, got -8000"),
            ({"sample_rate": 8000.0}, "sample_rate must be an integer >= 1, got 8000.0"),
            ({"sample_rate": True}, "sample_rate must be an integer >= 1, got True"),
            (
                {"formant_jitter": -1.0},
                "formant_jitter must be a finite number with 0 <= formant_jitter < 1, got -1.0",
            ),
            ({"formant_jitter": float("nan")}, "formant_jitter must be .*, got nan"),
            ({"formant_jitter": 1.0}, "formant_jitter must be .*, got 1.0"),
            ({"duration_jitter": float("inf")}, "duration_jitter must be .*, got inf"),
            ({"duration_jitter": -0.01}, "duration_jitter must be .*, got -0.01"),
            ({"sample_rate": 8}, "sample_rate 8 Hz is too low: a 0.06 s sound"),
        ],
    )
    def test_invalid_rendering_settings_rejected_before_writing(self, tmp_path, kwargs, message):
        out = tmp_path / "corpus"
        with pytest.raises(ValueError, match=message):
            generate_synthetic_corpus(seed=0, n_utts=1, n_speakers=1, out_dir=out, **kwargs)
        assert not out.exists()

    def test_jitter_just_below_one_accepted(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=0, n_utts=2, n_speakers=1, out_dir=tmp_path, sample_rate=8000,
            formant_jitter=0.999, duration_jitter=0.999,
        )
        assert all(e.duration_s > 0 for e in load_manifest(manifest))

    def test_audio_paths_resolved(self, tmp_path, monkeypatch):
        # A relative output directory reached through a symlink: each
        # manifest path must still be absolute and free of the link, as
        # resolving every WAV path on its own would make it.
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        monkeypatch.chdir(tmp_path)
        out_dir = Path("link") / "corpus"
        resolves = []
        real_resolve = Path.resolve

        def counting_resolve(self, *args, **kwargs):
            resolves.append(self)
            return real_resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting_resolve)
        manifest = generate_synthetic_corpus(
            seed=2, n_utts=6, n_speakers=2, out_dir=out_dir, sample_rate=8000
        )
        monkeypatch.setattr(Path, "resolve", real_resolve)
        assert len(resolves) == 1

        entries = load_manifest(manifest)
        for e in entries:
            assert e.audio_path == str(Path(e.audio_path).resolve())
            assert e.audio_path.startswith(str((tmp_path / "real").resolve()))
        per_path = [
            dataclasses.replace(
                e, audio_path=str((out_dir / "wav" / f"{e.id}.wav").resolve())
            )
            for e in entries
        ]
        write_manifest(tmp_path / "per_path.jsonl", per_path)
        assert manifest.read_bytes() == (tmp_path / "per_path.jsonl").read_bytes()


# Multi-word texts (so spaces) by default; the jitter values are those of
# acceptance criterion 6.
CORPORA = {
    "multi-speaker-8k": dict(seed=5, n_utts=24, n_speakers=3, sample_rate=8000),
    "multi-speaker-22k": dict(
        seed=6, n_utts=12, n_speakers=2, sample_rate=22050, alphabet="abcdefghijklmnopqrstuvwxyz"
    ),
    "jittered": dict(
        seed=7, n_utts=12, n_speakers=2, sample_rate=8000,
        formant_jitter=0.05, duration_jitter=0.15,
    ),
    "speaker-indices": dict(
        seed=8, n_utts=12, n_speakers=2, sample_rate=8000, speaker_indices=[8, 9]
    ),
}


def _corpus_bytes(out_dir):
    return {
        f.relative_to(out_dir).as_posix(): f.read_bytes()
        for f in sorted(out_dir.rglob("*")) if f.is_file()
    }


def _count_phones(monkeypatch):
    """Record (character, f0) of every ``_render_phone`` call."""
    real = synthetic._render_phone
    calls = []

    def counting(char, f0, *args, **kwargs):
        calls.append((char, f0))
        return real(char, f0, *args, **kwargs)

    monkeypatch.setattr(synthetic, "_render_phone", counting)
    return calls


class TestPhoneMemo:
    @pytest.mark.parametrize("kwargs", CORPORA.values(), ids=CORPORA)
    def test_bytes_equal_per_phone_oracle(self, tmp_path, monkeypatch, render_per_phone, kwargs):
        # Both corpora go to the same directory, so the manifests' absolute
        # audio paths compare too.
        out = tmp_path / "corpus"
        with monkeypatch.context() as patch:
            patch.setattr(synthetic, "render_utterance", render_per_phone)
            generate_synthetic_corpus(out_dir=out, **kwargs)
        want = _corpus_bytes(out)
        shutil.rmtree(out)
        manifest = generate_synthetic_corpus(out_dir=out, **kwargs)
        assert _corpus_bytes(out) == want
        assert len(want) == kwargs["n_utts"] + 1
        assert any(" " in e.text for e in load_manifest(manifest))

    def test_unjittered_renders_each_distinct_phone_once(self, tmp_path, monkeypatch):
        calls = _count_phones(monkeypatch)
        manifest = generate_synthetic_corpus(out_dir=tmp_path, **CORPORA["multi-speaker-8k"])
        entries = load_manifest(manifest)
        distinct = {(ch, e.speaker_id) for e in entries for ch in e.text}
        assert len(calls) == len(set(calls)) == len(distinct)
        assert sum(len(e.text) for e in entries) > 2 * len(distinct)

    def test_jittered_renders_every_phone_instance(self, tmp_path, monkeypatch):
        calls = _count_phones(monkeypatch)
        manifest = generate_synthetic_corpus(out_dir=tmp_path, **CORPORA["jittered"])
        texts = [e.text for e in load_manifest(manifest)]
        assert [ch for ch, _ in calls] == list("".join(texts))

    def test_no_phone_survives_a_call(self, tmp_path, monkeypatch):
        calls = _count_phones(monkeypatch)
        kwargs = CORPORA["multi-speaker-8k"]
        generate_synthetic_corpus(out_dir=tmp_path / "a", **kwargs)
        first = list(calls)
        generate_synthetic_corpus(out_dir=tmp_path / "b", **kwargs)
        assert calls == first + first
