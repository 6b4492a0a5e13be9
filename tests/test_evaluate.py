"""Evaluation metrics and manifest-level reports."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptts import evaluate as evaluate_module
from pptts import features as features_module
from pptts._kernels import levenshtein
from pptts.audio import read_wav, write_wav
from pptts.config import AudioConfig, ModelConfig
from pptts.data import load_manifest
from pptts.evaluate import (
    EvalError,
    cosine_similarity,
    evaluate_manifest,
    mel_distance,
    speaker_similarity,
    token_roundtrip_accuracy,
)
from pptts.features import build_provider, mel_of_waveform
from pptts.model import SynthesisModel
from pptts.pseudo import merge_runs, quantize, train_codebook
from pptts.synthetic import generate_synthetic_corpus
from pptts.train import (
    init_finetune_from_pretrained,
    load_checkpoint,
    save_checkpoint,
)


AUDIO = AudioConfig(
    sample_rate=8000, n_fft=128, hop_length=64, win_length=128, n_mels=10
)


def micro_model(mode="finetune", multi=False, seed=0):
    cfg = ModelConfig(
        latent_channels=8,
        hidden_channels=16,
        flow_blocks=2,
        flow_hidden=12,
        duration_hidden=8,
        decoder_channels=12,
        text_vocab_size=28,
        pseudo_vocab_size=11,
        speaker_embed_dim=6,
        multi_speaker=multi,
    )
    return SynthesisModel(cfg, AUDIO, mode, seed=seed)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_corpus")
    manifest = generate_synthetic_corpus(
        seed=1, n_utts=4, n_speakers=1, out_dir=out, sample_rate=8000,
        alphabet="abcd",
    )
    return load_manifest(manifest)


@pytest.fixture(scope="module")
def multi_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("multi_eval")
    manifest = generate_synthetic_corpus(
        seed=2, n_utts=3, n_speakers=2, out_dir=out, sample_rate=8000,
        alphabet="abcd",
    )
    return load_manifest(manifest)


@pytest.fixture(scope="module")
def provider(corpus):
    return build_provider("builtin-mel", AUDIO, entries=corpus, normalize=True)


@pytest.fixture(scope="module")
def codebook(corpus, provider):
    return train_codebook((provider.features_for(e) for e in corpus), k=6, seed=0)


# A feature config other than the models': token features cannot reuse the
# log-mels that the other two metrics read.
OTHER_AUDIO = AudioConfig(
    sample_rate=8000, n_fft=128, hop_length=32, win_length=96, n_mels=12
)


@pytest.fixture(scope="module")
def other_provider(corpus):
    return build_provider("builtin-mel", OTHER_AUDIO, entries=corpus, normalize=True)


@pytest.fixture(scope="module")
def other_codebook(corpus, other_provider):
    return train_codebook((other_provider.features_for(e) for e in corpus), k=6, seed=0)


def _wave(seed=0, n=2000):
    return np.random.default_rng(seed).uniform(-0.4, 0.4, n).astype(np.float32)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = _wave(2, 50)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        v = _wave(3, 50)
        assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(0.0, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(EvalError):
            cosine_similarity(np.zeros(4), np.ones(4))

    def test_shape_mismatch(self):
        with pytest.raises(EvalError):
            cosine_similarity(np.ones(3), np.ones(4))


def _mel(seed=0, n=2000):
    return mel_of_waveform(_wave(seed, n), AUDIO)


class TestMelDistance:
    def test_zero_on_identical(self):
        m = _mel(4)
        assert mel_distance(m, m) == 0.0

    def test_positive_on_different(self):
        assert mel_distance(_mel(5), _mel(6)) > 0.0

    def test_length_mismatch_uses_overlap(self):
        a, b = _mel(7, 3000), _mel(7, 2000)
        frames = min(a.shape[0], b.shape[0])
        want = float(np.abs(a[:frames].astype(np.float64) - b[:frames].astype(np.float64)).mean())
        assert a.shape[0] > b.shape[0]
        assert mel_distance(a, b) == want

    def test_symmetric(self):
        a, b = _mel(8), _mel(9)
        assert mel_distance(a, b) == mel_distance(b, a)

    def test_no_frames_rejected(self):
        with pytest.raises(EvalError, match="no overlapping"):
            mel_distance(_mel(8)[:0], _mel(9))


class TestSpeakerSimilarity:
    def test_requires_multi_speaker(self):
        model = micro_model(multi=False)
        with pytest.raises(EvalError):
            speaker_similarity(np.ones((6, 1)), _mel(11), model)

    def test_identical_waves_score_one(self):
        model = micro_model(multi=True)
        m = _mel(12)
        emb = model.reference_encode(m).data
        assert speaker_similarity(emb, m, model) == pytest.approx(1.0, abs=1e-6)

    def test_range(self):
        model = micro_model(multi=True)
        s = speaker_similarity(model.reference_encode(_mel(13)).data, _mel(14), model)
        assert -1.0 <= s <= 1.0


class TestTokenRoundtrip:
    def test_reference_wave_round_trips_exactly(self, corpus, codebook, provider):
        wave, _ = read_wav(corpus[0].audio_path)
        feats = provider.features_for_wave(wave)
        expected, _ = merge_runs(quantize(feats, codebook))
        assert token_roundtrip_accuracy(feats, expected, codebook) == 1.0

    def test_wrong_tokens_score_below_one(self, corpus, codebook, provider):
        wave, _ = read_wav(corpus[0].audio_path)
        feats = provider.features_for_wave(wave)
        expected, _ = merge_runs(quantize(feats, codebook))
        wrong = (expected + 1) % codebook.k
        wrong = merge_runs_dedup(wrong)
        assert token_roundtrip_accuracy(feats, wrong, codebook) < 1.0

    def test_empty_expected_rejected(self, codebook, provider):
        with pytest.raises(EvalError):
            token_roundtrip_accuracy(
                provider.features_for_wave(_wave(15)), np.array([], dtype=np.int64), codebook
            )

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(0, 5), min_size=0, max_size=12),
        b=st.lists(st.integers(0, 5), min_size=0, max_size=12),
        c=st.lists(st.integers(0, 5), min_size=0, max_size=12),
    )
    def test_levenshtein_triangle_inequality(self, a, b, c):
        a, b, c = (np.asarray(x, dtype=np.int64) for x in (a, b, c))
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(0, 5), min_size=0, max_size=12),
        b=st.lists(st.integers(0, 5), min_size=0, max_size=12),
    )
    def test_levenshtein_symmetry_and_identity(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, a) == 0


def merge_runs_dedup(tokens):
    out = [int(tokens[0])]
    for t in tokens[1:]:
        if int(t) != out[-1]:
            out.append(int(t))
    return np.asarray(out, dtype=np.int64)


class TestEvaluateManifest:
    def _finetune_model(self, multi=False):
        pre = micro_model("pretrain", multi=multi, seed=20)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "m.ckpt"
            save_checkpoint(pre, p, stage="pretrain")
            return init_finetune_from_pretrained(load_checkpoint(p), seed=21)

    def test_rejects_pretrain_model(self, corpus):
        with pytest.raises(EvalError):
            evaluate_manifest(micro_model("pretrain"), corpus)

    def test_basic_report(self, corpus, codebook, provider):
        model = self._finetune_model()
        report = evaluate_manifest(
            model, corpus, codebook=codebook, provider=provider, seed=0
        )
        assert not report.errors
        assert len(report.records) == len(corpus)
        for rec in report.records:
            assert rec["mel_l1"] >= 0.0
            assert 0.0 <= rec["token_acc"] <= 1.0
            assert rec["gen_seconds"] > 0.0
        agg = report.aggregate
        assert agg["count"] == len(corpus)
        assert agg["error_count"] == 0
        assert agg["mel_l1"] == pytest.approx(
            np.mean([r["mel_l1"] for r in report.records])
        )
        assert "token_acc" in agg
        assert "speaker_cos" not in agg  # single-speaker model

    def test_precomputed_provider_refused_before_synthesis(
        self, corpus, codebook, tmp_path, monkeypatch
    ):
        model = self._finetune_model()

        def synthesize(*args, **kwargs):
            raise AssertionError("synthesized before refusing the provider")

        monkeypatch.setattr(model, "synthesize", synthesize)
        provider = build_provider("precomputed", AUDIO, feature_dir=tmp_path)
        with pytest.raises(EvalError, match="no precomputed features"):
            evaluate_manifest(model, corpus, codebook=codebook, provider=provider)

    def test_multi_speaker_adds_cosine(self, multi_corpus):
        model = self._finetune_model(multi=True)
        report = evaluate_manifest(model, multi_corpus, seed=0)
        assert not report.errors
        for rec in report.records:
            assert -1.0 <= rec["speaker_cos"] <= 1.0
        assert "speaker_cos" in report.aggregate

    def test_unreadable_audio_becomes_error_record(self, corpus):
        broken = [
            dataclasses.replace(corpus[0], audio_path="/nonexistent/missing.wav")
        ] + list(corpus[1:])
        model = self._finetune_model()
        report = evaluate_manifest(model, broken)
        assert len(report.errors) == 1
        assert report.errors[0]["id"] == corpus[0].id
        assert len(report.records) == len(corpus) - 1
        assert report.aggregate["error_count"] == 1

    def test_unlabeled_entry_becomes_error_record(self, corpus):
        unlabeled = [dataclasses.replace(corpus[0], text=None)] + list(corpus[1:])
        model = self._finetune_model()
        report = evaluate_manifest(model, unlabeled)
        assert len(report.errors) == 1
        assert "no text" in report.errors[0]["error"]

    def test_deterministic_given_seed(self, corpus):
        model = self._finetune_model()
        r1 = evaluate_manifest(model, corpus, seed=3)
        r2 = evaluate_manifest(model, corpus, seed=3)
        assert r1.to_dict() == r2.to_dict()

    def test_to_dict_shape(self, corpus):
        model = self._finetune_model()
        d = evaluate_manifest(model, corpus[:1]).to_dict()
        assert set(d) == {"records", "errors", "aggregate"}

    def test_codebook_without_provider_refused_before_synthesis(
        self, corpus, codebook, monkeypatch
    ):
        model = self._finetune_model()

        def synthesize(*args, **kwargs):
            raise AssertionError("synthesized before refusing the codebook")

        monkeypatch.setattr(model, "synthesize", synthesize)
        with pytest.raises(EvalError, match="feature provider"):
            evaluate_manifest(model, corpus, codebook=codebook)

    def _assert_report_matches_oracle(self, report_by_waves, model, entries, **kwargs):
        got = evaluate_manifest(model, entries, seed=5, **kwargs).to_dict()
        want = report_by_waves(model, entries, seed=5, **kwargs)
        assert got == want
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        return got

    def test_single_speaker_report_equals_wave_oracle(
        self, report_by_waves, corpus, codebook, provider
    ):
        got = self._assert_report_matches_oracle(
            report_by_waves, self._finetune_model(), corpus,
            codebook=codebook, provider=provider,
        )
        assert not got["errors"] and "token_acc" in got["aggregate"]

    def test_multi_speaker_report_equals_wave_oracle(
        self, report_by_waves, multi_corpus, codebook, provider
    ):
        got = self._assert_report_matches_oracle(
            report_by_waves, self._finetune_model(multi=True), multi_corpus,
            codebook=codebook, provider=provider,
        )
        assert not got["errors"]
        assert {"speaker_cos", "token_acc"} <= set(got["aggregate"])

    @pytest.mark.parametrize("multi", [False, True])
    def test_other_provider_config_report_equals_wave_oracle(
        self, report_by_waves, multi, corpus, multi_corpus, other_codebook, other_provider
    ):
        assert other_provider.audio != AUDIO
        got = self._assert_report_matches_oracle(
            report_by_waves, self._finetune_model(multi=multi),
            multi_corpus if multi else corpus,
            codebook=other_codebook, provider=other_provider,
        )
        assert not got["errors"] and "token_acc" in got["aggregate"]

    @pytest.mark.parametrize("multi", [False, True])
    def test_error_records_equal_wave_oracle(
        self, report_by_waves, multi, corpus, codebook, provider, tmp_path
    ):
        # Shorter than n_fft // 2 = 64 samples: no centered STFT frame.
        short = tmp_path / "short.wav"
        write_wav(short, _wave(16, 40), AUDIO.sample_rate)
        entries = [
            dataclasses.replace(corpus[0], audio_path="/nonexistent/missing.wav"),
            dataclasses.replace(corpus[1], id="short", audio_path=str(short)),
            dataclasses.replace(corpus[2], text=None),
            corpus[3],
        ]
        got = self._assert_report_matches_oracle(
            report_by_waves, self._finetune_model(multi=multi), entries,
            codebook=codebook, provider=provider,
        )
        assert [e["id"] for e in got["errors"]] == [e.id for e in entries[:3]]
        assert got["errors"][1]["error"] == (
            "waveform too short for centered STFT: 40 <= 64"
        )
        assert got["aggregate"]["count"] == 1

    @pytest.mark.parametrize("multi", [False, True])
    def test_one_log_mel_per_wave(
        self, multi, corpus, multi_corpus, codebook, provider,
        other_codebook, other_provider, monkeypatch,
    ):
        real = features_module.mel_of_waveform
        calls = []

        def counting(wave, cfg):
            calls.append(cfg)
            return real(wave, cfg)

        monkeypatch.setattr(evaluate_module, "mel_of_waveform", counting)
        monkeypatch.setattr(features_module, "mel_of_waveform", counting)
        model = self._finetune_model(multi=multi)
        entries = multi_corpus if multi else corpus

        report = evaluate_manifest(model, entries, codebook=codebook, provider=provider)
        assert not report.errors and "token_acc" in report.aggregate
        assert calls == [AUDIO] * (2 * len(entries))

        # At another provider config the token features need one more
        # log-mel of each wave, at that config.
        calls.clear()
        report = evaluate_manifest(
            model, entries, codebook=other_codebook, provider=other_provider
        )
        assert not report.errors
        assert calls == [AUDIO, AUDIO, OTHER_AUDIO, OTHER_AUDIO] * len(entries)

    @pytest.mark.parametrize("multi", [False, True])
    def test_reference_encoder_once_per_wave(
        self, report_by_waves, multi, corpus, multi_corpus, codebook, provider, monkeypatch
    ):
        # The recording's embedding conditions synthesis and is reused for
        # speaker similarity; only the generated wave is encoded again.
        model = self._finetune_model(multi=multi)
        entries = multi_corpus if multi else corpus
        want = report_by_waves(model, entries, codebook=codebook, provider=provider, seed=5)
        real = model.reference_encode
        calls = []

        def counting(mel):
            calls.append(mel.shape)
            return real(mel)

        monkeypatch.setattr(model, "reference_encode", counting)
        got = evaluate_manifest(model, entries, codebook=codebook, provider=provider, seed=5)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)
        assert len(calls) == (2 * len(entries) if multi else 0)
