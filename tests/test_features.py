"""Spectrogram frontend and frame-feature providers."""

import struct

import numpy as np
import pytest

from pptts.config import AudioConfig
from pptts.data import ManifestEntry
from pptts.audio import write_wav
from pptts.features import (
    BuiltinMelProvider,
    PrecomputedProvider,
    build_provider,
    compute_linear_spectrogram,
    compute_mel,
    hann_window,
    mel_basis_t,
    mel_filterbank,
    mel_of_waveform,
    read_feature_file,
    write_feature_file,
    FrameFeatures,
)
from pptts.pseudo import train_codebook


CFG = AudioConfig(sample_rate=8000, n_fft=256, hop_length=64, win_length=256, n_mels=20)


def sine(freq, seconds, sr):
    t = np.arange(int(seconds * sr)) / sr
    return (0.5 * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestLinearSpectrogram:
    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(CFG.n_fft, 8000))
            wave = rng.normal(size=n).astype(np.float32)
            spec = compute_linear_spectrogram(wave, CFG)
            # Reflect padding adds n_fft//2 per side; frames = (padded - n_fft)//hop + 1.
            want = (n + 2 * (CFG.n_fft // 2) - CFG.n_fft) // CFG.hop_length + 1
            assert spec.shape == (want, CFG.n_fft // 2 + 1)

    def test_zero_waveform(self):
        spec = compute_linear_spectrogram(np.zeros(2000, dtype=np.float32), CFG)
        assert np.all(spec == 0.0)

    def test_sine_peaks_at_its_bin(self):
        # 1000 Hz at sr 8000, n_fft 256 -> bin 32 exactly (bin-center frequency).
        freq = 1000.0
        wave = sine(freq, 0.5, CFG.sample_rate)
        spec = compute_linear_spectrogram(wave, CFG)
        want_bin = round(freq * CFG.n_fft / CFG.sample_rate)
        interior = spec[4:-4]
        assert np.all(np.argmax(interior, axis=1) == want_bin)

    def test_deterministic(self):
        wave = sine(440, 0.3, CFG.sample_rate)
        a = compute_linear_spectrogram(wave, CFG)
        b = compute_linear_spectrogram(wave, CFG)
        assert np.array_equal(a, b)

    def test_matches_naive_stft(self):
        # Frame-by-frame recomputation with explicit padding and windowing.
        rng = np.random.default_rng(1)
        wave = rng.normal(size=1500).astype(np.float32)
        spec = compute_linear_spectrogram(wave, CFG)
        padded = np.pad(wave, CFG.n_fft // 2, mode="reflect")
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(CFG.n_fft) / CFG.n_fft)
        for t in range(spec.shape[0]):
            frame = padded[t * CFG.hop_length : t * CFG.hop_length + CFG.n_fft]
            mag = np.abs(np.fft.rfft(frame * window.astype(np.float32)))
            assert np.allclose(spec[t], mag.astype(np.float32), atol=1e-5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            compute_linear_spectrogram(np.zeros(CFG.n_fft // 2, dtype=np.float32), CFG)

    def test_nonnegative(self):
        wave = sine(700, 0.2, CFG.sample_rate)
        assert np.all(compute_linear_spectrogram(wave, CFG) >= 0)


class TestWindow:
    def test_hann_periodic(self):
        w = hann_window(CFG)
        n = CFG.win_length
        want = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
        assert np.allclose(w, want, atol=1e-7)
        assert w[0] == 0.0


class TestCachedArrays:
    """The window and the transposed filterbank are built once per (config,
    dtype) and shared, so they must be read-only and equal to a fresh
    build."""

    # win_length < n_fft exercises the centered zero padding.
    CONFIGS = [CFG, AudioConfig(sample_rate=8000, n_fft=256, hop_length=64, win_length=128, n_mels=20)]

    @staticmethod
    def _fresh_window(cfg, dtype):
        n = cfg.win_length
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        full = np.zeros(cfg.n_fft)
        left = (cfg.n_fft - n) // 2
        full[left : left + n] = win
        return full.astype(dtype)

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_and_equal_to_fresh(self, cfg, dtype):
        for got, want in (
            (hann_window(cfg, dtype=dtype), self._fresh_window(cfg, dtype)),
            (mel_basis_t(cfg, dtype=dtype), np.ascontiguousarray(mel_filterbank(cfg).T.astype(dtype))),
        ):
            assert not got.flags.writeable
            assert got.flags.c_contiguous
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0

    def test_built_once_per_config_and_dtype(self):
        cfg = self.CONFIGS[1]
        assert hann_window(cfg, dtype=np.float64) is hann_window(cfg, dtype=np.float64)
        assert mel_basis_t(cfg, dtype=np.float64) is mel_basis_t(cfg, dtype=np.float64)


class TestMel:
    def test_zero_spec_hits_floor(self):
        spec = compute_linear_spectrogram(np.zeros(2000, dtype=np.float32), CFG)
        mel = compute_mel(spec, CFG)
        assert np.allclose(mel, np.log(CFG.mel_floor))

    def test_doubling_adds_log2(self):
        wave = sine(900, 0.3, CFG.sample_rate)
        spec = compute_linear_spectrogram(wave, CFG)
        mel1 = compute_mel(spec, CFG)
        mel2 = compute_mel(spec * 2.0, CFG)
        # Wherever neither hit the floor, the shift is exactly log 2.
        live = (mel1 > np.log(CFG.mel_floor) + 1e-6) & (
            mel2 > np.log(CFG.mel_floor) + 1e-6
        )
        assert live.any()
        diff = mel2[live] - mel1[live]
        assert np.allclose(diff, np.log(2.0), atol=1e-5)

    def test_filter_rows_positive(self):
        fb = mel_filterbank(CFG)
        assert fb.shape == (CFG.n_mels, CFG.n_fft // 2 + 1)
        assert np.all(fb.sum(axis=1) > 0)
        assert np.all(fb >= 0)

    def test_finite(self):
        wave = sine(600, 0.2, CFG.sample_rate)
        mel = mel_of_waveform(wave, CFG)
        assert np.all(np.isfinite(mel))

    def test_too_many_mels_rejected(self):
        bad = AudioConfig(sample_rate=8000, n_fft=32, hop_length=16, win_length=32, n_mels=30)
        wave = np.zeros(500, dtype=np.float32)
        with pytest.raises(ValueError):
            mel_of_waveform(wave, bad)


class TestArrayEntryPoints:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plain_ndarray_of_input_dtype(self, dtype, grad_enabled):
        wave = sine(440, 0.3, CFG.sample_rate).astype(dtype)
        assert grad_enabled()
        spec = compute_linear_spectrogram(wave, CFG)
        outputs = [spec, compute_mel(spec, CFG), mel_of_waveform(wave, CFG)]
        for out in outputs:
            assert type(out) is np.ndarray
            assert out.dtype == dtype
        assert np.array_equal(outputs[1], outputs[2])


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(7, 16)).astype(np.float32)
        path = tmp_path / "x.ftfx"
        write_feature_file(path, values, frame_rate_hz=50.0)
        feats = read_feature_file(path)
        assert feats.values.shape == (7, 16)
        assert np.array_equal(feats.values, values)
        assert feats.frame_rate_hz == 50.0

    def test_header_layout(self, tmp_path):
        values = np.zeros((3, 4), dtype=np.float32)
        path = tmp_path / "x.ftfx"
        write_feature_file(path, values, frame_rate_hz=25.0)
        raw = path.read_bytes()
        assert raw[:4] == b"FTFX"
        t, d, rate = struct.unpack("<IIf", raw[4:16])
        assert (t, d, rate) == (3, 4, 25.0)
        assert len(raw) == 16 + 3 * 4 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ftfx"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_feature_file(path)

    def test_truncated(self, tmp_path):
        values = np.zeros((3, 4), dtype=np.float32)
        path = tmp_path / "x.ftfx"
        write_feature_file(path, values, frame_rate_hz=25.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # A header whose T was lowered would otherwise load a prefix.
        path = tmp_path / "x.ftfx"
        write_feature_file(path, np.ones((5, 3), dtype=np.float32), frame_rate_hz=25.0)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="trailing bytes") as info:
            read_feature_file(path)
        assert str(path) in str(info.value)


def _corpus(tmp_path, waves, sr=8000):
    entries = []
    for i, wave in enumerate(waves):
        p = tmp_path / f"u{i}.wav"
        write_wav(p, wave, sr)
        entries.append(ManifestEntry(f"u{i}", str(p), "spk0", len(wave) / sr))
    return entries


class TestBuiltinProvider:
    def test_normalization(self, tmp_path):
        rng = np.random.default_rng(3)
        waves = [rng.normal(scale=0.1, size=4000).astype(np.float32) for _ in range(3)]
        entries = _corpus(tmp_path, waves)
        provider = BuiltinMelProvider(CFG, normalize=True)
        provider.fit(entries)
        stacked = np.vstack([provider.features_for(e).values for e in entries])
        assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-2)

    def test_no_normalization(self, tmp_path):
        from pptts.audio import read_wav

        wave = sine(500, 0.4, 8000)
        entries = _corpus(tmp_path, [wave])
        provider = BuiltinMelProvider(CFG, normalize=False)
        provider.fit(entries)
        feats = provider.features_for(entries[0])
        wave_q, _ = read_wav(entries[0].audio_path)  # 16-bit quantized copy
        assert np.array_equal(feats.values, mel_of_waveform(wave_q, CFG))

    def test_frame_rate(self, tmp_path):
        entries = _corpus(tmp_path, [sine(500, 0.4, 8000)])
        provider = BuiltinMelProvider(CFG, normalize=False)
        provider.fit(entries)
        assert provider.features_for(entries[0]).frame_rate_hz == 8000 / 64

    def test_features_for_wave_matches_file_path(self, tmp_path):
        wave = sine(650, 0.4, 8000)
        entries = _corpus(tmp_path, [wave])
        provider = BuiltinMelProvider(CFG, normalize=True)
        provider.fit(entries)
        via_entry = provider.features_for(entries[0]).values
        # WAV writing quantizes to 16-bit; read back the same quantized wave.
        from pptts.audio import read_wav

        wave_q, _ = read_wav(entries[0].audio_path)
        via_wave = provider.features_for_wave(wave_q).values
        assert np.array_equal(via_entry, via_wave)

    def test_sample_rate_mismatch(self, tmp_path):
        entries = _corpus(tmp_path, [sine(500, 0.4, 4000)], sr=4000)
        provider = BuiltinMelProvider(CFG, normalize=False)
        with pytest.raises(ValueError, match="sample rate"):
            provider.fit(entries)


class TestPrecomputedProvider:
    def test_loads_by_id(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(9, 12)).astype(np.float32)
        write_feature_file(tmp_path / "utt3.ftfx", values, frame_rate_hz=50.0)
        provider = PrecomputedProvider(tmp_path)
        entry = ManifestEntry("utt3", "unused.wav", "s", 1.0)
        feats = provider.features_for(entry)
        assert np.array_equal(feats.values, values)
        assert feats.provider_id == "precomputed"

    def test_missing_file(self, tmp_path):
        provider = PrecomputedProvider(tmp_path)
        with pytest.raises(FileNotFoundError):
            provider.features_for(ManifestEntry("nope", "x.wav", "s", 1.0))

    def test_dim_mismatch_across_corpus(self, tmp_path):
        write_feature_file(tmp_path / "a.ftfx", np.zeros((3, 8), np.float32), 50.0)
        write_feature_file(tmp_path / "b.ftfx", np.zeros((3, 9), np.float32), 50.0)
        provider = PrecomputedProvider(tmp_path)
        entries = [ManifestEntry(i, "x.wav", "s", 1.0) for i in ("a", "b")]
        with pytest.raises(ValueError, match="inconsistent feature dims: 9 vs 8"):
            train_codebook((provider.features_for(e) for e in entries), k=1, seed=0)


class TestBuildProvider:
    def test_builtin(self, tmp_path):
        entries = _corpus(tmp_path, [sine(500, 0.4, 8000)])
        provider = build_provider("builtin-mel", CFG, entries=entries)
        feats = provider.features_for(entries[0])
        assert isinstance(feats, FrameFeatures)
        assert feats.provider_id.startswith("builtin-mel")

    def test_unknown(self):
        with pytest.raises(ValueError, match="provider"):
            build_provider("wav2vec", CFG)
