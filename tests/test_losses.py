"""Training objectives: KLD against the flow-mapped prior, durations, mel L1."""

import numpy as np
import pytest

from pptts.config import AudioConfig
from pptts.features import linear_spectrogram, log_mel, mel_of_waveform
from pptts.losses import (
    LossError,
    duration_loss,
    kld_prior_loss,
    reconstruction_loss,
)
from pptts.model import Stats
from pptts.tensor import Tensor


AUDIO = AudioConfig(sample_rate=8000, n_fft=64, hop_length=16, win_length=64, n_mels=8)


def stats_of(mean, std):
    return Stats(Tensor(np.asarray(mean, dtype=np.float64)),
                 Tensor(np.asarray(std, dtype=np.float64)))


class TestGaussianLogDensity:
    """The log-density of the KL oracle chain."""

    def test_matches_direct_formula(self, log_density_chain):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6))
        mean = rng.normal(size=(4, 6))
        std = rng.uniform(0.2, 3.0, size=(4, 6))
        got = log_density_chain(Tensor(x), stats_of(mean, std)).data
        want = (
            -0.5 * ((x - mean) / std) ** 2
            - 0.5 * np.log(2 * np.pi)
            - np.log(std)
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_standard_normal_at_zero(self, log_density_chain):
        got = log_density_chain(
            Tensor(np.zeros((1, 1))), stats_of([[0.0]], [[1.0]])
        )
        assert got.data[0, 0] == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-15)

    def test_shape_mismatch(self, log_density_chain):
        with pytest.raises(LossError):
            log_density_chain(
                Tensor(np.zeros((2, 3))), stats_of(np.zeros((2, 4)), np.ones((2, 4)))
            )

    def test_gradient_flows(self, log_density_chain):
        x = Tensor(np.array([[1.5]]), requires_grad=True)
        out = log_density_chain(x, stats_of([[0.0]], [[1.0]])).sum()
        out.backward()
        # d/dx [-x^2/2] = -x
        assert x.grad[0, 0] == pytest.approx(-1.5, rel=1e-12)


class TestKldSpotChecks:
    def test_identical_stats_identity_flow_is_zero(self):
        # Posterior == prior, eps=0 (z == mean), identity flow: exactly 0.
        rng = np.random.default_rng(1)
        mean = rng.normal(size=(3, 5))
        std = rng.uniform(0.5, 2.0, size=(3, 5))
        post = stats_of(mean, std)
        prior = stats_of(mean.copy(), std.copy())
        z = Tensor(mean.copy())
        loss = kld_prior_loss(post, z, z, prior, Tensor(np.asarray(0.0)))
        assert float(loss.item()) == 0.0

    def test_unit_shift_is_half_per_element(self):
        # q = N(1,1), p = N(0,1), z = z_p = 1:
        # log q - log p = -0 - (-0.5) = 0.5 per element, logdet 0.
        shape = (2, 4)
        post = stats_of(np.ones(shape), np.ones(shape))
        prior = stats_of(np.zeros(shape), np.ones(shape))
        z = Tensor(np.ones(shape))
        loss = kld_prior_loss(post, z, z, prior, Tensor(np.asarray(0.0)))
        assert float(loss.item()) == pytest.approx(0.5, abs=1e-14)

    def test_logdet_subtracted_per_element(self):
        shape = (2, 2)
        post = stats_of(np.ones(shape), np.ones(shape))
        prior = stats_of(np.zeros(shape), np.ones(shape))
        z = Tensor(np.ones(shape))
        base = kld_prior_loss(post, z, z, prior, Tensor(np.asarray(0.0)))
        shifted = kld_prior_loss(post, z, z, prior, Tensor(np.asarray(2.0)))
        # 4 elements: subtracting logdet=2 lowers the mean by 0.5.
        assert base.item() - shifted.item() == pytest.approx(0.5, abs=1e-14)

    def test_monte_carlo_kld_nonnegative(self):
        # Averaged over eps draws, the single-sample estimator approximates
        # a true KLD, which is >= 0; allow small MC slack.
        rng = np.random.default_rng(2)
        shape = (2, 3)
        mean_q = rng.normal(size=shape)
        std_q = rng.uniform(0.5, 1.5, size=shape)
        mean_p = rng.normal(size=shape)
        std_p = rng.uniform(0.5, 1.5, size=shape)
        post = stats_of(mean_q, std_q)
        prior = stats_of(mean_p, std_p)
        total = 0.0
        n = 4000
        for _ in range(n):
            eps = rng.normal(size=shape)
            z = Tensor(mean_q + std_q * eps)
            total += kld_prior_loss(
                post, z, z, prior, Tensor(np.asarray(0.0))
            ).item()
        assert total / n >= -0.05

    def test_shape_mismatch(self):
        post = stats_of(np.zeros((2, 3)), np.ones((2, 3)))
        prior = stats_of(np.zeros((2, 4)), np.ones((2, 4)))
        with pytest.raises(LossError):
            kld_prior_loss(
                post,
                Tensor(np.zeros((2, 3))),
                Tensor(np.zeros((2, 4))),
                prior,
                Tensor(np.asarray(0.0)),
            )

    def test_gradient_reaches_posterior_stats(self):
        mean = Tensor(np.full((1, 2), 0.7), requires_grad=True)
        std = Tensor(np.full((1, 2), 1.3), requires_grad=True)
        post = Stats(mean, std)
        prior = stats_of(np.zeros((1, 2)), np.ones((1, 2)))
        z = mean + std * Tensor(np.full((1, 2), 0.1))
        loss = kld_prior_loss(post, z, z, prior, Tensor(np.asarray(0.0)))
        loss.backward()
        assert mean.grad is not None and np.any(mean.grad != 0)
        assert std.grad is not None and np.any(std.grad != 0)


class TestDurationLoss:
    def test_matches_mse_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(5,))
        target = rng.integers(1, 9, size=(5,))
        got = duration_loss(Tensor(pred), target).item()
        want = np.mean((pred - np.log(target.astype(np.float64))) ** 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_exact_log_targets_give_zero(self):
        target = np.array([1, 2, 3, 4])
        pred = Tensor(np.log(target.astype(np.float64)))
        assert duration_loss(pred, target).item() == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(LossError):
            duration_loss(Tensor(np.zeros(3)), np.array([1, 0, 2]))

    def test_shape_mismatch(self):
        with pytest.raises(LossError):
            duration_loss(Tensor(np.zeros(3)), np.array([1, 2]))

    def test_gradient(self):
        pred = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        loss = duration_loss(pred, np.array([1, 1]))
        loss.backward()
        np.testing.assert_allclose(pred.grad, np.zeros(2), atol=1e-15)
        pred2 = Tensor(np.array([1.0]), requires_grad=True)
        duration_loss(pred2, np.array([1])).backward()
        # d/dp mean((p-0)^2) = 2p
        assert pred2.grad[0] == pytest.approx(2.0, rel=1e-12)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.strides, a.tobytes()


def _kld_run(kld, dtype, trained_posterior, seed=0):
    """Loss and leaf gradients of ``kld`` on statistics made as in training:
    the posterior's std is an ``exp`` node that also scales the sample
    ``z``, ``z_p`` and the logdet are computed nodes."""
    rng = np.random.default_rng(seed)
    shape = (4, 9)

    def leaf(*size, grad=True, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=size).astype(dtype), requires_grad=grad)

    mean, log_std = leaf(*shape, grad=trained_posterior), leaf(*shape, grad=trained_posterior, scale=0.5)
    std = log_std.exp()
    z = mean + std * Tensor(rng.normal(size=shape).astype(dtype))
    base = leaf(*shape)
    z_p = base * Tensor(np.asarray(1.25, dtype))
    prior_mean, prior_log_std = leaf(*shape), leaf(*shape, scale=0.5)
    logdet_leaf = leaf()
    logdet = logdet_leaf.sum()
    loss = kld(Stats(mean, std), z, z_p, Stats(prior_mean, prior_log_std.exp()), logdet)
    (loss * Tensor(np.asarray(0.75, dtype))).backward()
    leaves = (mean, log_std, base, prior_mean, prior_log_std, logdet_leaf)
    return loss, [loss.data] + [t.grad for t in leaves]


class TestFusedLosses:
    """``kld_prior_loss`` and ``duration_loss`` give the bytes of the chains
    of single ops they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trained_posterior", [True, False])
    def test_kld_bytes_match_op_chain(self, dtype, trained_posterior, kld_chain):
        _, want = _kld_run(kld_chain, dtype, trained_posterior)
        loss, got = _kld_run(kld_prior_loss, dtype, trained_posterior)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert _bits(g) == _bits(w)
        assert (got[1] is None) != trained_posterior
        assert loss._op == "kld_prior"
        if trained_posterior:
            assert loss._parents[0]._op == "sub"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duration_bytes_match_op_chain(self, dtype, duration_chain):
        rng = np.random.default_rng(1)
        pred_data = rng.normal(size=7).astype(dtype)
        targets = rng.integers(1, 9, size=7)
        runs = []
        for loss_fn in (duration_chain, duration_loss):
            leaf = Tensor(pred_data, requires_grad=True)
            loss = loss_fn(leaf * Tensor(np.asarray(0.5, dtype)), targets)
            (loss * Tensor(np.asarray(1.5, dtype))).backward()
            runs.append((loss, [loss.data, leaf.grad]))
        (_, want), (loss, got) = runs
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w)
        assert loss._op == "duration_mse"

    def test_std_shape_mismatch(self):
        post = Stats(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 1))))
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(LossError, match="stats shapes"):
            kld_prior_loss(post, z, z, stats_of(np.zeros((2, 3)), np.ones((2, 3))),
                           Tensor(np.asarray(0.0)))


class TestMelPathConsistency:
    """The loss's recorded log-mel and the ndarray entry points agree."""

    def _wave(self, n=400, seed=4, dtype=np.float32):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-0.5, 0.5, size=n)).astype(dtype)

    def _graph_mel(self, wave):
        """Log-mel of a wave that requires grad: the loss's recorded chain."""
        mel = log_mel(linear_spectrogram(Tensor(wave, requires_grad=True), AUDIO), AUDIO)
        assert mel.requires_grad
        return mel.data

    def test_bitwise_match_float32(self):
        wave = self._wave()
        graph_mel = self._graph_mel(wave)
        array_mel = mel_of_waveform(wave, AUDIO)
        assert graph_mel.dtype == array_mel.dtype == np.float32
        np.testing.assert_array_equal(graph_mel, array_mel)

    def test_bitwise_match_float64(self):
        wave = self._wave(dtype=np.float64)
        graph_mel = self._graph_mel(wave)
        array_mel = mel_of_waveform(wave, AUDIO)
        assert array_mel.dtype == np.float64
        np.testing.assert_array_equal(graph_mel, array_mel)

    def test_reconstruction_zero_on_identical_audio(self):
        wave = self._wave(seed=5)
        target = mel_of_waveform(wave, AUDIO)
        loss = reconstruction_loss(Tensor(wave), target, AUDIO)
        assert float(loss.item()) == 0.0

    def test_reconstruction_positive_on_different_audio(self):
        a = self._wave(seed=6)
        b = self._wave(seed=7)
        loss = reconstruction_loss(Tensor(a), mel_of_waveform(b, AUDIO), AUDIO)
        assert loss.item() > 0.0

    def test_overlap_truncation(self):
        # Longer generated wave: only the target's frames are compared.
        short = self._wave(n=200, seed=8)
        long = np.concatenate([short, self._wave(n=300, seed=9)])
        target = mel_of_waveform(short, AUDIO)
        gen_mel = mel_of_waveform(long, AUDIO)
        loss = reconstruction_loss(Tensor(long), target, AUDIO)
        want = np.mean(np.abs(gen_mel[: target.shape[0]] - target))
        assert loss.item() == pytest.approx(want, rel=1e-6)

    def test_empty_overlap_rejected(self):
        wave = self._wave()
        with pytest.raises(LossError):
            reconstruction_loss(
                Tensor(wave), np.zeros((0, AUDIO.n_mels), dtype=np.float32), AUDIO
            )

    def test_gradient_flows_to_wave(self):
        wave = Tensor(self._wave(seed=10, dtype=np.float64), requires_grad=True)
        target = mel_of_waveform(self._wave(seed=11, dtype=np.float64), AUDIO)
        reconstruction_loss(wave, target, AUDIO).backward()
        assert wave.grad is not None
        assert np.any(wave.grad != 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(-0.5, 0.5, size=96).astype(np.float64)
        target = mel_of_waveform(
            rng.uniform(-0.5, 0.5, size=96).astype(np.float64), AUDIO
        )
        wave = Tensor(base.copy(), requires_grad=True)
        loss = reconstruction_loss(wave, target, AUDIO)
        loss.backward()
        h = 1e-6
        for i in (0, 17, 50, 95):
            up = base.copy()
            up[i] += h
            down = base.copy()
            down[i] -= h
            fd = (
                reconstruction_loss(Tensor(up), target, AUDIO).item()
                - reconstruction_loss(Tensor(down), target, AUDIO).item()
            ) / (2 * h)
            assert wave.grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
