"""Model components: posterior, flow, token encoders, decoder, synthesis."""

import numpy as np
import pytest

from pptts.config import AudioConfig, ModelConfig
from pptts.data import text_to_phonemes
from pptts.model import (
    CouplingBlock,
    ModelError,
    SynthesisModel,
    upsample_factors,
)
from pptts.tensor import Tensor


AUDIO = AudioConfig(sample_rate=8000, n_fft=64, hop_length=16, win_length=64, n_mels=8)


def micro_config(**kw):
    base = dict(
        latent_channels=8,
        hidden_channels=16,
        flow_blocks=2,
        flow_hidden=12,
        duration_hidden=8,
        decoder_channels=12,
        text_vocab_size=28,
        pseudo_vocab_size=11,
        speaker_embed_dim=6,
        multi_speaker=False,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def make_model(mode="pretrain", seed=0, **kw):
    return SynthesisModel(micro_config(**kw), AUDIO, mode, seed=seed)


def randomize(module, rng, scale=0.1):
    for _, p in module.named_parameters():
        p.data = rng.normal(scale=scale, size=p.data.shape).astype(p.data.dtype)


def random_spec(rng, frames=12):
    return rng.uniform(0.0, 2.0, size=(frames, AUDIO.spec_bins)).astype(np.float64)


class TestPosterior:
    def test_shapes_and_eps_zero(self):
        model = make_model()
        spec = random_spec(np.random.default_rng(0))
        z, stats = model.posterior_encode(spec, eps=0.0)
        assert z.shape == (8, 12)
        assert stats.mean.shape == (8, 12) and stats.std.shape == (8, 12)
        assert np.array_equal(z.data, stats.mean.data)

    def test_eps_shifts_by_std(self):
        model = make_model()
        spec = random_spec(np.random.default_rng(1))
        eps = np.random.default_rng(2).normal(size=(8, 12))
        z, stats = model.posterior_encode(spec, eps=eps)
        want = stats.mean.data + stats.std.data * eps
        np.testing.assert_allclose(z.data, want, rtol=1e-12)

    def test_std_positive(self):
        model = make_model()
        randomize(model.posterior, np.random.default_rng(3), scale=3.0)
        spec = random_spec(np.random.default_rng(4))
        _, stats = model.posterior_encode(spec, eps=0.0)
        assert np.all(stats.std.data >= 1e-5)

    def test_empty_spec_rejected(self):
        model = make_model()
        with pytest.raises(ModelError):
            model.posterior_encode(np.zeros((0, AUDIO.spec_bins)), eps=0.0)


class TestFlow:
    def test_identity_at_init(self):
        model = make_model()
        z = Tensor(np.random.default_rng(5).normal(size=(8, 10)))
        z_p, logdet = model.flow_forward(z)
        np.testing.assert_array_equal(z_p.data, z.data)
        assert float(logdet.item()) == 0.0

    def test_invertibility_random_weights(self):
        rng = np.random.default_rng(6)
        model = make_model()
        randomize(model.flow, rng, scale=0.5)
        for _ in range(20):
            z = Tensor(rng.normal(size=(8, 7)))
            z_p, ld_f = model.flow_forward(z)
            back, ld_i = model.flow_inverse(z_p)
            assert np.max(np.abs(back.data - z.data)) < 1e-9
            assert abs(ld_f.item() + ld_i.item()) < 1e-9

    def test_logdet_matches_fd_jacobian(self):
        # C=4, T=3 -> 12x12 Jacobian by central differences.
        rng = np.random.default_rng(7)
        model = make_model(latent_channels=4)
        randomize(model.flow, rng, scale=0.4)
        z0 = rng.normal(size=(4, 3))

        def fwd(flat):
            out, _ = model.flow_forward(Tensor(flat.reshape(4, 3)))
            return out.data.ravel()

        h = 1e-6
        jac = np.zeros((12, 12))
        flat = z0.ravel().copy()
        for i in range(12):
            orig = flat[i]
            flat[i] = orig + h
            fp = fwd(flat)
            flat[i] = orig - h
            fm = fwd(flat)
            flat[i] = orig
            jac[:, i] = (fp - fm) / (2 * h)
        sign, fd_logdet = np.linalg.slogdet(jac)
        assert sign > 0
        _, analytic = model.flow_forward(Tensor(z0))
        rel = abs(analytic.item() - fd_logdet) / max(abs(fd_logdet), 1e-12)
        assert rel < 1e-3

    def test_density_integrates_to_one(self):
        # Change of variables on a C=2, T=1 flow: integrate the induced
        # density p(z) = N(f(z); 0, I) |det J(z)| over a grid; mass ~ 1.
        rng = np.random.default_rng(8)
        model = make_model(latent_channels=2, flow_blocks=2)
        randomize(model.flow, rng, scale=0.05)
        lim, steps = 6.0, 81
        axis = np.linspace(-lim, lim, steps)
        cell = (axis[1] - axis[0]) ** 2
        mass = 0.0
        for a in axis:
            for b in axis:
                z = Tensor(np.array([[a], [b]]))
                z_p, logdet = model.flow_forward(z)
                logp = (
                    -0.5 * np.sum(z_p.data**2)
                    - np.log(2 * np.pi)
                    + logdet.item()
                )
                mass += np.exp(logp) * cell
        assert abs(mass - 1.0) < 1e-3

    def test_multi_speaker_conditioning_changes_output(self):
        rng = np.random.default_rng(9)
        model = make_model(multi_speaker=True)
        randomize(model.flow, rng, scale=0.5)
        z = Tensor(rng.normal(size=(8, 6)))
        s1 = Tensor(rng.normal(size=(6, 1)))
        s2 = Tensor(rng.normal(size=(6, 1)))
        out1, _ = model.flow_forward(z, s1)
        out2, _ = model.flow_forward(z, s2)
        assert not np.allclose(out1.data, out2.data)

    def test_multi_speaker_invertible_with_speaker(self):
        rng = np.random.default_rng(10)
        model = make_model(multi_speaker=True)
        randomize(model.flow, rng, scale=0.5)
        z = Tensor(rng.normal(size=(8, 6)))
        s = Tensor(rng.normal(size=(6, 1)))
        z_p, _ = model.flow_forward(z, s)
        back, _ = model.flow_inverse(z_p, s)
        assert np.max(np.abs(back.data - z.data)) < 1e-9

    def test_speaker_rejected_on_single_speaker(self):
        model = make_model()
        z = Tensor(np.zeros((8, 4)))
        with pytest.raises(ModelError):
            model.flow_forward(z, Tensor(np.zeros((6, 1))))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            micro_config(latent_channels=7)


def _bits(a):
    return a.dtype, a.shape, a.strides, a.tobytes()


def _coupling_case(parity, speaker, dtype, seed=0, zero_proj=False):
    """A coupling block with random weights (a zero-initialized ``proj``
    if asked), an input, a speaker embedding or None, and the upstream
    gradients of the block's output, its input and its log-determinant."""
    rng = np.random.default_rng(seed)
    model = make_model(multi_speaker=speaker != "none", dtype=np.dtype(dtype).name)
    block = model.flow.blocks[parity]
    for name, p in block.named_parameters():
        if not (zero_proj and name.startswith("proj.")):
            p.data = rng.normal(scale=0.5, size=p.data.shape).astype(dtype)
    x = rng.normal(size=(8, 9)).astype(dtype)
    spk = None if speaker == "none" else rng.normal(size=(6, 1)).astype(dtype)
    upstream = [rng.normal(size=shape).astype(dtype) for shape in ((8, 9), (8, 9), ())]
    return block, x, spk, upstream


def _coupling_run(forward, block, x_data, spk_data, speaker, x_grad, upstream):
    """Forward and backward of ``forward(block, x, speaker)`` for an ``x``
    that also feeds a second term, whose gradient reaches ``x`` first as
    the decoder's reaches the posterior sample; returns the outputs and the
    gradients of the input leaf, the speaker and every block parameter."""
    block.zero_grad()
    leaf = Tensor(x_data, requires_grad=x_grad)
    x = leaf * Tensor(np.asarray(1.5, x_data.dtype))
    spk = None if spk_data is None else Tensor(spk_data, requires_grad=speaker == "trained")
    y, logdet = forward(block, x, spk)
    up_y, up_x, up_ld = (Tensor(u) for u in upstream)
    loss = ((y * up_y).sum() + logdet * up_ld) + (x * up_x).sum()
    loss.backward()
    grads = [leaf.grad, None if spk is None else spk.grad]
    return [y.data, logdet.data], grads + [p.grad for p in block.parameters()]


class TestCouplingFusedOps:
    """``CouplingBlock.forward`` records the nodes of ``tensor.affine_coupling``
    with the bytes of the chain of single ops it replaces."""

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("speaker", ["none", "fixed", "trained"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_bytes_match_op_chain(self, parity, speaker, dtype, x_grad, coupling_chain):
        block, x, spk, upstream = _coupling_case(parity, speaker, dtype)
        args = (block, x, spk, speaker, x_grad, upstream)
        want_out, want = _coupling_run(coupling_chain, *args)
        got_out, got = _coupling_run(CouplingBlock.forward, *args)
        for g, w in zip(got_out + got, want_out + want):
            assert (g is None) == (w is None)
            if w is not None:
                assert _bits(g) == _bits(w)
        assert (got[0] is None) != x_grad
        assert (got[1] is None) != (speaker == "trained")
        assert all(g is not None for g in got[2:])

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("speaker", ["none", "trained"])
    def test_bytes_match_at_zero_initialized_proj(self, parity, speaker, coupling_chain):
        """A fresh block maps x to itself, and most of its gradients are
        signed zeros: they must come out with the chain's signs."""
        block, x, spk, upstream = _coupling_case(parity, speaker, np.float32, 3, zero_proj=True)
        args = (block, x, spk, speaker, True, upstream)
        want_out, want = _coupling_run(coupling_chain, *args)
        got_out, got = _coupling_run(CouplingBlock.forward, *args)
        assert np.array_equal(got_out[0], 1.5 * x)
        for g, w in zip(got_out + got, want_out + want):
            if w is not None:
                assert _bits(g) == _bits(w)

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("speaker", ["none", "trained"])
    def test_inverse_matches_op_chain(self, parity, speaker, coupling_inverse_chain):
        """The inverse computes its network with the forward's nodes: same
        output bytes as the chain, and gradients equal up to the order of
        one sum."""
        block, x, spk, upstream = _coupling_case(parity, speaker, np.float64, 4)
        args = (block, x, spk, speaker, True, upstream)
        want_out, want = _coupling_run(coupling_inverse_chain, *args)
        got_out, got = _coupling_run(CouplingBlock.inverse, *args)
        for g, w in zip(got_out, want_out):
            assert _bits(g) == _bits(w)
        for g, w in zip(got, want):
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14)

    def test_three_nodes_and_a_sum_per_block(self):
        block, x, spk, _ = _coupling_case(1, "trained", np.float32)
        x = Tensor(x, requires_grad=True)
        spk = Tensor(spk, requires_grad=True)
        y, logdet = block.forward(x, spk)
        log_s, net = y._parents
        assert (y._op, log_s._op, net._op, logdet._op) == (
            "affine_coupling", "coupling_log_scale", "coupling_net", "sum"
        )
        assert logdet._parents == (log_s,) and log_s._parents == (net,)
        sp = block.speaker_proj
        want = [
            x, block.proj.weight, block.conv2.weight, block.conv1.weight,
            block.conv1.bias, sp.weight, spk, sp.bias, block.conv2.bias, block.proj.bias,
        ]
        assert [id(p) for p in net._parents] == [id(p) for p in want]


class TestTokenEncoders:
    def test_pretrain_uses_pseudo_vocab(self):
        model = make_model("pretrain")
        hidden, stats = model.token_encode(np.array([0, 5, 10]))
        assert hidden.shape == (16, 3)
        assert stats.mean.shape == (8, 3)
        assert np.all(stats.std.data > 0)

    def test_finetune_uses_text_vocab(self):
        model = make_model("finetune")
        seq = text_to_phonemes("ab c")
        hidden, stats = model.text_encode(seq)
        assert hidden.shape == (16, 4)
        assert stats.mean.shape == (8, 4)

    def test_mode_gating(self):
        pre = make_model("pretrain")
        with pytest.raises(ModelError):
            pre.text_encode(np.array([0]))

    def test_pseudo_vocab_bound(self):
        model = make_model("pretrain")
        with pytest.raises(ValueError):
            model.token_encode(np.array([11]))

    def test_empty_rejected(self):
        model = make_model("pretrain")
        with pytest.raises(ModelError):
            model.token_encode(np.array([], dtype=np.int64))

    def test_untrained_prior_is_standard_normal_for_every_token(self):
        # An untrained prior favours no token, so the first alignments come
        # from the static alignment prior rather than from random weights.
        model = make_model("finetune")
        _, stats = model.text_encode(text_to_phonemes("abc d"))
        assert np.all(stats.mean.data == 0.0)
        assert np.all(stats.std.data == 1.0)

    def test_outputs_depend_only_on_the_token(self):
        model = make_model("finetune")
        randomize(model.text_encoder, np.random.default_rng(20), scale=0.5)
        randomize(model.duration, np.random.default_rng(21), scale=0.5)
        hidden_1, stats_1 = model.text_encode(np.array([1, 2, 3]))
        hidden_2, stats_2 = model.text_encode(np.array([4, 2, 5]))
        # Token 2 gets the same Gaussian and duration whatever its neighbours.
        np.testing.assert_array_equal(stats_1.mean.data[:, 1], stats_2.mean.data[:, 1])
        np.testing.assert_array_equal(stats_1.std.data[:, 1], stats_2.std.data[:, 1])
        np.testing.assert_array_equal(
            model.predict_durations(hidden_1).data[1],
            model.predict_durations(hidden_2).data[1],
        )

    def test_token_encode_dispatch(self):
        pre = make_model("pretrain")
        h1, _ = pre.token_encode(np.array([1, 2]))
        h2, _ = pre.pseudo_encoder(np.array([1, 2]))
        assert np.array_equal(h1.data, h2.data)
        fine = make_model("finetune")
        h1, _ = fine.token_encode(np.array([1, 2]))
        h2, _ = fine.text_encode(np.array([1, 2]))
        assert np.array_equal(h1.data, h2.data)


class TestDurationPredictor:
    def test_output_shape(self):
        model = make_model("finetune")
        hidden, _ = model.text_encode(text_to_phonemes("abc"))
        logd = model.predict_durations(hidden)
        assert logd.shape == (3,)

    def test_no_speaker_pathway(self):
        # The duration head has no speaker input anywhere in its signature.
        model = make_model("finetune", multi_speaker=True)
        names = [n for n, _ in model.duration.named_parameters()]
        assert all("speaker" not in n for n in names)


class TestUpsampleFactors:
    def test_product_equals_hop(self):
        for hop in (1, 2, 16, 64, 96, 160, 200, 256, 300, 441):
            factors = upsample_factors(hop)
            assert int(np.prod(factors)) == hop

    def test_factor_sizes(self):
        assert upsample_factors(256) == [8, 8, 4]
        assert upsample_factors(1) == []


class TestDecoder:
    def test_output_length(self):
        model = make_model()
        z = Tensor(np.random.default_rng(11).normal(size=(8, 9)))
        wave = model.decode(z)
        assert wave.shape == (9 * AUDIO.hop_length,)

    def test_bounded_output(self):
        model = make_model()
        randomize(model.decoder, np.random.default_rng(12), scale=2.0)
        z = Tensor(np.random.default_rng(13).normal(size=(8, 5)))
        wave = model.decode(z)
        assert np.all(np.abs(wave.data) <= 1.0)

    def test_speaker_embedding_reaches_the_waveform(self):
        rng = np.random.default_rng(21)
        model = make_model(multi_speaker=True)
        z = Tensor(rng.normal(size=(8, 5)))
        a = model.decode(z, Tensor(rng.normal(size=(6, 1))))
        b = model.decode(z, Tensor(rng.normal(size=(6, 1))))
        assert not np.allclose(a.data, b.data)
        # No speaker means the zero embedding, as for the flow.
        np.testing.assert_array_equal(
            model.decode(z).data, model.decode(z, model.zero_speaker()).data
        )

    def test_speaker_rejected_on_single_speaker(self):
        model = make_model()
        with pytest.raises(ModelError):
            model.decode(Tensor(np.zeros((8, 4))), Tensor(np.zeros((6, 1))))

    def test_call_counter(self):
        model = make_model()
        z = Tensor(np.zeros((8, 4)))
        assert model.decoder.calls == 0
        model.decode(z)
        model.decode(z)
        assert model.decoder.calls == 2


class TestReferenceEncoder:
    def test_embedding_shape(self):
        model = make_model(multi_speaker=True)
        mel = np.random.default_rng(14).normal(size=(20, AUDIO.n_mels))
        emb = model.reference_encode(mel)
        assert emb.shape == (6, 1)

    def test_tiling_invariance(self):
        model = make_model(multi_speaker=True)
        randomize(model.reference, np.random.default_rng(15), scale=0.5)
        mel = np.random.default_rng(16).normal(size=(10, AUDIO.n_mels))
        e1 = model.reference_encode(mel).data
        e2 = model.reference_encode(np.concatenate([mel, mel], axis=0)).data
        assert np.max(np.abs(e1 - e2)) <= 1e-5

    def test_absent_on_single_speaker(self):
        model = make_model(multi_speaker=False)
        with pytest.raises(ModelError):
            model.reference_encode(np.zeros((5, AUDIO.n_mels)))


class TestModelAssembly:
    def test_pretrain_has_pseudo_encoder_only(self):
        names = {n.split(".")[0] for n, _ in make_model("pretrain").named_parameters()}
        assert "pseudo_encoder" in names and "text_encoder" not in names

    def test_finetune_has_text_encoder_only(self):
        names = {n.split(".")[0] for n, _ in make_model("finetune").named_parameters()}
        assert "text_encoder" in names and "pseudo_encoder" not in names

    def test_reference_only_when_multi_speaker(self):
        single = {n.split(".")[0] for n, _ in make_model().named_parameters()}
        multi = {
            n.split(".")[0]
            for n, _ in make_model(multi_speaker=True).named_parameters()
        }
        assert "reference" not in single and "reference" in multi

    def test_seeded_init_reproducible(self):
        a = make_model(seed=42)
        b = make_model(seed=42)
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_dtype_respected(self):
        model = make_model(dtype="float32")
        assert all(p.data.dtype == np.float32 for _, p in model.named_parameters())

    def test_bad_mode(self):
        with pytest.raises(ModelError):
            SynthesisModel(micro_config(), AUDIO, "inference", seed=0)


class TestSynthesize:
    def _trained_ish(self, multi=False, seed=17):
        rng = np.random.default_rng(seed)
        model = make_model("finetune", multi_speaker=multi)
        randomize(model.text_encoder, rng, scale=0.3)
        randomize(model.flow, rng, scale=0.2)
        randomize(model.duration, rng, scale=0.3)
        randomize(model.decoder, rng, scale=0.3)
        if multi:
            randomize(model.reference, rng, scale=0.3)
        return model

    def test_deterministic_given_seed(self):
        model = self._trained_ish()
        seq = text_to_phonemes("hello")
        a = model.synthesize(seq, seed=5)
        b = model.synthesize(seq, seed=5)
        assert np.array_equal(a.wave, b.wave)
        assert np.array_equal(a.durations, b.durations)

    def test_noise_scale_zero_ignores_seed(self):
        model = self._trained_ish()
        seq = text_to_phonemes("hello")
        a = model.synthesize(seq, noise_scale=0.0, seed=1)
        b = model.synthesize(seq, noise_scale=0.0, seed=99)
        assert np.array_equal(a.wave, b.wave)

    def test_different_seeds_differ(self):
        model = self._trained_ish()
        seq = text_to_phonemes("hello")
        a = model.synthesize(seq, noise_scale=0.8, seed=1)
        b = model.synthesize(seq, noise_scale=0.8, seed=2)
        assert not np.array_equal(a.wave, b.wave)

    def test_wave_length_matches_durations(self):
        model = self._trained_ish()
        result = model.synthesize(text_to_phonemes("abc ab"))
        assert result.wave.shape == (result.durations.sum() * AUDIO.hop_length,)
        assert result.wave.dtype == np.float32

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"length_scale": -1.0}, "length_scale must be a finite number > 0, got -1.0"),
            ({"length_scale": 0}, "length_scale must be a finite number > 0, got 0"),
            ({"length_scale": float("nan")}, "length_scale must be a finite number > 0, got nan"),
            ({"length_scale": float("inf")}, "length_scale must be a finite number > 0, got inf"),
            ({"length_scale": "1"}, "length_scale must be a finite number > 0, got '1'"),
            ({"noise_scale": -0.5}, "noise_scale must be a finite number >= 0, got -0.5"),
            ({"noise_scale": float("nan")}, "noise_scale must be a finite number >= 0, got nan"),
            ({"noise_scale": float("-inf")}, "noise_scale must be a finite number >= 0, got -inf"),
        ],
    )
    def test_scales_checked_before_any_work(self, kwargs, message, monkeypatch):
        model = self._trained_ish()

        def never(*args):
            raise AssertionError("text_encode ran")

        monkeypatch.setattr(model, "text_encode", never)
        with pytest.raises(ModelError, match=message):
            model.synthesize(text_to_phonemes("hello"), **kwargs)

    def test_length_scale_monotone(self):
        model = self._trained_ish()
        seq = text_to_phonemes("hello world")
        short = model.synthesize(seq, length_scale=0.5)
        base = model.synthesize(seq, length_scale=1.0)
        long = model.synthesize(seq, length_scale=2.0)
        assert short.durations.sum() <= base.durations.sum() <= long.durations.sum()
        assert np.all(short.durations >= 1)

    def test_ref_mel_required_effects_multi(self):
        model = self._trained_ish(multi=True)
        seq = text_to_phonemes("abc")
        mel1 = np.random.default_rng(18).normal(size=(9, AUDIO.n_mels))
        mel2 = np.random.default_rng(19).normal(size=(9, AUDIO.n_mels)) + 2.0
        a = model.synthesize(seq, noise_scale=0.0, ref_mel=mel1)
        b = model.synthesize(seq, noise_scale=0.0, ref_mel=mel2)
        assert not np.array_equal(a.wave, b.wave)
        # Durations never depend on the reference voice.
        assert np.array_equal(a.durations, b.durations)

    def test_ref_mel_rejected_single_speaker(self):
        model = self._trained_ish(multi=False)
        with pytest.raises(ModelError):
            model.synthesize(
                text_to_phonemes("abc"),
                ref_mel=np.zeros((5, AUDIO.n_mels)),
            )

    def test_pretrain_model_cannot_synthesize_text(self):
        model = make_model("pretrain")
        with pytest.raises(ModelError):
            model.synthesize(text_to_phonemes("abc"))
