"""The conditional VAE: posterior encoder, coupling flow, decoder, token
encoders, duration predictor, reference encoder, and the inference path.

Conventions
-----------
Activations and Gaussian statistics are channels-first tensors
``[channels, frames]``. Standard deviations come from an exponential
parameterization with the log-std clamped so that ``std >= 1e-5`` always
holds.

A model is built in one of two modes: ``pretrain`` carries a pseudo-token
encoder over the unit vocabulary, ``finetune`` carries a text encoder over
the phoneme vocabulary. Everything else is shared between modes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import AudioConfig, ModelConfig
from .nn import Conv1d, Embedding, Module, ModuleList
from .seeding import seeded_rng
from .tensor import Tensor

# exp(+/-11.512925) spans [1.0000005e-05, 0.99999954e+05]: the lower clamp
# sits just above log(1e-5) so the advertised floor holds after rounding.
LOG_STD_MIN = -11.512925
LOG_STD_MAX = 11.512925
LOG_SCALE_CAP = 2.0  # coupling log-scales bounded to [-2, 2] via tanh
# Longest audio one synthesis request may ask for. Under ``no_grad`` the
# decoder's largest buffer is the im2col matrix of its last convolution,
# channels * 7 floats per output sample: about 1.8 GB at a minute of 22.05 kHz
# audio with the default 48 channels.
MAX_SYNTHESIS_SECONDS = 60.0

MODES = ("pretrain", "finetune")


class ModelError(ValueError):
    """Invalid model usage (wrong mode, bad shapes, out-of-range tokens)."""


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def check_synthesis_scales(noise_scale, length_scale) -> None:
    """Refuse a sampling temperature or duration multiplier that
    :meth:`SynthesisModel.synthesize` cannot use; callers that read audio
    for a request call this first."""
    if not (_is_finite(length_scale) and length_scale > 0):
        raise ModelError(f"length_scale must be a finite number > 0, got {length_scale!r}")
    if not (_is_finite(noise_scale) and noise_scale >= 0):
        raise ModelError(f"noise_scale must be a finite number >= 0, got {noise_scale!r}")


@dataclass
class Stats:
    """Diagonal Gaussian statistics, channels-first ``[C, frames]``."""

    mean: Tensor
    std: Tensor

    def repeat(self, durations: np.ndarray) -> Stats:
        """Token statistics ``[C, N]`` repeated to frames: column ``j`` is
        taken ``durations[j]`` times, so a zero duration drops its token."""
        return Stats(
            mean=T.repeat_cols(self.mean, durations), std=T.repeat_cols(self.std, durations)
        )

    def sample(self, eps: np.ndarray | float) -> Tensor:
        """``mean + std * eps``, with ``eps`` broadcast against ``[C, frames]``."""
        return self.mean + self.std * Tensor(np.asarray(eps, dtype=self.mean.dtype))


def _split_stats(projected: Tensor, channels: int) -> Stats:
    mean = projected[:channels, :]
    log_std = projected[channels:, :].clamp(LOG_STD_MIN, LOG_STD_MAX)
    return Stats(mean=mean, std=log_std.exp())


class PosteriorEncoder(Module):
    """Linear spectrogram -> per-frame posterior Gaussian."""

    def __init__(
        self, spec_bins: int, hidden: int, latent: int, rng, dtype
    ) -> None:
        super().__init__()
        self.latent = latent
        self.conv1 = Conv1d(spec_bins, hidden, 5, padding=2, rng=rng, dtype=dtype)
        self.conv2 = Conv1d(hidden, hidden, 5, padding=2, rng=rng, dtype=dtype)
        self.proj = Conv1d(hidden, 2 * latent, 1, rng=rng, dtype=dtype)

    def __call__(self, spec: Tensor) -> Stats:
        h = self.conv1(spec).relu()
        h = self.conv2(h).relu()
        return _split_stats(self.proj(h), self.latent)


class CouplingBlock(Module):
    """Affine coupling on half the channels, conditioned on the other half.

    ``parity`` selects which half passes through unchanged; stacking blocks
    with alternating parity plays the role of a flip permutation between
    blocks while keeping the zero-initialized stack an exact identity map.
    """

    def __init__(
        self, channels: int, hidden: int, parity: int, speaker_dim: int, rng, dtype
    ) -> None:
        super().__init__()
        self.half = channels // 2
        self.parity = parity
        self.conv1 = Conv1d(self.half, hidden, 3, padding=1, rng=rng, dtype=dtype)
        self.conv2 = Conv1d(hidden, hidden, 3, padding=1, rng=rng, dtype=dtype)
        self.proj = Conv1d(hidden, channels, 1, zero_init=True, dtype=dtype)
        if speaker_dim:
            self.speaker_proj = Conv1d(speaker_dim, hidden, 1, rng=rng, dtype=dtype)

    def _net_args(self, speaker: Tensor | None) -> dict:
        """Keyword arguments of :func:`tensor.coupling_net` for this block."""
        layers = [
            (conv.weight, conv.bias, conv.kernel_size, conv.padding)
            for conv in (self.conv1, self.conv2, self.proj)
        ]
        speaker_layer = None
        if speaker is not None:
            if not hasattr(self, "speaker_proj"):
                raise ModelError("speaker conditioning on a single-speaker flow")
            sp = self.speaker_proj
            speaker_layer = (sp.weight, sp.bias, sp.kernel_size, sp.padding)
        return dict(
            half=self.half, parity=self.parity, layers=layers,
            speaker=speaker, speaker_layer=speaker_layer,
        )

    def forward(self, x: Tensor, speaker: Tensor | None):
        y, log_s = T.affine_coupling(x, cap=LOG_SCALE_CAP, **self._net_args(speaker))
        return y, log_s.sum()

    def inverse(self, y: Tensor, speaker: Tensor | None):
        """The moved half becomes ``(moved - shift) * exp(-log_s)``; computed
        on arrays and returned as tensors without a graph."""
        with T.no_grad():
            net = T.coupling_net(y, **self._net_args(speaker))
            log_s = T.coupling_log_scale(net, self.half, LOG_SCALE_CAP).data
        moved = slice(self.half, None) if self.parity == 0 else slice(None, self.half)
        x = y.data.copy()
        x[moved, :] = (y.data[moved, :] - net.data[self.half :, :]) * np.exp(-log_s)
        return Tensor(x), Tensor(-log_s.sum())


class Flow(Module):
    """Stack of coupling blocks with exact log-determinant accounting."""

    def __init__(
        self, channels: int, hidden: int, blocks: int, speaker_dim: int, rng, dtype
    ) -> None:
        super().__init__()
        self.blocks = ModuleList(
            CouplingBlock(channels, hidden, b % 2, speaker_dim, rng, dtype)
            for b in range(blocks)
        )

    def forward(self, z: Tensor, speaker: Tensor | None = None):
        logdet = None
        for i, block in enumerate(self.blocks):
            z, ld = block.forward(z, speaker)
            if not np.all(np.isfinite(z.data)):
                raise ModelError(f"non-finite flow output at block {i}")
            logdet = ld if logdet is None else logdet + ld
        return z, logdet

    def inverse(self, z_p: Tensor, speaker: Tensor | None = None):
        logdet = None
        for i in range(len(self.blocks) - 1, -1, -1):
            z_p, ld = self.blocks[i].inverse(z_p, speaker)
            if not np.all(np.isfinite(z_p.data)):
                raise ModelError(f"non-finite flow output at block {i}")
            logdet = ld if logdet is None else logdet + ld
        return z_p, logdet


class TokenEncoder(Module):
    """Token ids -> per-token embeddings and prior Gaussians.

    Both outputs depend on each token alone: the prior statistics are a
    projection of the token's embedding, and the embedding is what the
    duration predictor reads. With a handful of labeled utterances a head
    that sees neighbouring tokens gives every occurrence of a token
    parameters of its own: alignment search then settles on collapsed
    alignments that those parameters fit just as well, and durations of
    held-out texts follow the contexts of the training words instead of the
    tokens. The projection starts at zero, so an untrained prior is the same
    standard normal for every token.
    """

    def __init__(
        self, vocab: int, hidden: int, latent: int, rng, dtype
    ) -> None:
        super().__init__()
        self.latent = latent
        self.emb = Embedding(vocab, hidden, rng=rng, dtype=dtype)
        self.proj = Conv1d(hidden, 2 * latent, 1, zero_init=True, dtype=dtype)

    def __call__(self, ids: np.ndarray) -> tuple[Tensor, Stats]:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ModelError("token sequence must be 1-D and non-empty")
        hidden = self.emb(ids).t()
        return hidden, _split_stats(self.proj(hidden), self.latent)


class DurationPredictor(Module):
    """Per-token log-duration regressor over encoder hidden states.

    Deliberately has no speaker input: duration is speaker-independent by
    construction.
    """

    def __init__(self, hidden: int, inner: int, rng, dtype) -> None:
        super().__init__()
        self.conv1 = Conv1d(hidden, inner, 1, rng=rng, dtype=dtype)
        self.proj = Conv1d(inner, 1, 1, rng=rng, dtype=dtype)

    def __call__(self, hidden: Tensor) -> Tensor:
        out = self.proj(self.conv1(hidden).relu())
        return out.reshape(out.shape[1])


def upsample_factors(hop: int) -> list[int]:
    """Factor a hop length into upsampling stages of at most 8x each."""
    factors: list[int] = []
    rest = hop
    for f in (8, 7, 6, 5, 4, 3, 2):
        while rest % f == 0 and rest > 1:
            factors.append(f)
            rest //= f
    if rest > 1:
        factors.append(rest)
    return factors


class WaveDecoder(Module):
    """Latent frames -> waveform via upsampling convolution stages.

    Each stage is a ``2f + 1``-tap convolution over the input zero-stuffed
    by ``f``, computed by :meth:`Conv1d.upsampled` from the real columns
    and recorded as one graph node, as are the pre and post convolutions
    and the speaker projection.

    Output length is exactly ``frames * hop``; ``calls`` counts forward
    evaluations so training stages can prove the decoder was never run.

    A multi-speaker decoder adds a projection of the speaker embedding to
    every frame after its first convolution, as the VITS generator does
    (arXiv 2106.06103), so a reference voice reaches the waveform directly
    and not only through the flow.
    """

    def __init__(
        self, latent: int, channels: int, hop: int, speaker_dim: int, rng, dtype
    ) -> None:
        super().__init__()
        self.hop = hop
        self.factors = upsample_factors(hop)
        self.calls = 0
        self.pre = Conv1d(latent, channels, 7, padding=3, rng=rng, dtype=dtype)
        self.stages = ModuleList(
            Conv1d(channels, channels, 2 * f + 1, padding=f, rng=rng, dtype=dtype)
            for f in self.factors
        )
        self.post = Conv1d(channels, 1, 7, padding=3, rng=rng, dtype=dtype)
        if speaker_dim:
            self.speaker_proj = Conv1d(speaker_dim, channels, 1, rng=rng, dtype=dtype)

    def __call__(self, z: Tensor, speaker: Tensor | None = None) -> Tensor:
        self.calls += 1
        x = self.pre(z)
        if speaker is not None:
            if not hasattr(self, "speaker_proj"):
                raise ModelError("speaker conditioning on a single-speaker decoder")
            x = x + self.speaker_proj(speaker)
        x = x.relu()
        for factor, conv in zip(self.factors, self.stages):
            x = conv.upsampled(x, factor).relu()
        wave = self.post(x).tanh()
        return wave.reshape(wave.shape[1])


class ReferenceEncoder(Module):
    """Mel spectrogram -> fixed-size speaker embedding.

    Circular padding plus temporal mean pooling make the embedding exactly
    invariant to tiling the input along time (up to float summation order).
    """

    def __init__(self, n_mels: int, hidden: int, embed_dim: int, rng, dtype) -> None:
        super().__init__()
        self.conv1 = Conv1d(
            n_mels, hidden, 3, padding=1, pad_mode="circular", rng=rng, dtype=dtype
        )
        self.conv2 = Conv1d(
            hidden, hidden, 3, padding=1, pad_mode="circular", rng=rng, dtype=dtype
        )
        self.proj = Conv1d(hidden, embed_dim, 1, rng=rng, dtype=dtype)

    def __call__(self, mel: Tensor) -> Tensor:
        h = self.conv2(self.conv1(mel).relu()).relu()
        return self.proj(h.mean(axis=1, keepdims=True))


@dataclass
class SynthesisResult:
    wave: np.ndarray
    durations: np.ndarray
    tokens: np.ndarray
    # The [speaker_embed_dim, 1] embedding the flow and decoder were
    # conditioned on (zeros without a reference); None for a
    # single-speaker model.
    speaker: np.ndarray | None = None


class SynthesisModel(Module):
    """The full conditional VAE in either pre-training or fine-tuning mode."""

    def __init__(
        self,
        config: ModelConfig,
        audio: AudioConfig,
        mode: str,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if mode not in MODES:
            raise ModelError(f"unknown mode {mode!r}")
        self.config = config
        self.audio = audio
        self.mode = mode
        self.np_dtype = np.float32 if config.dtype == "float32" else np.float64
        rng = seeded_rng(seed)
        dtype = self.np_dtype
        c = config.latent_channels
        speaker_dim = config.speaker_embed_dim if config.multi_speaker else 0
        self.posterior = PosteriorEncoder(
            audio.spec_bins, config.hidden_channels, c, rng, dtype
        )
        self.flow = Flow(
            c, config.flow_hidden, config.flow_blocks, speaker_dim, rng, dtype
        )
        self.decoder = WaveDecoder(
            c, config.decoder_channels, audio.hop_length, speaker_dim, rng, dtype
        )
        self.duration = DurationPredictor(
            config.hidden_channels, config.duration_hidden, rng, dtype
        )
        if mode == "pretrain":
            self.pseudo_encoder = TokenEncoder(
                config.pseudo_vocab_size, config.hidden_channels, c, rng, dtype
            )
        else:
            self.text_encoder = TokenEncoder(
                config.text_vocab_size, config.hidden_channels, c, rng, dtype
            )
        if config.multi_speaker:
            self.reference = ReferenceEncoder(
                audio.n_mels, config.hidden_channels, speaker_dim, rng, dtype
            )

    # -- encoders -----------------------------------------------------------

    def posterior_encode(
        self, spec_values: np.ndarray, eps: np.ndarray | float = 0.0
    ) -> tuple[Tensor, Stats]:
        """Sample z = mean + std * eps from the frame posterior.

        ``spec_values`` is a frame-major magnitude spectrogram [T, bins];
        ``eps`` is broadcast against the channels-first latent [C, T].
        """
        spec = np.asarray(spec_values, dtype=self.np_dtype)
        if spec.ndim != 2 or spec.shape[0] < 1:
            raise ModelError("spectrogram must be [frames, bins] with frames >= 1")
        stats = self.posterior(Tensor(spec.T))
        return stats.sample(eps), stats

    def text_encode(self, ids: np.ndarray) -> tuple[Tensor, Stats]:
        if self.mode != "finetune":
            raise ModelError("text encoding requires a finetune-mode model")
        return self.text_encoder(ids)

    def token_encode(self, ids: np.ndarray) -> tuple[Tensor, Stats]:
        """Mode-appropriate prior encoder: pseudo tokens in pretrain mode,
        text tokens in finetune mode."""
        if self.mode == "pretrain":
            return self.pseudo_encoder(ids)
        return self.text_encode(ids)

    # -- flow / decoder / reference -------------------------------------------

    def flow_forward(self, z: Tensor, speaker: Tensor | None = None):
        return self.flow.forward(z, self._check_speaker(speaker))

    def flow_inverse(self, z_p: Tensor, speaker: Tensor | None = None):
        return self.flow.inverse(z_p, self._check_speaker(speaker))

    def _check_speaker(self, speaker: Tensor | None) -> Tensor | None:
        if not self.config.multi_speaker:
            if speaker is not None:
                raise ModelError("speaker embedding on a single-speaker model")
            return None
        if speaker is None:
            return self.zero_speaker()
        return speaker

    def zero_speaker(self) -> Tensor:
        return Tensor(np.zeros((self.config.speaker_embed_dim, 1), self.np_dtype))

    def decode(self, z: Tensor, speaker: Tensor | None = None) -> Tensor:
        return self.decoder(z, self._check_speaker(speaker))

    def predict_durations(self, hidden: Tensor) -> Tensor:
        return self.duration(hidden)

    def reference_encode(self, mel_values: np.ndarray) -> Tensor:
        if not self.config.multi_speaker:
            raise ModelError("reference encoding on a single-speaker model")
        mel = np.asarray(mel_values, dtype=self.np_dtype)
        if mel.ndim != 2 or mel.shape[0] < 1:
            raise ModelError("mel must be [frames, n_mels] with frames >= 1")
        return self.reference(Tensor(mel.T))

    # -- inference -----------------------------------------------------------

    def _frame_counts(self, log_dur: np.ndarray, length_scale: float) -> np.ndarray:
        """Frames per token from predicted log-durations, refusing a request
        longer than ``MAX_SYNTHESIS_SECONDS`` before anything that size is
        allocated."""
        if not np.all(np.isfinite(log_dur)):
            raise ModelError("duration predictor returned a non-finite log-duration")
        with np.errstate(over="ignore"):
            frames = np.maximum(1, np.floor(np.exp(log_dur) * length_scale + 0.5))
        limit = int(MAX_SYNTHESIS_SECONDS * self.audio.sample_rate / self.audio.hop_length)
        total = float(frames.sum())
        if not total <= limit:
            raise ModelError(
                f"predicted length of {total:.4g} frames exceeds the limit of "
                f"{limit} frames ({MAX_SYNTHESIS_SECONDS:g} s of audio)"
            )
        return frames.astype(np.int64)

    def synthesize(
        self,
        ids: np.ndarray,
        noise_scale: float = 0.667,
        length_scale: float = 1.0,
        ref_mel: np.ndarray | None = None,
        seed: int = 0,
    ) -> SynthesisResult:
        """Text tokens -> waveform (deterministic given the seed)."""
        check_synthesis_scales(noise_scale, length_scale)
        if ref_mel is not None and not self.config.multi_speaker:
            raise ModelError("reference mel given to a single-speaker model")
        with T.no_grad():
            hidden, prior = self.text_encode(ids)
            log_dur = self.predict_durations(hidden).data
            durations = self._frame_counts(log_dur, length_scale)
            shape = (int(durations.sum()), self.config.latent_channels)
            eps = seeded_rng(seed).standard_normal(shape).astype(self.np_dtype).T
            z_p = prior.repeat(durations).sample(noise_scale * eps)
            speaker = self._check_speaker(
                None if ref_mel is None else self.reference_encode(ref_mel)
            )
            z, _ = self.flow.inverse(z_p, speaker)
            wave = self.decode(z, speaker)
        return SynthesisResult(
            wave=np.asarray(wave.data, dtype=np.float32),
            durations=durations,
            tokens=np.asarray(ids, dtype=np.int64),
            speaker=None if speaker is None else speaker.data,
        )
