"""Shared pytest hooks.

The acceptance tests in ``test_acceptance.py`` are named
``test_criterion_<n>_...``; after the run, one PASS/FAIL line per criterion
is printed so the acceptance status is readable at a glance. The
``conv1d_chain`` fixture is the oracle of the fused convolution tests,
``upsampled_chain`` that of the fused upsampling convolution,
``upsample_cols`` the zero-stuffed input that the upsampling convolution
never builds, and ``per_utterance_step`` the oracle of a training step with
frozen encodings and one alignment search per batch. ``coupling_chain`` and
``coupling_inverse_chain`` are the oracles of a coupling block's forward and
inverse maps, ``synthesize_frame_major`` that of synthesis with the prior
expanded frame-major and the flow inverted by that chain, ``kld_chain`` and
``duration_chain`` those of the fused KL and duration losses, and
``log_density_chain`` the Gaussian log-density the KL chain is built on.
``pad_cols`` and ``frame_cols`` are single ops those chains are made of.
``alignment_score`` and ``durations_to_assignment`` are the oracles of the
alignment search tests. ``report_by_waves`` is the oracle of
``evaluate_manifest``: it scores every metric from the waves, one log-mel
per metric and wave. ``render_per_phone`` is the oracle of
``synthetic.render_utterance``: it renders every phone instance anew.
``grad_enabled`` reads whether ``tensor`` records graphs.
``lloyd_fit`` is the oracle of ``pseudo.train_codebook``: k-means++ seeding
on whole [n, d] temporaries and every frame assigned every pass.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

_CRITERIA = {
    1: "monotonic alignment matches exhaustive search",
    2: "flow invertibility and log-determinant accuracy",
    3: "analytic gradients match central finite differences",
    4: "pseudo-phoneme pipeline: purity, monotone inertia, merge round trip",
    5: "fine-tuning freeze contract",
    6: "pre-training + fine-tuning beats from-scratch training",
    7: "zero-shot speaker transfer from reference audio",
    8: "bit-identical reruns: training logs and synthesized audio",
    9: "latent KL divergence closed-form spot checks",
}

_results: dict[int, str] = {}


def _criterion_of(nodeid: str) -> int | None:
    match = re.search(r"test_criterion_(\d+)", nodeid)
    return int(match.group(1)) if match else None


def pytest_runtest_logreport(report) -> None:
    number = _criterion_of(report.nodeid)
    if number is None:
        return
    if report.when == "call" or report.failed:
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        if _results.get(number) != "FAIL":
            _results[number] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_results):
        terminalreporter.write_line(
            f"criterion {number} [{_results[number]}] {_CRITERIA[number]}"
        )


def _pad_cols(x, left: int, right: int, mode: str = "zeros"):
    """Time-axis padding as an op on ``np.pad``, independent of ``tensor``'s
    padding code."""
    from pptts import tensor as tz

    width = x.data.shape[1]
    if mode == "zeros":
        out = np.pad(x.data, ((0, 0), (left, right)))

        def vjp(g):
            return g[:, left : left + width]

    else:
        out = np.pad(x.data, ((0, 0), (left, right)), mode="wrap")

        def vjp(g):
            core = np.array(g[:, left : left + width], copy=True)
            if left:
                core[:, width - left :] += g[:, :left]
            if right:
                core[:, :right] += g[:, left + width :]
            return core

    return tz._make(out, [(x, vjp)], "pad_cols")


def _frame_cols(x, kernel: int):
    """im2col of a [C, T] tensor: [C * kernel, T - kernel + 1], column t
    holding the flattened window x[:, t : t + kernel]. Independent of
    ``tensor``'s im2col code: the windows are gathered across the input's
    own strides, and the backward adds each tap's row straight into zeros
    laid out like the input."""
    from pptts import tensor as tz

    channels, width = x.data.shape
    count = width - kernel + 1
    s0, s1 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data, shape=(channels, count, kernel), strides=(s0, s1, s1)
    )
    out = np.ascontiguousarray(windows.transpose(0, 2, 1)).reshape(channels * kernel, count)

    def vjp(g):
        g3 = g.reshape(channels, kernel, count)
        gx = np.zeros_like(x.data)
        for j in range(kernel):
            gx[:, j : j + count] += g3[:, j, :]
        return gx

    return tz._make(out, [(x, vjp)], "frame_cols")


def _take_rows_scatter(x, ids):
    """``x[ids]`` along the leading axis with a plain-scatter backward: a
    row that ``ids`` repeats gets one of its gradients, not their sum."""
    from pptts import tensor as tz

    def vjp(g):
        gx = np.zeros_like(x.data)
        # ``+ 0.0`` turns -0.0 into 0.0, as adding into zeros does.
        gx[ids] = g + 0.0
        return gx

    return tz._make(x.data[ids], [(x, vjp)], "take_rows")


def _conv1d_chain(conv, x):
    """``Conv1d.__call__`` as a chain of five graph nodes: pad, im2col,
    matmul, bias reshape and add."""
    if conv.padding:
        x = _pad_cols(x, conv.padding, conv.padding, conv.pad_mode)
    cols = _frame_cols(x, conv.kernel_size)
    return (conv.weight @ cols) + conv.bias.reshape(conv.out_channels, 1)


def _upsampled_chain(conv, x, factor: int, take_rows=_take_rows_scatter):
    """``Conv1d.upsampled`` as a chain of twelve graph nodes: weight
    transpose, concat with a zero row, gather of the phase weights,
    reshape, pad, im2col, transpose, matmul, reshape, transpose, bias
    reshape and add."""
    from pptts import tensor as tz

    f = factor
    channels, width = x.shape
    # Row (c, j, r) of the gathered weight holds tap f*j - r of input
    # channel c, or the appended zero row where that tap does not exist.
    c, j, r = np.meshgrid(np.arange(channels), np.arange(3), np.arange(f), indexing="ij")
    taps = f * j - r
    zero_row = channels * conv.kernel_size
    ids = np.where(taps >= 0, c * conv.kernel_size + taps, zero_row).ravel()
    zero = tz.Tensor(np.zeros((1, conv.out_channels), conv.weight.dtype))
    weight_t = tz.concat([conv.weight.t(), zero])
    phases = take_rows(weight_t, ids).reshape(3 * channels, -1)
    cols = _frame_cols(_pad_cols(x, 1, 1), 3)
    out = (cols.t() @ phases).reshape(width * f, conv.out_channels).t()
    return out + conv.bias.reshape(conv.out_channels, 1)


def _upsample_cols(x, factor: int):
    """Zero-stuff the time axis of a [C, T] tensor by an integer factor:
    each column is followed by ``factor - 1`` zero columns."""
    from pptts import tensor as tz

    channels, width = x.data.shape
    out = np.zeros((channels, width * factor), dtype=x.data.dtype)
    out[:, ::factor] = x.data

    def vjp(g):
        return g[:, ::factor]

    return tz._make(out, [(x, vjp)], "upsample_cols")


def _coupling_scale_shift(block, kept, speaker):
    """Log-scales and shifts of a coupling block as the chain of conv1,
    speaker projection and add, relu, conv2, relu, proj, two slices, tanh
    and scale."""
    from pptts.model import LOG_SCALE_CAP

    h = block.conv1(kept)
    if speaker is not None:
        h = h + block.speaker_proj(speaker)
    out = block.proj(block.conv2(h.relu()).relu())
    return out[: block.half, :].tanh() * LOG_SCALE_CAP, out[block.half :, :]


def _coupling_halves(block, x):
    if block.parity == 0:
        return x[: block.half, :], x[block.half :, :]
    return x[block.half :, :], x[: block.half, :]


def _coupling_join(block, kept, changed):
    from pptts import tensor as tz

    pair = [kept, changed] if block.parity == 0 else [changed, kept]
    return tz.concat(pair, axis=0)


def _coupling_chain(block, x, speaker):
    """``CouplingBlock.forward`` as the chain of about 17 graph nodes: two
    slices of ``x``, the conditioning network's ops, tanh, scale, exp,
    product, sum, concat and the log-scale sum."""
    kept, moved = _coupling_halves(block, x)
    log_s, shift = _coupling_scale_shift(block, kept, speaker)
    moved = moved * log_s.exp() + shift
    return _coupling_join(block, kept, moved), log_s.sum()


def _coupling_inverse_chain(block, y, speaker):
    """``CouplingBlock.inverse`` as a chain of single ops."""
    kept, moved = _coupling_halves(block, y)
    log_s, shift = _coupling_scale_shift(block, kept, speaker)
    moved = (moved - shift) * (-log_s).exp()
    return _coupling_join(block, kept, moved), -log_s.sum()


def _synthesize_frame_major(
    model, ids, noise_scale=0.667, length_scale=1.0, ref_mel=None, seed=0
):
    """``SynthesisModel.synthesize`` as it expanded the prior before
    ``Stats.repeat``: ``np.repeat`` of the frame-major statistics, the
    sample ``mean + std * (noise_scale * eps)`` in that layout, transposed
    to channels-first, and the flow inverted block by block with
    :func:`_coupling_inverse_chain`. Returns (wave, durations, speaker)."""
    from pptts import tensor as tz
    from pptts.seeding import seeded_rng

    with tz.no_grad():
        hidden, prior = model.text_encode(ids)
        durations = model._frame_counts(model.predict_durations(hidden).data, length_scale)
        mean_f = np.repeat(prior.mean.data.T, durations, axis=0)
        std_f = np.repeat(prior.std.data.T, durations, axis=0)
        eps = seeded_rng(seed).standard_normal(mean_f.shape).astype(model.np_dtype)
        z = tz.Tensor((mean_f + std_f * (noise_scale * eps)).T.astype(model.np_dtype))
        speaker = None
        if model.config.multi_speaker:
            speaker = model.zero_speaker() if ref_mel is None else model.reference_encode(ref_mel)
        for block in reversed(model.flow.blocks):
            z, _ = _coupling_inverse_chain(block, z, speaker)
        wave = model.decode(z, speaker)
    return (
        np.asarray(wave.data, dtype=np.float32),
        durations,
        None if speaker is None else speaker.data,
    )


def _log_density_chain(x, stats):
    """Elementwise log N(x; mean, std) as a chain of single ops."""
    from pptts.losses import LossError

    if x.shape != stats.mean.shape:
        raise LossError(f"value shape {x.shape} does not match stats shape {stats.mean.shape}")
    centered = (x - stats.mean) / stats.std
    return (centered**2 + float(np.log(2.0 * np.pi))) * -0.5 - stats.std.log()


def _kld_chain(post, z, z_p, frame_prior, logdet_forward):
    """``losses.kld_prior_loss`` as a chain of single ops."""
    log_q = _log_density_chain(z, post)
    log_p = _log_density_chain(z_p, frame_prior)
    return ((log_q - log_p).sum() - logdet_forward) * (1.0 / float(z.size))


def _duration_chain(predicted_logdur, target_durations):
    """``losses.duration_loss`` as a chain of single ops: difference,
    square, sum and scale."""
    targets = np.asarray(target_durations)
    log_targets = np.log(targets.astype(np.float64)).astype(predicted_logdur.dtype)
    return ((predicted_logdur - log_targets) ** 2).mean()


@pytest.fixture
def coupling_chain():
    """Oracle for byte-equality tests of ``tensor.affine_coupling``; has the
    signature of ``CouplingBlock.forward`` so it can be patched in for it."""
    return _coupling_chain


@pytest.fixture
def coupling_inverse_chain():
    """Oracle of ``CouplingBlock.inverse``, with its signature."""
    return _coupling_inverse_chain


@pytest.fixture
def synthesize_frame_major():
    """Oracle of ``SynthesisModel.synthesize``, with its signature after
    the model."""
    return _synthesize_frame_major


@pytest.fixture
def log_density_chain():
    """log N(x; mean, std) of a ``Stats``, the chain ``kld_chain`` uses."""
    return _log_density_chain


@pytest.fixture
def kld_chain():
    """Oracle of ``losses.kld_prior_loss``, with its signature."""
    return _kld_chain


@pytest.fixture
def duration_chain():
    """Oracle of ``losses.duration_loss``, with its signature."""
    return _duration_chain


def _alignment_score(grid, assignment) -> float:
    """Total grid log-likelihood along an assignment path."""
    return float(grid[assignment, np.arange(grid.shape[1])].sum())


def _durations_to_assignment(durations):
    """Per-frame token indices realizing the given durations."""
    durations = np.asarray(durations, dtype=np.int64)
    return np.repeat(np.arange(len(durations)), durations)


@pytest.fixture
def alignment_score():
    return _alignment_score


@pytest.fixture
def durations_to_assignment():
    return _durations_to_assignment


@pytest.fixture
def upsample_cols():
    """Oracle of ``Conv1d.upsampled``: the zero-stuffed input that it
    convolves without materializing."""
    return _upsample_cols


@pytest.fixture
def pad_cols():
    return _pad_cols


@pytest.fixture
def frame_cols():
    return _frame_cols


@pytest.fixture
def upsampled_chain():
    """Oracle for byte-equality tests of ``tensor.conv1d_upsampled``; has
    the signature of ``Conv1d.upsampled`` so it can be patched in for it."""
    return _upsampled_chain


@pytest.fixture
def conv1d_chain():
    """Oracle for byte-equality tests of ``tensor.conv1d``; has the signature
    of ``Conv1d.__call__`` so it can be patched in for it."""
    return _conv1d_chain


def _per_utterance_step(model, optimizer, items, cfg, step_index, frozen):
    """``train.training_step`` as a loop that runs every encoder and one
    alignment search per utterance; encodings stored on the items are
    ignored."""
    from pptts import align, losses
    from pptts import tensor as tz
    from pptts.model import Stats
    from pptts.seeding import seeded_rng

    include_recon = not any(name.startswith("decoder.") for name in frozen)
    terms = []
    for j, item in enumerate(items):
        rng = seeded_rng(cfg.seed, step_index, j)
        eps = rng.standard_normal(
            (model.config.latent_channels, item.spec.shape[0])
        ).astype(model.np_dtype)
        z, post = model.posterior_encode(item.spec, eps)
        speaker = model.reference_encode(item.mel) if model.config.multi_speaker else None
        z_p, logdet = model.flow_forward(z, speaker)
        hidden, prior = model.token_encode(item.tokens)
        with tz.no_grad():
            grid = align.likelihood_grid(prior.mean.data, prior.std.data, z_p.data)
            grid += align.alignment_log_prior(*grid.shape)
            assignment = align.monotonic_alignment_search([grid])[0]
        durations = align.alignment_to_durations(assignment, item.tokens.size)
        frame_prior = Stats(
            mean=tz.repeat_cols(prior.mean, durations),
            std=tz.repeat_cols(prior.std, durations),
        )
        term = {
            "kld": losses.kld_prior_loss(post, z, z_p, frame_prior, logdet),
            "dur": losses.duration_loss(model.predict_durations(hidden), durations),
        }
        if include_recon:
            wave = model.decode(z, speaker)
            term["recon"] = losses.reconstruction_loss(wave, item.mel, model.audio)
        terms.append(term)

    mean = {}
    for key in terms[0]:
        total = terms[0][key]
        for term in terms[1:]:
            total = total + term[key]
        mean[key] = total * (1.0 / len(terms))
    total = cfg.kld_weight * mean["kld"] + cfg.duration_weight * mean["dur"]
    if include_recon:
        total = total + cfg.mel_weight * mean["recon"]
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    out = {
        "loss_total": float(total.item()),
        "loss_kld": float(mean["kld"].item()),
        "loss_dur": float(mean["dur"].item()),
    }
    if include_recon:
        out["loss_recon"] = float(mean["recon"].item())
    return out


@pytest.fixture
def per_utterance_step():
    """Oracle of ``train.training_step``, with its signature so it can be
    patched in for it."""
    return _per_utterance_step


def _report_by_waves(
    model, entries, codebook=None, provider=None, noise_scale=0.667,
    length_scale=1.0, seed=0,
) -> dict:
    """``evaluate_manifest(...).to_dict()`` with every metric computed from
    the waves: each metric turns the waves it reads into log-mels itself,
    and the token features standardize their own log-mels at the
    provider's config. Assumes a builtin-mel provider whenever a codebook
    is given."""
    from pptts import _kernels
    from pptts.audio import read_wav
    from pptts.data import text_to_phonemes
    from pptts.evaluate import EvalError
    from pptts.features import FrameFeatures, mel_of_waveform
    from pptts.pseudo import merge_runs, quantize

    audio = model.audio

    def mel_distance(ref_wave, gen_wave):
        ref = mel_of_waveform(ref_wave, audio)
        gen = mel_of_waveform(gen_wave, audio)
        frames = min(ref.shape[0], gen.shape[0])
        return float(np.abs(ref[:frames].astype(np.float64) - gen[:frames].astype(np.float64)).mean())

    def speaker_similarity(ref_wave, gen_wave):
        a = model.reference_encode(mel_of_waveform(ref_wave, audio)).data.ravel().astype(np.float64)
        b = model.reference_encode(mel_of_waveform(gen_wave, audio)).data.ravel().astype(np.float64)
        return float(np.dot(a, b) / float(np.linalg.norm(a) * np.linalg.norm(b)))

    def tokens(wave):
        vals = mel_of_waveform(wave, provider.audio)
        if provider.normalize:
            vals = (vals - provider.mean) / provider.std
        feats = FrameFeatures(vals, provider.provider_id, provider.frame_rate_hz)
        return merge_runs(quantize(feats, codebook))[0]

    records, errors = [], []
    for index, entry in enumerate(entries):
        try:
            if not entry.text:
                raise EvalError("entry has no text to synthesize")
            ref_wave, sr = read_wav(entry.audio_path)
            if sr != audio.sample_rate:
                raise ValueError(
                    f"{entry.audio_path}: sample rate {sr} != configured {audio.sample_rate}"
                )
            ids = text_to_phonemes(entry.text)
            ref_mel = None
            if model.config.multi_speaker:
                ref_mel = mel_of_waveform(ref_wave, audio)
            result = model.synthesize(
                ids, noise_scale=noise_scale, length_scale=length_scale,
                ref_mel=ref_mel, seed=seed + index,
            )
            record = {
                "id": entry.id,
                "mel_l1": mel_distance(ref_wave, result.wave),
                "gen_seconds": result.wave.size / audio.sample_rate,
            }
            if model.config.multi_speaker:
                record["speaker_cos"] = speaker_similarity(ref_wave, result.wave)
            if codebook is not None:
                expected, got = tokens(ref_wave), tokens(result.wave)
                dist = _kernels.levenshtein(got, expected)
                record["token_acc"] = 1.0 - dist / max(got.size, expected.size)
            records.append(record)
        except (EvalError, ValueError, OSError) as exc:
            errors.append({"id": entry.id, "error": str(exc)})
    aggregate = {"count": len(records), "error_count": len(errors)}
    for key in ("mel_l1", "speaker_cos", "token_acc"):
        vals = [r[key] for r in records if key in r]
        if vals:
            aggregate[key] = float(np.mean(vals))
    return {"records": records, "errors": errors, "aggregate": aggregate}


@pytest.fixture
def report_by_waves():
    """Oracle of ``evaluate.evaluate_manifest``, returning its report's
    ``to_dict()``."""
    return _report_by_waves


def _render_per_phone(
    text, speaker_index, sample_rate, rng=None, formant_jitter=0.0,
    duration_jitter=0.0, phones=None,
):
    """``synthetic.render_utterance`` with one ``_render_phone`` call per
    phone instance; ``phones`` is accepted and ignored."""
    from pptts import synthetic

    f0 = synthetic.speaker_f0(speaker_index)
    scale = synthetic.speaker_formant_scale(speaker_index)
    parts = [
        synthetic._render_phone(
            ch, f0, sample_rate, rng, formant_jitter, duration_jitter, scale
        )
        for ch in text
    ]
    if not parts:
        raise ValueError("empty text")
    return np.concatenate(parts)


@pytest.fixture
def render_per_phone():
    """Oracle of ``synthetic.render_utterance``, with its signature so it
    can be patched in for it."""
    return _render_per_phone


def _grad_enabled() -> bool:
    from pptts import tensor as tz

    return tz._grad_enabled


@pytest.fixture
def grad_enabled():
    """Whether ``tensor`` records graphs at the moment of the call."""
    return _grad_enabled


def _kmeans_pp_seed(frames, k: int, rng):
    n = len(frames)
    centroids = np.empty((k, frames.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = frames[first]
    d2 = np.square(frames - centroids[0]).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=d2 / total))
        centroids[i] = frames[choice]
        d2 = np.minimum(d2, np.square(frames - centroids[i]).sum(axis=1))
    return centroids


def _lloyd_fit(feature_stream, k: int, seed: int, max_iters: int = 100, tol: float = 1e-6):
    """(codebook, on_iteration values, centroids after each pass) of a fit
    that calls ``_kernels.nearest_centroids`` on every frame every pass."""
    from pptts import _kernels, pseudo

    frames, provider_id = pseudo._collect_frames(feature_stream)
    n, dim = frames.shape
    if n < k or len(np.unique(frames, axis=0)) < k:
        raise ValueError("too few distinct frames")
    centroids = _kmeans_pp_seed(frames, k, np.random.default_rng(seed))
    values, history = [], []
    inertia = np.inf
    for iteration in range(max_iters):
        ids, d2, _ = _kernels.nearest_centroids(frames, centroids)
        counts = np.bincount(ids, minlength=k)
        sums = np.stack(
            [np.bincount(ids, weights=frames[:, j], minlength=k) for j in range(dim)],
            axis=1,
        )
        inertia = 0.0
        for start in range(0, n, pseudo._INERTIA_BLOCK):
            inertia += float(d2[start : start + pseudo._INERTIA_BLOCK].sum())
        worst_idx = int(np.argmax(d2))
        values.append((iteration, inertia))
        new_centroids = centroids.copy()
        filled = counts > 0
        new_centroids[filled] = sums[filled] / counts[filled, None]
        for empty in np.flatnonzero(~filled):
            new_centroids[empty] = frames[worst_idx]
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum(axis=1)).max())
        centroids = new_centroids
        history.append(centroids)
        if shift < tol:
            break
    codebook = pseudo.Codebook(centroids, seed, provider_id, inertia=inertia)
    return codebook, values, history


@pytest.fixture(scope="session")
def kmeans_pp_seed():
    """Oracle of ``pseudo._kmeans_pp_init``: every frame's exact distance
    to every chosen centroid."""
    return _kmeans_pp_seed


@pytest.fixture(scope="session")
def lloyd_fit():
    """Oracle of ``pseudo.train_codebook``: returns ``(codebook, [(pass,
    inertia), ...], [centroids after each pass])``."""
    return _lloyd_fit
