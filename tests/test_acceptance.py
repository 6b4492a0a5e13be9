"""End-to-end acceptance suite.

Each test is one acceptance criterion: numeric-exactness guarantees
(alignment optimality, flow invertibility, gradient correctness, KL spot
checks), pipeline contracts (pseudo-phoneme tooling, the fine-tuning freeze
rules, bit-identical reruns), and two directional micro-experiments showing
that pre-training on unlabeled audio helps a small labeled corpus and that a
multi-speaker model transfers voice from reference audio alone.

A one-line PASS/FAIL summary per criterion is printed at the end of the run
(see conftest.py). Every test carries an explicit wall-clock budget.
"""

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pptts import align
from pptts import tensor as tz
from pptts.audio import read_wav
from pptts.cli import main as cli_main
from pptts.config import (
    AudioConfig,
    CodebookConfig,
    ModelConfig,
    RunConfig,
    TrainConfig,
)
from pptts.data import load_manifest, text_to_phonemes
from pptts.evaluate import speaker_similarity, token_roundtrip_accuracy
from pptts.features import FrameFeatures, build_provider, mel_of_waveform
from pptts.losses import kld_prior_loss
from pptts.model import Stats, SynthesisModel
from pptts.pseudo import expand_runs, merge_runs, quantize, train_codebook
from pptts.synthetic import generate_synthetic_corpus, random_texts
from pptts.tensor import Tensor
from pptts.train import (
    batch_losses,
    load_checkpoint,
    prepare_corpus,
    run_training,
)


# Audio front-end sizes shared by the training-based criteria. Small enough
# that a few thousand optimizer steps fit the stated budgets on one CPU core.
FAST_AUDIO = AudioConfig(
    sample_rate=8000, n_fft=128, hop_length=64, win_length=128, n_mels=10
)
WIDE_AUDIO = AudioConfig(
    sample_rate=8000, n_fft=256, hop_length=64, win_length=128, n_mels=20
)


def micro_model_config(**overrides) -> ModelConfig:
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
    )
    base.update(overrides)
    return ModelConfig(**base)


def unlabeled(entries):
    return [dataclasses.replace(e, text=None) for e in entries]


class Budget:
    """Asserts the test body stayed inside its wall-clock budget."""

    def __init__(self, seconds: float) -> None:
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"


# ---------------------------------------------------------------------------
# 1. Monotonic alignment equals exhaustive search.
# ---------------------------------------------------------------------------


def brute_force_best_score(grid: np.ndarray) -> float:
    """Max total score over all complete monotone alignments, by enumeration.

    A complete monotone alignment of n tokens to t frames is a choice of
    n - 1 boundaries between frames; each token covers at least one frame.
    """
    n, t = grid.shape
    prefix = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(grid, axis=1)], axis=1
    )
    best = -np.inf
    for cuts in itertools.combinations(range(1, t), n - 1):
        bounds = (0, *cuts, t)
        score = sum(
            prefix[j, bounds[j + 1]] - prefix[j, bounds[j]] for j in range(n)
        )
        best = max(best, score)
    return float(best)


def test_criterion_1_alignment_matches_exhaustive_search():
    budget = Budget(30)
    rng = np.random.default_rng(0)
    checked = 0
    for n in range(1, 5):
        for t in range(n, 9):
            for _ in range(200):
                grid = rng.standard_normal((n, t))
                assignment = align.monotonic_alignment_search([grid])[0]
                # The path must be a complete monotone alignment...
                assert assignment.shape == (t,)
                assert assignment[0] == 0 and assignment[-1] == n - 1
                steps = np.diff(assignment)
                assert np.all((steps == 0) | (steps == 1))
                # ...and its score must equal the enumerated optimum.
                score = float(grid[assignment, np.arange(t)].sum())
                assert abs(score - brute_force_best_score(grid)) <= 1e-9
                checked += 1
    assert checked == 26 * 200
    budget.check()


# ---------------------------------------------------------------------------
# 2. Flow invertibility and log-determinant accuracy across checkpoints.
# ---------------------------------------------------------------------------


def _trained_flow_models(tmp_path):
    """Untrained, pre-trained, and fine-tuned models sharing one config."""
    model_cfg = micro_model_config(
        latent_channels=4,
        hidden_channels=12,
        flow_hidden=8,
        pseudo_vocab_size=8,
        dtype="float64",
    )
    man = generate_synthetic_corpus(
        seed=0, n_utts=4, n_speakers=1, out_dir=tmp_path / "corpus",
        sample_rate=8000, alphabet="abcd",
    )
    entries = load_manifest(man)
    provider = build_provider(
        "builtin-mel", FAST_AUDIO, entries=unlabeled(entries), normalize=True
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in unlabeled(entries)), k=6, seed=0
    )
    cfg = RunConfig(
        feature=FAST_AUDIO,
        model=model_cfg,
        train=TrainConfig(
            stage="pretrain", iterations=30, batch_size=2,
            learning_rate=2e-3, seed=0, log_interval=10,
        ),
        codebook=CodebookConfig(k=6, seed=0),
    )
    pre = run_training(
        unlabeled(entries), cfg, tmp_path / "pre",
        codebook=codebook, provider=provider,
    )
    fin_cfg = dataclasses.replace(
        cfg,
        train=dataclasses.replace(
            cfg.train, stage="finetune", iterations=20, learning_rate=1e-3
        ),
    )
    fin = run_training(
        entries, fin_cfg, tmp_path / "fine", init_ckpt=pre.checkpoint_path
    )
    untrained = SynthesisModel(model_cfg, FAST_AUDIO, "pretrain", seed=3)
    return [untrained, pre.model, fin.model]


def _fd_log_det_jacobian(model, z0: np.ndarray, h: float = 1e-6) -> float:
    flat = z0.ravel()
    jac = np.empty((flat.size, flat.size))
    for j in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[j] += h
        minus[j] -= h
        out_p, _ = model.flow_forward(Tensor(plus.reshape(z0.shape)))
        out_m, _ = model.flow_forward(Tensor(minus.reshape(z0.shape)))
        jac[:, j] = (out_p.data.ravel() - out_m.data.ravel()) / (2 * h)
    sign, log_abs_det = np.linalg.slogdet(jac)
    assert sign != 0
    return float(log_abs_det)


def test_criterion_2_flow_invertibility_and_logdet(tmp_path):
    budget = Budget(60)
    models = _trained_flow_models(tmp_path)
    rng = np.random.default_rng(7)
    with tz.no_grad():
        for i in range(100):
            model = models[i % 3]
            frames = int(rng.integers(3, 11))
            z = rng.standard_normal((4, frames))
            z_p, logdet_fwd = model.flow_forward(Tensor(z))
            z_back, logdet_inv = model.flow_inverse(z_p)
            assert np.max(np.abs(z_back.data - z)) < 1e-4
            assert abs(float(logdet_fwd.item()) + float(logdet_inv.item())) < 1e-4

        for model in models:
            z0 = rng.standard_normal((4, 3))
            _, logdet = model.flow_forward(Tensor(z0))
            analytic = float(logdet.item())
            numeric = _fd_log_det_jacobian(model, z0)
            assert abs(analytic - numeric) <= 1e-3 * max(1.0, abs(numeric))
    budget.check()


# ---------------------------------------------------------------------------
# 3. Analytic gradients of the full pre-training loss match finite
#    differences.
# ---------------------------------------------------------------------------


def test_criterion_3_pretraining_loss_gradcheck(tmp_path):
    budget = Budget(120)
    model_cfg = micro_model_config(
        latent_channels=4,
        hidden_channels=12,
        flow_hidden=8,
        pseudo_vocab_size=8,
        dtype="float64",
    )
    man = generate_synthetic_corpus(
        seed=0, n_utts=2, n_speakers=1, out_dir=tmp_path / "corpus",
        sample_rate=8000, alphabet="ab",
    )
    entries = unlabeled(load_manifest(man))
    provider = build_provider(
        "builtin-mel", FAST_AUDIO, entries=entries, normalize=True
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in entries), k=5, seed=0
    )
    cfg = RunConfig(
        feature=FAST_AUDIO,
        model=model_cfg,
        train=TrainConfig(
            stage="pretrain", iterations=1, batch_size=1,
            learning_rate=1e-3, seed=0,
        ),
        codebook=CodebookConfig(k=5, seed=0),
    )
    item = prepare_corpus(entries, cfg, "pretrain", codebook=codebook,
                          provider=provider)[0]
    model = SynthesisModel(model_cfg, FAST_AUDIO, "pretrain", seed=1)
    rng = np.random.default_rng(11)
    eps = rng.standard_normal((model_cfg.latent_channels, item.spec.shape[0]))
    tcfg = cfg.train

    def total_loss() -> Tensor:
        losses = batch_losses(model, [item], [eps], include_recon=True)[0]
        return (
            tcfg.kld_weight * losses["kld"]
            + tcfg.duration_weight * losses["dur"]
            + tcfg.mel_weight * losses["recon"]
        )

    model.zero_grad()
    total_loss().backward()
    params = dict(model.named_parameters())
    names = sorted(params)
    flat_indices = [(n, i) for n in names for i in range(params[n].data.size)]
    picks = rng.choice(len(flat_indices), size=20, replace=False)

    for pick in picks:
        name, idx = flat_indices[int(pick)]
        tensor = params[name]
        analytic = float(tensor.grad.ravel()[idx])
        original = float(tensor.data.ravel()[idx])
        h = 1e-5 * max(1.0, abs(original))
        with tz.no_grad():
            tensor.data.ravel()[idx] = original + h
            loss_plus = float(total_loss().item())
            tensor.data.ravel()[idx] = original - h
            loss_minus = float(total_loss().item())
            tensor.data.ravel()[idx] = original
        numeric = (loss_plus - loss_minus) / (2 * h)
        scale = max(abs(analytic), abs(numeric))
        # Combined tolerance: below ~1e-9 the central difference is pure
        # float64 roundoff (eps * |loss| / 2h), so a relative bound alone
        # would compare noise against noise.
        assert abs(analytic - numeric) < 1e-9 + 1e-3 * scale, (
            f"{name}[{idx}]: analytic {analytic:.6e} vs numeric {numeric:.6e}"
        )
    budget.check()


# ---------------------------------------------------------------------------
# 4. Pseudo-phoneme pipeline: clustering purity, monotone inertia, and
#    merge/expand round trips.
# ---------------------------------------------------------------------------


def test_criterion_4_pseudo_phoneme_pipeline():
    budget = Budget(60)
    rng = np.random.default_rng(0)
    n_clusters, per_cluster, dim = 128, 20, 6
    centers = rng.normal(scale=60.0, size=(n_clusters, dim))
    points = np.concatenate(
        [rng.normal(loc=c, scale=0.5, size=(per_cluster, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(n_clusters), per_cluster)

    inertias: list[float] = []
    stream = [FrameFeatures(values=points, provider_id="blobs", frame_rate_hz=1.0)]
    codebook = train_codebook(
        iter(stream), k=n_clusters, seed=0,
        on_iteration=lambda it, inertia: inertias.append(inertia),
    )

    assigned = quantize(stream[0], codebook)
    purity_hits = 0
    for cluster in range(n_clusters):
        members = labels[assigned == cluster]
        if members.size:
            purity_hits += np.bincount(members).max()
    purity = purity_hits / labels.size
    assert purity >= 0.99

    assert len(inertias) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    for _ in range(1000):
        ids = rng.integers(0, 16, size=rng.integers(1, 60)).astype(np.int64)
        tokens, durations = merge_runs(ids)
        assert np.all(tokens[1:] != tokens[:-1])
        np.testing.assert_array_equal(expand_runs((tokens, durations)), ids)
    budget.check()


# ---------------------------------------------------------------------------
# 5. Fine-tuning freeze contract.
# ---------------------------------------------------------------------------


def test_criterion_5_finetune_freeze_contract(tmp_path):
    budget = Budget(180)
    model_cfg = micro_model_config(multi_speaker=True)
    pre_man = generate_synthetic_corpus(
        seed=0, n_utts=16, n_speakers=4, out_dir=tmp_path / "pre_c",
        sample_rate=8000, alphabet="abcd",
    )
    lab_man = generate_synthetic_corpus(
        seed=1, n_utts=4, n_speakers=1, out_dir=tmp_path / "lab_c",
        sample_rate=8000, alphabet="abcd",
    )
    pre_entries = unlabeled(load_manifest(pre_man))
    provider = build_provider(
        "builtin-mel", FAST_AUDIO, entries=pre_entries, normalize=True
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in pre_entries), k=6, seed=0
    )
    cfg = RunConfig(
        feature=FAST_AUDIO,
        model=model_cfg,
        train=TrainConfig(
            stage="pretrain", iterations=40, batch_size=2,
            learning_rate=2e-3, seed=0, log_interval=10,
        ),
        codebook=CodebookConfig(k=6, seed=0),
    )
    pre = run_training(
        pre_entries, cfg, tmp_path / "pre", codebook=codebook, provider=provider
    )
    fin_cfg = dataclasses.replace(
        cfg,
        train=dataclasses.replace(
            cfg.train, stage="finetune", iterations=300, learning_rate=1e-3
        ),
    )
    fin = run_training(
        load_manifest(lab_man), fin_cfg, tmp_path / "fine",
        init_ckpt=pre.checkpoint_path,
    )

    frozen_prefixes = ("posterior.", "decoder.", "reference.")
    pre_params = load_checkpoint(pre.checkpoint_path).params
    checked = 0
    for name, tensor in fin.model.named_parameters():
        if name.startswith(frozen_prefixes):
            assert tensor.data.tobytes() == pre_params[name].tobytes(), name
            checked += 1
    assert checked > 0

    assert fin.decoder_calls == 0

    lines = Path(fin.metrics_path).read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        loss_keys = {k for k in record if k.startswith("loss_")}
        assert loss_keys == {"loss_total", "loss_kld", "loss_dur"}
    budget.check()


# ---------------------------------------------------------------------------
# 6. Pre-training on unlabeled audio beats training from scratch on a small
#    labeled corpus: lower validation loss and higher token round-trip
#    accuracy on held-out texts, for a majority of seeds.
# ---------------------------------------------------------------------------

TRANSFER_MODEL = ModelConfig(
    latent_channels=8,
    hidden_channels=16,
    flow_blocks=2,
    flow_hidden=12,
    duration_hidden=8,
    decoder_channels=16,
    text_vocab_size=28,
    pseudo_vocab_size=16,
    speaker_embed_dim=6,
)
TRANSFER_ALPHABET = "abcdefgh"
# Per-utterance random formant/length perturbations: four labeled recordings
# undersample the acoustic variation, which is exactly the regime where
# unlabeled pre-training should pay off.
FORMANT_JITTER, DURATION_JITTER = 0.05, 0.15


def _transfer_texts() -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(123)
    texts: list[str] = []
    seen: set[str] = set()
    while len(texts) < 72:
        t = random_texts(rng, 1, alphabet=TRANSFER_ALPHABET,
                         words=(1, 1), word_len=(2, 4))[0]
        if t not in seen:
            seen.add(t)
            texts.append(t)
    return texts[:64], texts[64:72]


def _transfer_corpora(root: Path):
    pretrain_texts, val_texts = _transfer_texts()
    labeled_texts = ["abcd", "efgh", "adg", "beh"]
    pre_man = generate_synthetic_corpus(
        seed=0, n_utts=64, n_speakers=1, out_dir=root / "pre_c",
        sample_rate=8000, alphabet=TRANSFER_ALPHABET, texts=pretrain_texts,
        formant_jitter=FORMANT_JITTER, duration_jitter=DURATION_JITTER,
    )
    lab_man = generate_synthetic_corpus(
        seed=1, n_utts=4, n_speakers=1, out_dir=root / "lab_c",
        sample_rate=8000, alphabet=TRANSFER_ALPHABET, texts=labeled_texts,
        formant_jitter=FORMANT_JITTER, duration_jitter=DURATION_JITTER,
    )
    val_man = generate_synthetic_corpus(
        seed=2, n_utts=8, n_speakers=1, out_dir=root / "val_c",
        sample_rate=8000, alphabet=TRANSFER_ALPHABET, texts=val_texts,
    )
    return pre_man, lab_man, val_man


def _validation_losses(model, entries, cfg) -> float:
    """Mean latent-prior KLD plus duration loss over a held-out set."""
    items = prepare_corpus(entries, cfg, "finetune")
    totals = []
    for item in items:
        with tz.no_grad():
            losses = batch_losses(model, [item], [0.0], include_recon=False)[0]
        totals.append(float(losses["kld"].item()) + float(losses["dur"].item()))
    return float(np.mean(totals))


def _mean_token_accuracy(model, entries, codebook, provider) -> float:
    """Token round-trip accuracy of noise-free synthesis vs reference audio."""
    scores = []
    for entry in entries:
        result = model.synthesize(
            text_to_phonemes(entry.text), seed=0, noise_scale=0.0
        )
        reference, _ = merge_runs(
            quantize(provider.features_for(entry), codebook)
        )
        scores.append(
            token_roundtrip_accuracy(
                provider.features_for_wave(result.wave), reference, codebook
            )
        )
    return float(np.mean(scores))


@pytest.mark.slow
def test_criterion_6_transfer_beats_from_scratch(tmp_path):
    budget = Budget(900)
    pre_man, lab_man, val_man = _transfer_corpora(tmp_path)
    pre_entries = unlabeled(load_manifest(pre_man))
    lab_entries = load_manifest(lab_man)
    val_entries = load_manifest(val_man)
    provider = build_provider(
        "builtin-mel", WIDE_AUDIO, entries=pre_entries, normalize=True
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in pre_entries), k=9, seed=0
    )

    wins = 0
    rows = []
    for seed in (0, 1, 2):
        pre_cfg = RunConfig(
            feature=WIDE_AUDIO,
            model=TRANSFER_MODEL,
            train=TrainConfig(
                stage="pretrain", iterations=2000, batch_size=4,
                learning_rate=2e-3, seed=seed, log_interval=1000,
            ),
            codebook=CodebookConfig(k=9, seed=0),
        )
        pre = run_training(
            pre_entries, pre_cfg, tmp_path / f"pre{seed}",
            codebook=codebook, provider=provider,
        )
        fin_cfg = dataclasses.replace(
            pre_cfg,
            train=dataclasses.replace(
                pre_cfg.train, stage="finetune", iterations=300,
                learning_rate=1e-3, scratch_lr_multiplier=5.0,
            ),
        )
        transfer = run_training(
            lab_entries, fin_cfg, tmp_path / f"fine{seed}",
            init_ckpt=pre.checkpoint_path,
        )
        scratch_cfg = dataclasses.replace(
            pre_cfg,
            train=dataclasses.replace(
                pre_cfg.train, stage="finetune", iterations=2300,
                learning_rate=2e-3, from_scratch=True,
            ),
        )
        scratch = run_training(lab_entries, scratch_cfg, tmp_path / f"scr{seed}")

        transfer_loss = _validation_losses(transfer.model, val_entries, fin_cfg)
        scratch_loss = _validation_losses(scratch.model, val_entries, scratch_cfg)
        transfer_acc = _mean_token_accuracy(
            transfer.model, val_entries, codebook, provider
        )
        scratch_acc = _mean_token_accuracy(
            scratch.model, val_entries, codebook, provider
        )
        won = transfer_loss < scratch_loss and transfer_acc > scratch_acc
        wins += won
        rows.append(
            f"seed {seed}: val loss transfer {transfer_loss:.3f} vs scratch "
            f"{scratch_loss:.3f}; token acc transfer {transfer_acc:.3f} vs "
            f"scratch {scratch_acc:.3f}; {'won' if won else 'lost'}"
        )

    report = "\n".join(rows)
    print(report)
    assert wins >= 2, f"transfer won only {wins} of 3 seeds\n{report}"
    budget.check()


# ---------------------------------------------------------------------------
# 7. Voice transfer from reference audio alone: after fine-tuning on a single
#    speaker, synthesis conditioned on a held-out voice still lands closer to
#    that voice than to a different held-out voice.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_reference_voice_transfer(tmp_path):
    budget = Budget(1200)
    model_cfg = dataclasses.replace(TRANSFER_MODEL, multi_speaker=True)
    rng = np.random.default_rng(123)
    pre_texts = random_texts(rng, 64, alphabet=TRANSFER_ALPHABET,
                             words=(1, 1), word_len=(2, 4))
    pre_man = generate_synthetic_corpus(
        seed=0, n_utts=64, n_speakers=8, out_dir=tmp_path / "pre_c",
        sample_rate=8000, alphabet=TRANSFER_ALPHABET, texts=pre_texts,
    )
    lab_man = generate_synthetic_corpus(
        seed=1, n_utts=4, n_speakers=1, out_dir=tmp_path / "lab_c",
        sample_rate=8000, alphabet=TRANSFER_ALPHABET,
        texts=["abcd", "efgh", "adg", "beh"],
    )
    # Two utterances per held-out voice: the first conditions synthesis, the
    # second is the comparison target. The target text is also the text that
    # gets synthesized, so the same-voice and cross-voice targets carry
    # identical content and differ only in voice; and same-voice similarity
    # is never a comparison of a wave with its own conditioning audio.
    held_out = {}
    for key, speaker_idx, seed in (("a", 9, 5), ("b", 10, 6)):
        man = generate_synthetic_corpus(
            seed=seed, n_utts=2, n_speakers=1, out_dir=tmp_path / f"ref_{key}",
            sample_rate=8000, alphabet=TRANSFER_ALPHABET,
            texts=["dgb", "aeh"], speaker_indices=[speaker_idx],
        )
        waves = [read_wav(e.audio_path)[0] for e in load_manifest(man)]
        held_out[key] = waves

    pre_entries = unlabeled(load_manifest(pre_man))
    provider = build_provider(
        "builtin-mel", WIDE_AUDIO, entries=pre_entries, normalize=True
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in pre_entries), k=9, seed=0
    )
    pre_cfg = RunConfig(
        feature=WIDE_AUDIO,
        model=model_cfg,
        train=TrainConfig(
            stage="pretrain", iterations=2000, batch_size=4,
            learning_rate=2e-3, seed=0, log_interval=1000,
        ),
        codebook=CodebookConfig(k=9, seed=0),
    )
    pre = run_training(
        pre_entries, pre_cfg, tmp_path / "pre",
        codebook=codebook, provider=provider,
    )
    fin_cfg = dataclasses.replace(
        pre_cfg,
        train=dataclasses.replace(
            pre_cfg.train, stage="finetune", iterations=300,
            learning_rate=1e-3, scratch_lr_multiplier=5.0,
        ),
    )
    fin = run_training(
        load_manifest(lab_man), fin_cfg, tmp_path / "fine",
        init_ckpt=pre.checkpoint_path,
    )
    model = fin.model

    same, cross = [], []
    for key in ("a", "b"):
        other = "b" if key == "a" else "a"
        ref_mel = mel_of_waveform(held_out[key][0], WIDE_AUDIO)
        result = model.synthesize(
            text_to_phonemes("aeh"), seed=0, noise_scale=0.0, ref_mel=ref_mel
        )
        gen_mel = mel_of_waveform(result.wave, model.audio)
        same_mel = mel_of_waveform(held_out[key][1], model.audio)
        cross_mel = mel_of_waveform(held_out[other][1], model.audio)
        same_emb = model.reference_encode(same_mel).data
        cross_emb = model.reference_encode(cross_mel).data
        same.append(speaker_similarity(same_emb, gen_mel, model))
        cross.append(speaker_similarity(cross_emb, gen_mel, model))

    same_mean, cross_mean = float(np.mean(same)), float(np.mean(cross))
    report = "\n".join(
        f"voice {key}: same {s:.4f} vs cross {c:.4f}"
        for key, s, c in zip(("a", "b"), same, cross)
    )
    print(report)
    assert same_mean >= cross_mean + 0.05, (
        f"same-voice {same_mean:.4f} vs cross-voice {cross_mean:.4f}\n{report}"
    )
    budget.check()


# ---------------------------------------------------------------------------
# 8. Bit-identical reruns of training and synthesis through the CLI.
# ---------------------------------------------------------------------------


def test_criterion_8_bit_identical_reruns(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "feature": {
            "sample_rate": 8000, "n_fft": 128, "hop_length": 64,
            "win_length": 128, "n_mels": 10,
        },
        "model": {
            "latent_channels": 8, "hidden_channels": 16, "flow_blocks": 2,
            "flow_hidden": 12, "duration_hidden": 8, "decoder_channels": 12,
            "pseudo_vocab_size": 11,
        },
        "codebook": {"k": 6},
        "train": {"log_interval": 1},
    }))

    def run(*argv) -> int:
        return cli_main([str(a) for a in argv])

    corpus = tmp_path / "corpus"
    assert run("make-synthetic", "--out-dir", corpus, "--n-utts", 5,
               "--seed", 0, "--sample-rate", 8000, "--alphabet", "abcd") == 0
    manifest = corpus / "manifest.jsonl"
    codebook = tmp_path / "codebook.txt"
    assert run("codebook", "--config", config_path, "--manifest", manifest,
               "--out", codebook) == 0

    outputs: list[dict[str, bytes]] = []
    for attempt in ("one", "two"):
        root = tmp_path / attempt
        pre_dir, fine_dir = root / "pre", root / "fine"
        assert run("pretrain", "--config", config_path, "--manifest", manifest,
                   "--codebook", codebook, "--out-dir", pre_dir,
                   "--iterations", 4, "--batch-size", 2, "--seed", 0) == 0
        assert run("finetune", "--config", config_path, "--manifest", manifest,
                   "--init-ckpt", pre_dir / "model_final.ckpt",
                   "--out-dir", fine_dir,
                   "--iterations", 4, "--batch-size", 2, "--seed", 0) == 0
        wav = root / "out.wav"
        assert run("synthesize", "--ckpt", fine_dir / "model_final.ckpt",
                   "--text", "abcd", "--out", wav, "--seed", 3) == 0
        outputs.append({
            "pre_metrics": (pre_dir / "metrics.jsonl").read_bytes(),
            "pre_ckpt": (pre_dir / "model_final.ckpt").read_bytes(),
            "fine_metrics": (fine_dir / "metrics.jsonl").read_bytes(),
            "fine_ckpt": (fine_dir / "model_final.ckpt").read_bytes(),
            "wav": wav.read_bytes(),
        })

    first, second = outputs
    for key in first:
        assert first[key] == second[key], f"rerun changed {key}"


# ---------------------------------------------------------------------------
# 9. Closed-form spot checks of the latent KL divergence.
# ---------------------------------------------------------------------------


def test_criterion_9_kld_closed_form_spot_checks():
    def stats_of(mean, std) -> Stats:
        return Stats(
            Tensor(np.asarray(mean, dtype=np.float64)),
            Tensor(np.asarray(std, dtype=np.float64)),
        )

    # Identical posterior and prior, sample at the mean, identity flow: the
    # two log-densities cancel exactly, so the divergence estimate is 0.
    rng = np.random.default_rng(1)
    mean = rng.normal(size=(3, 5))
    std = rng.uniform(0.5, 2.0, size=(3, 5))
    z = Tensor(mean.copy())
    loss = kld_prior_loss(
        stats_of(mean, std), z, z, stats_of(mean.copy(), std.copy()),
        Tensor(np.asarray(0.0)),
    )
    assert float(loss.item()) == 0.0

    # Posterior N(1,1), prior N(0,1), evaluated at z = 1, identity flow:
    # log q - log p = 0.5 for every element.
    shape = (2, 4)
    ones = Tensor(np.ones(shape))
    loss = kld_prior_loss(
        stats_of(np.ones(shape), np.ones(shape)), ones, ones,
        stats_of(np.zeros(shape), np.ones(shape)), Tensor(np.asarray(0.0)),
    )
    assert float(loss.item()) == 0.5
