"""The four benchmark workloads: set-up, one closed-loop operation, checks.

Sizes are those of acceptance criteria 6 and 7 (``WIDE_AUDIO`` and
``TRANSFER_MODEL`` in ``tests/test_acceptance.py``), restated here because
the benchmark does not import the tests.

Every operation starts from the same state, so repeating it must repeat its
outputs bit for bit; each workload checks that and reports one digest of
its outputs that runs of the same code and seed can compare exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pptts import evaluate, pseudo, synthetic, train
from pptts.config import AudioConfig, CodebookConfig, ModelConfig, RunConfig, TrainConfig
from pptts.data import load_manifest
from pptts.features import build_provider
from pptts.model import SynthesisModel

AUDIO = AudioConfig(sample_rate=8000, n_fft=256, hop_length=64, win_length=128, n_mels=20)
MODEL = ModelConfig(
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
MULTI_SPEAKER_MODEL = dataclasses.replace(MODEL, multi_speaker=True)
ALPHABET = "abcdefgh"
LABELED_TEXTS = ["abcd", "efgh", "adg", "beh"]
FORMANT_JITTER, DURATION_JITTER = 0.05, 0.15
HELD_OUT_SPEAKERS = [9, 10, 11, 12]
SERVED_MODEL_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run."""

    pretrain_utts: int = 64
    pretrain_k: int = 9
    steps_per_pretrain_op: int = 25
    steps_per_finetune_op: int = 50
    # Fine-tune steps before serving: enough that the duration predictor
    # emits about as many frames as the recordings have.
    synth_finetune_steps: int = 300
    synth_requests: int = 96
    codebook_utts: int = 256
    codebook_speakers: int = 8
    codebook_k: int = 64
    lloyd_passes: int = 32  # per k-means fit, set-up fits included
    # Set-up runs at least ``setups`` times and until ``setup_seconds`` have
    # passed, so that the median of a short set-up is steady too.
    setups: int = 3
    setup_seconds: float = 1.0


FULL = Scale()
TOY = Scale(
    pretrain_utts=8,
    pretrain_k=4,
    steps_per_pretrain_op=2,
    steps_per_finetune_op=2,
    synth_finetune_steps=2,
    synth_requests=3,
    codebook_utts=12,
    codebook_speakers=2,
    codebook_k=6,
    lloyd_passes=3,
    setups=2,
    setup_seconds=0.0,
)


@dataclass
class OpResult:
    """Timed units of one operation and what its checks found."""

    unit_ms: list[float] = field(default_factory=list)
    work: float = 0.0  # utterances, seconds of audio or frames assigned
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    fit_s: float | None = None  # codebook only: one whole train_codebook call


def _texts(rng: np.random.Generator, n: int, words: tuple[int, ...]) -> list[str]:
    """Text i has ``words[i % len(words)]`` words; word lengths cycle 2, 3,
    4, so every seed renders about the same amount of audio."""
    letters = list(ALPHABET)
    texts = []
    for i in range(n):
        count = words[i % len(words)]
        texts.append(
            " ".join(
                "".join(rng.choice(letters, size=2 + (i + w) % 3)) for w in range(count)
            )
        )
    return texts


def _corpus(out_dir: Path, seed: int, texts: list[str], speakers: list[int], jitter=False):
    """Render a corpus; ``jitter`` gives each utterance its own formant and
    duration perturbation, as in acceptance criterion 6."""
    manifest = synthetic.generate_synthetic_corpus(
        seed=seed,
        n_utts=len(texts),
        n_speakers=len(speakers),
        out_dir=out_dir,
        sample_rate=AUDIO.sample_rate,
        alphabet=ALPHABET,
        texts=texts,
        speaker_indices=speakers,
        formant_jitter=FORMANT_JITTER if jitter else 0.0,
        duration_jitter=DURATION_JITTER if jitter else 0.0,
    )
    return load_manifest(manifest)


def _fit_codebook(features, k: int, seed: int, scale: Scale, on_iteration=None):
    """k-means with a fixed number of Lloyd passes: a zero tolerance makes
    every fit run all of them, so its work does not depend on when it
    converges."""
    return pseudo.train_codebook(
        iter(features), k=k, seed=seed, max_iters=scale.lloyd_passes, tol=0.0, on_iteration=on_iteration
    )


def _unlabeled(entries):
    return [dataclasses.replace(e, text=None) for e in entries]


def _finite_losses(metrics_path: Path, expected_keys: set[str], steps: int) -> list[str]:
    errors = []
    lines = metrics_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != steps:
        errors.append(f"{len(lines)} logged steps, expected {steps}")
    for line in lines:
        record = json.loads(line)
        if set(record) != expected_keys:
            errors.append(f"logged keys {sorted(record)} != {sorted(expected_keys)}")
            break
        bad = [k for k, v in record.items() if k.startswith("loss_") and not math.isfinite(v)]
        if bad:
            errors.append(f"non-finite {bad} at iter {record['iter']}")
            break
    return errors


def _file_digest(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


@contextlib.contextmanager
def _step_timer(result: OpResult):
    """Time every ``train.training_step`` call made by ``run_training``."""
    inner = train.training_step

    def timed(model, optimizer, items, *args, **kwargs):
        t0 = time.perf_counter()
        out = inner(model, optimizer, items, *args, **kwargs)
        result.unit_ms.append((time.perf_counter() - t0) * 1e3)
        result.work += len(items)
        return out

    train.training_step = timed
    try:
        yield
    finally:
        train.training_step = inner


class Workload:
    """Set up once in the constructor; ``run_op`` is one closed-loop
    operation, made of ``units_per_op`` timed units named by ``unit``."""

    unit = "op"
    units_per_op = 1

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.digests: dict[object, str] = {}

    def _record_digest(self, key, digest: str, result: OpResult) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            result.errors.append(f"output of {key!r} changed on repeat: {digest[:12]} != {first[:12]}")

    def digest(self) -> str:
        joined = "".join(f"{k}:{v};" for k, v in sorted(self.digests.items(), key=str))
        return hashlib.sha256(joined.encode()).hexdigest()

    def run_op(self) -> OpResult:
        raise NotImplementedError


class Pretrain(Workload):
    """``train.run_training`` at stage pretrain on a 64-utterance corpus."""

    unit = "step"

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.units_per_op = scale.steps_per_pretrain_op
        rng = np.random.default_rng([seed, 0])
        texts = _texts(rng, scale.pretrain_utts, words=(1,))
        self.entries = _unlabeled(_corpus(workdir / "corpus", seed, texts, [0], jitter=True))
        self.provider = build_provider("builtin-mel", AUDIO, entries=self.entries, normalize=True)
        self.codebook = _fit_codebook(
            [self.provider.features_for(e) for e in self.entries], scale.pretrain_k, seed, scale
        )
        self.cfg = RunConfig(
            feature=AUDIO,
            model=MODEL,
            train=TrainConfig(
                stage="pretrain",
                iterations=self.units_per_op,
                batch_size=4,
                learning_rate=2e-3,
                seed=seed,
                log_interval=1,
            ),
            codebook=CodebookConfig(k=scale.pretrain_k, seed=seed),
        )

    def run_op(self) -> OpResult:
        result = OpResult()
        with _step_timer(result):
            run = train.run_training(
                self.entries,
                self.cfg,
                self.workdir / "run",
                codebook=self.codebook,
                provider=self.provider,
            )
        keys = {"iter", "lr", "loss_total", "loss_kld", "loss_dur", "loss_recon"}
        result.errors += _finite_losses(run.metrics_path, keys, self.units_per_op)
        rebuilt = train.build_model_from_checkpoint(train.load_checkpoint(run.checkpoint_path))
        trained = dict(run.model.named_parameters())
        loaded = dict(rebuilt.named_parameters())
        if set(trained) != set(loaded):
            result.errors.append("checkpoint round trip changed the parameter names")
        else:
            changed = [n for n in trained if trained[n].data.tobytes() != loaded[n].data.tobytes()]
            if changed:
                result.errors.append(f"checkpoint round trip changed {changed[:3]}")
        self._record_digest("run", _file_digest(run.metrics_path, run.checkpoint_path), result)
        return result


class Finetune(Workload):
    """``train.run_training`` at stage finetune from a pretrain checkpoint.

    The decoder is frozen and never called, so decoder changes must not
    move this workload.
    """

    unit = "step"
    FROZEN = ("posterior.", "decoder.", "reference.")

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.units_per_op = scale.steps_per_finetune_op
        self.entries, self.init_ckpt, self.cfg = _finetune_setup(
            seed, workdir, self.units_per_op
        )
        params = train.load_checkpoint(self.init_ckpt).params
        self.frozen = {n: v.tobytes() for n, v in params.items() if n.startswith(self.FROZEN)}

    def run_op(self) -> OpResult:
        result = OpResult()
        with _step_timer(result):
            run = train.run_training(
                self.entries, self.cfg, self.workdir / "run", init_ckpt=self.init_ckpt
            )
        keys = {"iter", "lr", "loss_total", "loss_kld", "loss_dur"}
        result.errors += _finite_losses(run.metrics_path, keys, self.units_per_op)
        if run.decoder_calls != 0:
            result.errors.append(f"frozen decoder was called {run.decoder_calls} times")
        params = dict(run.model.named_parameters())
        moved = [n for n, raw in self.frozen.items() if params[n].data.tobytes() != raw]
        if moved:
            result.errors.append(f"frozen parameters changed: {moved[:3]}")
        self._record_digest("run", _file_digest(run.metrics_path, run.checkpoint_path), result)
        return result


def _finetune_setup(seed: int, workdir: Path, steps: int):
    """Labeled corpus, a pretrain-mode checkpoint and the finetune config."""
    entries = _corpus(workdir / "labeled", seed + 1, LABELED_TEXTS, [0])
    ckpt = workdir / "pretrained.ckpt"
    train.save_checkpoint(
        SynthesisModel(MULTI_SPEAKER_MODEL, AUDIO, "pretrain", seed=seed), ckpt, stage="pretrain", seed=seed
    )
    cfg = RunConfig(
        feature=AUDIO,
        model=MULTI_SPEAKER_MODEL,
        train=TrainConfig(
            stage="finetune",
            iterations=steps,
            batch_size=4,
            learning_rate=1e-3,
            scratch_lr_multiplier=5.0,
            seed=seed,
            log_interval=1,
        ),
    )
    return entries, ckpt, cfg


class Synthesize(Workload):
    """One request: ``evaluate.evaluate_manifest`` on one held-out entry,
    which synthesizes from its text and reference voice and scores it."""

    unit = "request"

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        rng = np.random.default_rng([seed, 2])
        unlabeled = _unlabeled(
            _corpus(workdir / "unlabeled", seed, _texts(rng, scale.pretrain_utts, (1,)), list(range(8)))
        )
        self.provider = build_provider("builtin-mel", AUDIO, entries=unlabeled, normalize=True)
        self.codebook = _fit_codebook(
            [self.provider.features_for(e) for e in unlabeled], scale.pretrain_k, seed, scale
        )
        # The served model is trained from a fixed seed: after fine-tuning on
        # four single words its durations for held-out multi-word texts
        # depend strongly on the training seed, and so would the cost of a
        # request. The workload seed picks the requests and voices.
        entries, ckpt, cfg = _finetune_setup(SERVED_MODEL_SEED, workdir, scale.synth_finetune_steps)
        self.model = train.run_training(entries, cfg, workdir / "finetune", init_ckpt=ckpt).model
        self.requests = _corpus(
            workdir / "requests",
            seed + 3,
            _texts(rng, scale.synth_requests, words=(2, 3, 4)),
            HELD_OUT_SPEAKERS,
        )
        self.next = 0
        self.captured: list = []
        model = self.model

        def synthesize(*args, **kwargs):
            out = type(model).synthesize(model, *args, **kwargs)
            self.captured.append(out)
            return out

        # An instance attribute, so the wave and durations evaluate_manifest
        # discards stay visible to the checks.
        model.synthesize = synthesize

    def run_op(self) -> OpResult:
        result = OpResult()
        index = self.next % len(self.requests)
        self.next += 1
        self.captured.clear()
        t0 = time.perf_counter()
        report = evaluate.evaluate_manifest(
            self.model,
            [self.requests[index]],
            codebook=self.codebook,
            provider=self.provider,
            seed=self.seed * 1000 + index,
        )
        result.unit_ms.append((time.perf_counter() - t0) * 1e3)
        result.errors += [f"{e['id']}: {e['error']}" for e in report.errors]
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
        for out in self.captured:
            wave = out.wave
            result.work += wave.size / AUDIO.sample_rate
            if not np.all(np.isfinite(wave)):
                result.errors.append(f"request {index}: non-finite wave")
            expected = int(out.durations.sum()) * AUDIO.hop_length
            if wave.size != expected:
                result.errors.append(f"request {index}: {wave.size} samples, expected {expected}")
            digest.update(wave.tobytes())
        if len(self.captured) != 1:
            result.errors.append(f"request {index}: {len(self.captured)} syntheses, expected 1")
        self._record_digest(index, digest.hexdigest(), result)
        return result


class Codebook(Workload):
    """``pseudo.train_codebook`` with k=64 over ~10.7k frames, then
    ``quantize`` and ``merge_runs`` for every utterance.

    The timed unit is one Lloyd pass, from one ``on_iteration`` call to the
    next (the first includes the k-means++ initialization): a fit takes
    seconds, so a run holds too few fits for a tail percentile.
    """

    unit = "pass"

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.units_per_op = scale.lloyd_passes
        rng = np.random.default_rng([seed, 4])
        speakers = list(range(scale.codebook_speakers))
        entries = _corpus(workdir / "corpus", seed, _texts(rng, scale.codebook_utts, (1,)), speakers)
        provider = build_provider("builtin-mel", AUDIO, entries=entries, normalize=True)
        self.features = [provider.features_for(e) for e in entries]
        self.frames = sum(f.values.shape[0] for f in self.features)

    def run_op(self) -> OpResult:
        result = OpResult()
        k = self.scale.codebook_k
        inertia: list[float] = []
        marks = [time.perf_counter()]

        def on_iteration(_, value):
            marks.append(time.perf_counter())
            inertia.append(value)

        codebook = _fit_codebook(self.features, k, self.seed, self.scale, on_iteration)
        result.fit_s = time.perf_counter() - marks[0]
        result.unit_ms = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        result.work = self.frames * len(inertia)
        result.counts["lloyd_passes"] = len(inertia)
        digest = hashlib.sha256(codebook.centroids.tobytes())
        for feats in self.features:
            ids = pseudo.quantize(feats, codebook)
            if ids.size and (ids.min() < 0 or ids.max() >= k):
                result.errors.append(f"ids outside [0, {k})")
            if not np.array_equal(pseudo.expand_runs(pseudo.merge_runs(ids)), ids):
                result.errors.append("expand_runs(merge_runs(ids)) != ids")
            digest.update(ids.tobytes())
        rises = [i for i in range(1, len(inertia)) if inertia[i] > inertia[i - 1] * (1 + 1e-9) + 1e-9]
        if rises:
            result.errors.append(f"inertia rose at passes {rises[:3]}")
        if len(inertia) != self.scale.lloyd_passes:
            result.errors.append(f"{len(inertia)} Lloyd passes, expected {self.scale.lloyd_passes}")
        self._record_digest("fit", digest.hexdigest(), result)
        return result


WORKLOADS = {
    "pretrain": Pretrain,
    "finetune": Finetune,
    "synthesize": Synthesize,
    "codebook": Codebook,
}
