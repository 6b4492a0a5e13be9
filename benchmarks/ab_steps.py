#!/usr/bin/env python3
"""Interleaved A/B timing of training steps between two source trees.

Loads the ``pptts`` package of two source trees into one process, under the
names ``pptts_a`` and ``pptts_b`` (the package imports itself only
relatively, so each tree's modules bind to their own copy). Both set up the
same stage with ``train.start_run`` at the sizes of the ``perfbench``
workload of the stage, so both trees must have that function. Training
steps then alternate between them: A then B on even steps, B then A on odd
ones. Every step's loss metrics must be equal in both trees, so the
comparison holds only for changes that keep the bits.

Prints the median step time of each tree and the median, quartiles and win
share of the per-step ratio B / A. Host speed swings move both halves of a
pair alike, so the paired ratio resolves differences that separate runs of
a whole workload do not.

Run from the repository root, with the other commit's files extracted into
another directory (for example by ``git archive``):

    python3 benchmarks/ab_steps.py ../parent/src src --stage finetune --steps 600

BLAS runs one thread, as in ``perfbench``. Exit code 1 if the losses of a
step differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# The sizes of perfbench/workloads.py, restated because the two trees are
# loaded under other names than the one the benchmark imports.
AUDIO = dict(sample_rate=8000, n_fft=256, hop_length=64, win_length=128, n_mels=20)
MODEL = dict(
    latent_channels=8, hidden_channels=16, flow_blocks=2, flow_hidden=12,
    duration_hidden=8, decoder_channels=16, text_vocab_size=28,
    pseudo_vocab_size=16, speaker_embed_dim=6,
)
ALPHABET = "abcdefgh"
LABELED_TEXTS = ["abcd", "efgh", "adg", "beh"]
BATCH = 4


def load_tree(src: str | Path, name: str):
    """The ``pptts`` package under ``src`` imported as module ``name``,
    replacing any earlier package of that name and its submodules."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    root = Path(src).resolve() / "pptts"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Trainer:
    """One tree's training run of one stage, set up by ``train.start_run``."""

    def __init__(self, pkg_name: str, stage: str, corpus: Path, seed: int, k: int):
        mod = {m: importlib.import_module(f"{pkg_name}.{m}") for m in (
            "config", "data", "features", "model", "pseudo", "train",
        )}
        cfg_mod, train = mod["config"], mod["train"]
        self.train = train
        audio = cfg_mod.AudioConfig(**AUDIO)
        model_cfg = cfg_mod.ModelConfig(**MODEL, multi_speaker=stage == "finetune")
        tcfg = cfg_mod.TrainConfig(
            stage=stage, batch_size=BATCH, seed=seed,
            learning_rate=2e-3 if stage == "pretrain" else 1e-3,
            scratch_lr_multiplier=1.0 if stage == "pretrain" else 5.0,
        )
        cfg = cfg_mod.RunConfig(feature=audio, model=model_cfg, train=tcfg)
        self.tcfg = tcfg
        if stage == "pretrain":
            entries = [
                dataclasses.replace(e, text=None)
                for e in mod["data"].load_manifest(corpus / "pretrain" / "manifest.jsonl")
            ]
            provider = mod["features"].build_provider(
                "builtin-mel", audio, entries=entries, normalize=True
            )
            codebook = mod["pseudo"].train_codebook(
                (provider.features_for(e) for e in entries), k=k, seed=seed
            )
            self.run = train.start_run(entries, cfg, codebook, provider=provider)
        else:
            entries = mod["data"].load_manifest(corpus / "labeled" / "manifest.jsonl")
            pre = mod["model"].SynthesisModel(model_cfg, audio, "pretrain", seed=seed)
            path = corpus / f"{pkg_name}.ckpt"
            train.save_checkpoint(pre, path, stage="pretrain", seed=seed)
            self.run = train.start_run(entries, cfg, init_ckpt=path)

    def step(self, index: int) -> tuple[dict[str, float], float]:
        """Loss metrics and wall time in ms of training step ``index``."""
        run = self.run
        batch = run.next_batch(BATCH)
        t0 = time.perf_counter()
        metrics = self.train.training_step(
            run.model, run.optimizer, batch, self.tcfg, index, run.frozen
        )
        return metrics, (time.perf_counter() - t0) * 1e3


def make_corpus(pkg_name: str, stage: str, out: Path, seed: int, utts: int) -> None:
    """Render the stage's corpus with one tree's synthetic corpus generator."""
    synthetic = importlib.import_module(f"{pkg_name}.synthetic")
    rng = np.random.default_rng([seed, 0])
    if stage == "pretrain":
        texts = ["".join(rng.choice(list(ALPHABET), size=2 + i % 3)) for i in range(utts)]
        synthetic.generate_synthetic_corpus(
            seed=seed, n_utts=utts, n_speakers=1, out_dir=out / "pretrain",
            sample_rate=AUDIO["sample_rate"], alphabet=ALPHABET, texts=texts,
            speaker_indices=[0], formant_jitter=0.05, duration_jitter=0.15,
        )
    else:
        synthetic.generate_synthetic_corpus(
            seed=seed + 1, n_utts=len(LABELED_TEXTS), n_speakers=1, out_dir=out / "labeled",
            sample_rate=AUDIO["sample_rate"], alphabet=ALPHABET, texts=LABELED_TEXTS,
            speaker_indices=[0],
        )


def compare(a: Trainer, b: Trainer, steps: int, warmup: int) -> dict:
    """Alternate ``warmup + steps`` steps between the trainers; the last
    ``steps`` are timed. Raises ValueError on the first step whose loss
    metrics differ."""
    times_a, times_b = [], []
    for index in range(1, warmup + steps + 1):
        order = (a, b) if index % 2 == 0 else (b, a)
        (m1, t1), (m2, t2) = (trainer.step(index) for trainer in order)
        if m1 != m2:
            raise ValueError(f"step {index}: losses differ: {m1} != {m2}")
        if index > warmup:
            ta, tb = (t1, t2) if order[0] is a else (t2, t1)
            times_a.append(ta)
            times_b.append(tb)
    ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "steps": steps,
        "a_ms_median": statistics.median(times_a),
        "b_ms_median": statistics.median(times_b),
        "ratio_b_over_a_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "b_faster_share": sum(r < 1.0 for r in ratios) / len(ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="source tree A (the directory that holds pptts/)")
    parser.add_argument("b", help="source tree B")
    parser.add_argument("--stage", choices=("pretrain", "finetune"), default="finetune")
    parser.add_argument("--steps", type=int, default=600, help="timed steps per tree")
    parser.add_argument("--warmup", type=int, default=20, help="untimed steps first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--utts", type=int, default=64, help="pretrain corpus size")
    parser.add_argument("--k", type=int, default=9, help="pretrain codebook size")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.warmup < 0:
        parser.error("--steps must be >= 1 and --warmup >= 0")

    names = ["pptts_a", "pptts_b"]
    for tree, name in zip((args.a, args.b), names):
        load_tree(tree, name)
        if not hasattr(importlib.import_module(f"{name}.train"), "start_run"):
            parser.error(f"{tree}: pptts.train has no start_run, so its stages cannot be set up")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        make_corpus(names[0], args.stage, corpus, args.seed, args.utts)
        a, b = (Trainer(n, args.stage, corpus, args.seed, args.k) for n in names)
        try:
            result = compare(a, b, args.steps, args.warmup)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"stage {args.stage}  A {args.a}  B {args.b}  steps {args.steps}  warmup {args.warmup}")
    for key, value in result.items():
        print(f"  {key:<24}{value:.4g}" if isinstance(value, float) else f"  {key:<24}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
