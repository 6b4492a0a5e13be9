"""Command-line entrypoint: corpus prep, training stages, synthesis, eval.

The corpus and training commands take an optional JSON config file plus
repeatable ``--set section.key=value`` overrides (overrides win), and echo
the effective config next to their outputs so runs can be reproduced
exactly. Quantizing commands use the front end the codebook file records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

from . import evaluate as ev
from . import train as tr
from .audio import read_wav, write_wav
from .config import ConfigError, RunConfig, config_from_dict, load_config, merge_overrides, write_config
from .data import DEFAULT_CHARACTERS, load_manifest, text_to_phonemes
from .features import BuiltinMelProvider, build_provider, mel_of_waveform
from .model import check_synthesis_scales
from .pseudo import codebook_provider, load_codebook, merge_runs, quantize, save_codebook, train_codebook
from .synthetic import generate_synthetic_corpus


class UsageError(Exception):
    """Bad flag combinations detected after parsing."""


def _parse_override(item: str) -> tuple[str, str, Any]:
    key, sep, value = item.partition("=")
    section, dot, field = key.partition(".")
    if not sep or not dot or not section or not field:
        raise UsageError(f"--set expects section.key=value, got {item!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return section, field, parsed


def _effective_config(args, extra: dict[str, dict[str, Any]] | None = None) -> RunConfig:
    """Config file, then --set overrides, then per-command flags (which win)."""
    cfg = load_config(args.config) if getattr(args, "config", None) else config_from_dict({})
    overrides: dict[str, dict[str, Any]] = {}
    for item in getattr(args, "overrides", []) or []:
        section, field, value = _parse_override(item)
        overrides.setdefault(section, {})[field] = value
    for section, values in (extra or {}).items():
        for field, value in values.items():
            if value is not None:
                overrides.setdefault(section, {})[field] = value
    return merge_overrides(cfg, overrides)


def _echo_config(cfg: RunConfig, out: Path, is_dir: bool) -> None:
    if is_dir:
        out.mkdir(parents=True, exist_ok=True)
        write_config(cfg, out / "config.json")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_config(cfg, out.parent / (out.name + ".config.json"))


# -- commands ---------------------------------------------------------------


def cmd_codebook(args) -> int:
    cfg = _effective_config(
        args, {"codebook": {"k": args.k, "seed": args.seed}}
    )
    entries = load_manifest(args.manifest)
    provider = build_provider(
        cfg.codebook.provider, cfg.feature, entries=entries, feature_dir=cfg.codebook.feature_dir
    )
    codebook = train_codebook(
        (provider.features_for(e) for e in entries),
        k=cfg.codebook.k,
        seed=cfg.codebook.seed,
        max_iters=cfg.codebook.max_iters,
        tol=cfg.codebook.tol,
    )
    if isinstance(provider, BuiltinMelProvider):
        codebook = dataclasses.replace(
            codebook, audio=provider.audio, mean=provider.mean, std=provider.std
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_codebook(out, codebook)
    _echo_config(cfg, out, is_dir=False)
    print(f"codebook: k={codebook.k} dim={codebook.dim} inertia={codebook.inertia:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_tokenize(args) -> int:
    cfg = _effective_config(args)
    entries = load_manifest(args.manifest)
    codebook = load_codebook(args.codebook)
    provider = codebook_provider(args.codebook, codebook, cfg.codebook.feature_dir)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    frames = runs = one_frame = 0
    with open(out, "w", encoding="utf-8") as fh:
        for entry in entries:
            tokens, durations = merge_runs(quantize(provider.features_for(entry), codebook))
            record = {"id": entry.id, "tokens": tokens.tolist(), "durations": durations.tolist()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            frames += int(durations.sum())
            runs += len(tokens)
            one_frame += int((durations == 1).sum())
    _echo_config(cfg, out, is_dir=False)
    print(f"wrote {out} ({len(entries)} entries)")
    share = one_frame / runs if runs else 0.0
    print(
        f"units: {len(entries)} utterances, {frames} frames, {runs} runs, "
        f"{share:.1%} one-frame runs",
        file=sys.stderr,
    )
    return 0


def _train_flags(args) -> dict[str, dict[str, Any]]:
    return {
        "train": {
            "iterations": args.iterations,
            "batch_size": args.batch_size,
            "seed": args.seed,
            "learning_rate": args.learning_rate,
        }
    }


def cmd_pretrain(args) -> int:
    extra = _train_flags(args)
    extra["train"]["stage"] = "pretrain"
    cfg = _effective_config(args, extra)
    entries = load_manifest(args.manifest)
    codebook = load_codebook(args.codebook)
    provider = codebook_provider(args.codebook, codebook, cfg.codebook.feature_dir)
    out_dir = Path(args.out_dir)
    _echo_config(cfg, out_dir, is_dir=True)
    result = tr.run_training(
        entries, cfg, out_dir, codebook=codebook, init_ckpt=args.init_ckpt, provider=provider
    )
    print(f"wrote {result.checkpoint_path} ({result.elapsed_s:.1f}s)")
    print(f"final: {json.dumps(result.final_metrics, sort_keys=True)}")
    return 0


def cmd_finetune(args) -> int:
    if bool(args.init_ckpt) == bool(args.from_scratch):
        raise UsageError("exactly one of --init-ckpt or --from-scratch is required")
    extra = _train_flags(args)
    extra["train"]["stage"] = "finetune"
    extra["train"]["from_scratch"] = bool(args.from_scratch)
    cfg = _effective_config(args, extra)
    entries = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    _echo_config(cfg, out_dir, is_dir=True)
    result = tr.run_training(entries, cfg, out_dir, init_ckpt=args.init_ckpt)
    print(f"wrote {result.checkpoint_path} ({result.elapsed_s:.1f}s)")
    print(f"final: {json.dumps(result.final_metrics, sort_keys=True)}")
    return 0


def cmd_synthesize(args) -> int:
    if not args.text or not args.text.strip():
        raise UsageError("--text must not be empty")
    check_synthesis_scales(args.noise_scale, args.length_scale)
    ckpt = tr.load_checkpoint(args.ckpt)
    if ckpt.mode != "finetune":
        raise UsageError(
            "synthesis needs a text-capable checkpoint (fine-tuned or from-scratch)"
        )
    model = tr.build_model_from_checkpoint(ckpt)
    ids = text_to_phonemes(args.text)
    ref_mel = None
    if args.ref_wav is not None:
        wave, sr = read_wav(args.ref_wav)
        if sr != model.audio.sample_rate:
            raise ValueError(f"reference sample rate {sr} != {model.audio.sample_rate}")
        ref_mel = mel_of_waveform(wave, model.audio)
    result = model.synthesize(
        ids,
        noise_scale=args.noise_scale,
        length_scale=args.length_scale,
        ref_mel=ref_mel,
        seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_wav(out, result.wave, model.audio.sample_rate)

    hop_s = model.audio.hop_length / model.audio.sample_rate
    print("token durations:")
    for tok, frames in zip(result.tokens, result.durations):
        print(f"  {DEFAULT_CHARACTERS[tok]!r}: {int(frames)} frames ({frames * hop_s:.3f}s)")
    total = int(result.durations.sum())
    print(f"total: {total} frames ({total * hop_s:.3f}s) -> {out}")
    return 0


def cmd_eval(args) -> int:
    model = tr.build_model_from_checkpoint(tr.load_checkpoint(args.ckpt))
    entries = load_manifest(args.manifest)
    codebook = provider = None
    if args.codebook is not None:
        codebook = load_codebook(args.codebook)
        if codebook.provider_id == "precomputed":
            raise ev.EvalError(
                f"{args.codebook}: generated audio has no precomputed features; "
                "score token accuracy with a builtin-mel codebook"
            )
        provider = codebook_provider(args.codebook, codebook)
    report = ev.evaluate_manifest(
        model,
        entries,
        codebook=codebook,
        provider=provider,
        noise_scale=args.noise_scale,
        length_scale=args.length_scale,
        seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: {json.dumps(report.aggregate, sort_keys=True)}")
    if report.errors:
        for err in report.errors:
            print(f"error: {err['id']}: {err['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_make_synthetic(args) -> int:
    manifest = generate_synthetic_corpus(
        seed=args.seed,
        n_utts=args.n_utts,
        n_speakers=args.speakers,
        out_dir=args.out_dir,
        sample_rate=args.sample_rate,
        alphabet=args.alphabet,
        formant_jitter=args.formant_jitter,
        duration_jitter=args.duration_jitter,
    )
    print(f"wrote {manifest}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable, wins over --config)",
    )


def _add_train_common(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--manifest", type=Path, required=True, help="JSONL corpus manifest")
    p.add_argument("--out-dir", type=Path, required=True, help="run output directory")
    p.add_argument("--iterations", type=int, default=None, help="training steps")
    p.add_argument("--batch-size", type=int, default=None, help="utterances per step")
    p.add_argument("--learning-rate", type=float, default=None, help="optimizer step size")
    p.add_argument("--seed", type=int, default=None, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pptts",
        description="Transfer-learning text-to-speech on pseudo phoneme pre-training.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, func, help_):
        p = sub.add_parser(
            name, help=help_, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("codebook", cmd_codebook, "cluster frame features into a pseudo phoneme codebook")
    _add_common(p)
    p.add_argument("--manifest", type=Path, required=True, help="JSONL corpus manifest")
    p.add_argument("--out", type=Path, required=True, help="codebook file to write")
    p.add_argument(
        "--k", type=int, default=None, help="number of clusters (default: config value)"
    )
    p.add_argument(
        "--seed", type=int, default=None, help="clustering seed (default: config value)"
    )

    p = add("tokenize", cmd_tokenize, "write merged pseudo token runs for every entry")
    _add_common(p)
    p.add_argument("--manifest", type=Path, required=True, help="JSONL corpus manifest")
    p.add_argument("--codebook", type=Path, required=True, help="trained codebook file")
    p.add_argument("--out", type=Path, required=True, help="token JSONL to write")

    p = add("pretrain", cmd_pretrain, "pre-train on unlabeled audio with pseudo tokens")
    _add_train_common(p)
    p.add_argument("--codebook", type=Path, required=True, help="trained codebook file")
    p.add_argument(
        "--init-ckpt",
        type=Path,
        default=None,
        help="pre-training checkpoint whose weights start the run; its optimizer "
        "state and step are not restored, so iterations count from 1 again",
    )

    p = add("finetune", cmd_finetune, "fine-tune on labeled audio (or train a baseline)")
    _add_train_common(p)
    p.add_argument("--init-ckpt", type=Path, default=None, help="pre-trained checkpoint")
    p.add_argument(
        "--from-scratch",
        action="store_true",
        help="train all parameters from scratch instead of transferring",
    )

    p = add("synthesize", cmd_synthesize, "synthesize speech from text")
    p.add_argument("--ckpt", type=Path, required=True, help="model checkpoint")
    p.add_argument("--text", type=str, required=True, help="text to speak")
    p.add_argument("--out", type=Path, required=True, help="output WAV path")
    p.add_argument("--ref-wav", type=Path, default=None, help="reference voice WAV (multi-speaker)")
    p.add_argument("--noise-scale", type=float, default=0.667, help="prior sampling temperature")
    p.add_argument("--length-scale", type=float, default=1.0, help="duration multiplier")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = add("eval", cmd_eval, "synthesize a labeled manifest and score it")
    p.add_argument("--ckpt", type=Path, required=True, help="model checkpoint")
    p.add_argument("--manifest", type=Path, required=True, help="JSONL corpus manifest")
    p.add_argument("--out", type=Path, required=True, help="report JSON to write")
    p.add_argument("--codebook", type=Path, default=None, help="codebook for token round-trip scoring")
    p.add_argument("--noise-scale", type=float, default=0.667, help="prior sampling temperature")
    p.add_argument("--length-scale", type=float, default=1.0, help="duration multiplier")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = add("make-synthetic", cmd_make_synthetic, "generate a deterministic synthetic corpus")
    p.add_argument("--out-dir", type=Path, required=True, help="corpus directory to create")
    p.add_argument("--n-utts", type=int, default=32, help="number of utterances")
    p.add_argument("--speakers", type=int, default=1, help="number of speakers")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--sample-rate", type=int, default=22050, help="WAV sample rate")
    p.add_argument("--alphabet", type=str, default="abcdefgh", help="letters for random texts")
    p.add_argument(
        "--formant-jitter", type=float, default=0.0,
        help="per-phone relative formant perturbation (0 disables)",
    )
    p.add_argument(
        "--duration-jitter", type=float, default=0.0,
        help="per-phone relative duration perturbation (0 disables)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
