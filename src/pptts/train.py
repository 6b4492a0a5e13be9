"""Two-stage training: full pre-training and partial fine-tuning.

The stages share one loss path. Pre-training optimizes every parameter
against pseudo token targets plus a mel reconstruction term; fine-tuning
swaps in real phoneme targets, freezes the posterior encoder and decoder
(and reference encoder when present), fine-tunes the flow, and trains the
text encoder and duration predictor from scratch. Frozen encoders run once
per utterance per run, before the first step; their outputs are stored on
the prepared utterance and every step reads them from there.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import align, losses
from . import tensor as tz
from .audio import read_wav
from .config import AudioConfig, ConfigError, ModelConfig, RunConfig, _build_section
from .data import ManifestEntry, text_to_phonemes
from .features import BuiltinMelProvider, compute_linear_spectrogram, compute_mel
from .model import Stats, SynthesisModel
from .nn import AdamW
from .pseudo import Codebook, codebook_hash, merge_runs, quantize
from .seeding import seeded_rng
from .tensor import Tensor

CHECKPOINT_MAGIC = b"TTSCKPT1"
CHECKPOINT_VERSION = 1

# Parameter-name prefixes that stay fixed during fine-tuning, the ones that
# continue from their pre-trained values, and the ones that start over.
_FROZEN_PREFIXES = ("posterior.", "decoder.", "reference.")
_FINETUNED_PREFIXES = ("flow.",)
_SCRATCH_PREFIXES = ("text_encoder.", "duration.")


class TrainError(ValueError):
    """Raised for invalid training setups or broken checkpoints."""


def _transfer_split(model: SynthesisModel) -> tuple[frozenset[str], frozenset[str]]:
    """The frozen and the scratch parameter names of a transfer fine-tune.

    The assignment is by name prefix; the flow's names are in neither set.
    A pseudo token encoder or an unrecognized prefix is an error rather than
    a silent default.
    """
    frozen, scratch = set(), set()
    for name, _ in model.named_parameters():
        if name.startswith("pseudo_encoder."):
            raise TrainError(
                "pseudo token encoder has no role in fine-tuning; "
                "it must be discarded when converting a pre-trained model"
            )
        if name.startswith(_FROZEN_PREFIXES):
            frozen.add(name)
        elif name.startswith(_SCRATCH_PREFIXES):
            scratch.add(name)
        elif not name.startswith(_FINETUNED_PREFIXES):
            raise TrainError(f"parameter {name!r} has no fine-tuning assignment")
    return frozenset(frozen), frozenset(scratch)


# -- corpus preparation -----------------------------------------------------


@dataclass
class PreparedUtterance:
    """One training item with everything precomputed that never changes.

    ``post`` and ``speaker`` hold the outputs of frozen encoders, the
    posterior statistics and (multi-speaker only) the speaker embedding,
    once :func:`encode_frozen` has filled them in; a step then reads them
    instead of running those encoders.
    """

    spec: np.ndarray  # [frames, bins] linear magnitudes
    mel: np.ndarray  # [frames, n_mels] log mels
    tokens: np.ndarray  # [n_tokens] int64 token ids
    post: Stats | None = None
    speaker: Tensor | None = None


def prepare_corpus(
    entries: list[ManifestEntry],
    cfg: RunConfig,
    stage: str,
    codebook: Codebook | None = None,
    provider=None,
) -> list[PreparedUtterance]:
    """Load audio and derive per-utterance targets for one stage.

    Pre-training labels every utterance with the merged pseudo token runs
    of ``codebook``, quantizing the features of ``provider``, the fitted
    front end the codebook was trained on; nothing is fitted here, so an
    utterance's tokens do not depend on the rest of the manifest.
    Fine-tuning keeps only entries that carry text and converts it to
    phoneme ids. A builtin-mel provider at ``cfg.feature`` quantizes the
    log-mel computed here, so each wave is read and transformed once.
    """
    if not entries:
        raise TrainError("manifest is empty")
    if stage == "pretrain":
        if codebook is None:
            raise TrainError("pre-training requires a trained codebook")
        if codebook.k > cfg.model.pseudo_vocab_size:
            raise TrainError(
                f"codebook has {codebook.k} clusters but the model's pseudo "
                f"vocabulary holds {cfg.model.pseudo_vocab_size}"
            )
        if provider is None:
            raise TrainError("pre-training requires the codebook's feature provider")
    else:
        entries = [e for e in entries if e.text]
        if not entries:
            raise TrainError("fine-tuning requires labeled entries (none have text)")

    reuse_mel = isinstance(provider, BuiltinMelProvider) and provider.audio == cfg.feature
    prepared = []
    for entry in entries:
        wave, sr = read_wav(entry.audio_path)
        if sr != cfg.feature.sample_rate:
            raise TrainError(
                f"{entry.id}: sample rate {sr} != configured {cfg.feature.sample_rate}"
            )
        spec = compute_linear_spectrogram(wave, cfg.feature)
        mel = compute_mel(spec, cfg.feature)
        if stage == "pretrain":
            feats = provider.features_for_mel(mel) if reuse_mel else provider.features_for(entry)
            tokens, _ = merge_runs(quantize(feats, codebook))
        else:
            tokens = text_to_phonemes(entry.text)
        if tokens.size > spec.shape[0]:
            raise TrainError(
                f"{entry.id}: {tokens.size} tokens exceed {spec.shape[0]} "
                "frames; alignment is impossible"
            )
        prepared.append(PreparedUtterance(spec=spec, mel=mel, tokens=tokens))
    return prepared


# -- loss computation -------------------------------------------------------


def encode_frozen(
    model: SynthesisModel, items: list[PreparedUtterance]
) -> list[PreparedUtterance]:
    """The items with ``post`` and ``speaker`` filled in by one run of the
    frozen encoders over each, without a graph."""
    out = []
    with tz.no_grad():
        for item in items:
            _, post = model.posterior_encode(item.spec)
            speaker = model.reference_encode(item.mel) if model.config.multi_speaker else None
            out.append(dataclasses.replace(item, post=post, speaker=speaker))
    return out


def batch_losses(
    model: SynthesisModel,
    items: list[PreparedUtterance],
    eps: list,
    include_recon: bool,
) -> list[dict[str, Tensor]]:
    """Loss terms for each utterance of a batch: ``kld``, ``dur`` and, with
    ``include_recon``, ``recon``.

    Each item is encoded with its own posterior noise ``eps[j]``; an item
    that carries ``post`` takes its posterior statistics and speaker from
    there instead of the encoders. The alignments between tokens and latent
    frames are then recomputed by one monotonic search over the batch, on
    prior likelihoods plus the static alignment prior; the search itself
    never contributes gradients.
    """
    encoded = []
    for j, item in enumerate(items):
        if item.post is None:
            z, post = model.posterior_encode(item.spec, eps[j])
            speaker = model.reference_encode(item.mel) if model.config.multi_speaker else None
        else:
            post, speaker = item.post, item.speaker
            z = post.sample(eps[j])
        z_p, logdet = model.flow_forward(z, speaker)
        hidden, prior = model.token_encode(item.tokens)
        encoded.append((z, post, speaker, z_p, logdet, hidden, prior))

    with tz.no_grad():
        grids = []
        for _, _, _, z_p, _, _, prior in encoded:
            grid = align.likelihood_grid(prior.mean_tc, prior.std_tc, z_p.data.T)
            grid += align.alignment_log_prior(*grid.shape)
            grids.append(grid)
        assignments = align.monotonic_alignment_search(grids)

    out = []
    for item, assignment, (z, post, speaker, z_p, logdet, hidden, prior) in zip(
        items, assignments, encoded
    ):
        durations = align.alignment_to_durations(assignment, item.tokens.size)
        frame_prior = Stats(
            mean=tz.repeat_cols(prior.mean, durations),
            std=tz.repeat_cols(prior.std, durations),
        )
        terms = {
            "kld": losses.kld_prior_loss(post, z, z_p, frame_prior, logdet),
            "dur": losses.duration_loss(model.predict_durations(hidden), durations),
        }
        if include_recon:
            wave = model.decode(z, speaker)
            terms["recon"] = losses.reconstruction_loss(wave, item.mel, model.audio)
        out.append(terms)
    return out


def _batch_mean(terms: list[dict[str, Tensor]]) -> dict[str, Tensor]:
    keys = terms[0].keys()
    inv = 1.0 / len(terms)
    out = {}
    for key in keys:
        total = terms[0][key]
        for term in terms[1:]:
            total = total + term[key]
        out[key] = total * inv
    return out


def _require_finite(loss: Tensor, step_index: int) -> None:
    """Refuse a non-finite loss before backward, so no weight is updated."""
    value = float(loss.item())
    if not np.isfinite(value):
        raise TrainError(
            f"non-finite loss {value} at step {step_index}; model weights left unchanged"
        )


def _sample_eps(model: SynthesisModel, item: PreparedUtterance, rng) -> np.ndarray:
    shape = (model.config.latent_channels, item.spec.shape[0])
    return rng.standard_normal(shape).astype(model.np_dtype)


def training_step(
    model: SynthesisModel,
    optimizer: AdamW,
    items: list[PreparedUtterance],
    cfg,
    step_index: int,
    frozen: frozenset[str],
) -> dict[str, float]:
    """One optimizer update over a batch. Returns scalar loss metrics.

    ``frozen`` names the parameters the stage keeps fixed. The mel
    reconstruction term applies whenever the decoder trains. Items may carry
    the outputs of :func:`encode_frozen` only if every encoder parameter is
    frozen.
    """
    if any(item.post is not None for item in items) and any(
        name.startswith(("posterior.", "reference.")) and name not in frozen
        for name, _ in model.named_parameters()
    ):
        raise TrainError("frozen encodings given for trainable encoders")
    include_recon = not any(name.startswith("decoder.") for name in frozen)
    eps = [
        _sample_eps(model, item, seeded_rng(cfg.seed, step_index, j))
        for j, item in enumerate(items)
    ]
    terms = batch_losses(model, items, eps, include_recon)

    mean = _batch_mean(terms)
    total = cfg.kld_weight * mean["kld"] + cfg.duration_weight * mean["dur"]
    if include_recon:
        total = total + cfg.mel_weight * mean["recon"]
    _require_finite(total, step_index)

    optimizer.zero_grad()
    total.backward()
    params = dict(model.named_parameters())
    for name in frozen:
        if params[name].grad is not None:
            raise TrainError(f"gradient reached frozen parameter {name!r}")
    optimizer.step()

    out = {
        "loss_total": float(total.item()),
        "loss_kld": float(mean["kld"].item()),
        "loss_dur": float(mean["dur"].item()),
    }
    if include_recon:
        out["loss_recon"] = float(mean["recon"].item())
    return out


# -- checkpoints ------------------------------------------------------------


@dataclass
class Checkpoint:
    """Deserialized checkpoint: weights plus enough metadata to rebuild."""

    config: ModelConfig
    audio: AudioConfig
    mode: str
    stage: str
    from_scratch: bool
    codebook_hash: str | None
    seed: int
    params: dict[str, np.ndarray]
    optimizer: dict | None = None


_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(
    model: SynthesisModel,
    path: str | Path,
    stage: str,
    seed: int = 0,
    codebook_hash: str | None = None,
    optimizer: AdamW | None = None,
    from_scratch: bool = False,
) -> None:
    """Serialize model weights and metadata atomically.

    Layout: magic, u32 version, u32 header length, JSON header with sorted
    keys, then raw little-endian parameter blobs in header order.
    """
    path = Path(path)
    named = list(model.named_parameters())
    header = {
        "mode": model.mode,
        "stage": stage,
        "from_scratch": bool(from_scratch),
        "seed": int(seed),
        "codebook_hash": codebook_hash,
        "config": dataclasses.asdict(model.config),
        "audio": dataclasses.asdict(model.audio),
        "params": [
            {"name": name, "shape": list(p.data.shape), "dtype": str(p.data.dtype)}
            for name, p in named
        ],
        "optimizer": None,
    }
    blobs = [np.ascontiguousarray(p.data) for _, p in named]
    if optimizer is not None:
        state = optimizer.state_dict()
        names = sorted(state["m"])
        header["optimizer"] = {
            "step": int(state["step"]),
            "slots": [
                {
                    "name": name,
                    "shape": list(state["m"][name].shape),
                    "dtype": str(state["m"][name].dtype),
                }
                for name in names
            ],
        }
        for name in names:
            blobs.append(np.ascontiguousarray(state["m"][name]))
            blobs.append(np.ascontiguousarray(state["v"][name]))
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for arr in blobs:
            code = _DTYPE_CODES.get(str(arr.dtype))
            if code is None:
                raise TrainError(f"unsupported parameter dtype {arr.dtype}")
            fh.write(arr.astype(code, copy=False).tobytes())
    os.replace(tmp, path)


def _header_error(path: Path, what: str) -> TrainError:
    return TrainError(f"{path}: malformed checkpoint header: {what}")


def _checkpoint_header(path: Path, raw: bytes) -> dict:
    """The JSON header, with the type of every field the loader reads checked."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise _header_error(path, str(exc)) from None
    if not isinstance(header, dict):
        raise _header_error(path, "not a JSON object")
    for key, kind in (
        ("params", list), ("config", dict), ("audio", dict), ("mode", str), ("stage", str)
    ):
        if not isinstance(header.get(key), kind):
            raise _header_error(path, f"{key!r} is missing or not a {kind.__name__}")
    if not isinstance(header.get("seed", 0), int):
        raise _header_error(path, "'seed' is not an int")
    if not isinstance(header.get("from_scratch", False), bool):
        raise _header_error(path, "'from_scratch' is not a bool")
    if not isinstance(header.get("codebook_hash"), (str, type(None))):
        raise _header_error(path, "'codebook_hash' is not a string or null")
    opt = header.get("optimizer")
    if opt is not None and not (
        isinstance(opt, dict)
        and isinstance(opt.get("step"), int)
        and isinstance(opt.get("slots"), list)
    ):
        raise _header_error(path, "'optimizer' needs an int 'step' and a 'slots' list")
    return header


def _blob_meta(path: Path, meta) -> tuple[str, list[int], str]:
    """(name, shape, dtype) of one parameter or optimizer-slot entry."""
    if not isinstance(meta, dict) or not isinstance(meta.get("name"), str):
        raise _header_error(path, f"blob entry {meta!r} has no string 'name'")
    name, shape, dtype_name = meta["name"], meta.get("shape"), meta.get("dtype")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise _header_error(
            path, f"{name}: shape {shape!r} is not a list of non-negative ints"
        )
    if not isinstance(dtype_name, str) or dtype_name not in _DTYPE_CODES:
        raise TrainError(f"{path}: unsupported dtype {dtype_name!r} in header")
    return name, shape, dtype_name


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a file written by :func:`save_checkpoint`.

    Any malformed content raises :class:`TrainError` naming the file. Each
    size the header claims is checked against the bytes left in the file
    before it is read.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(count: int, what: str) -> bytes:
            left = size - fh.tell()
            if count > left:
                raise TrainError(
                    f"{path}: truncated checkpoint ({what} needs {count} bytes, {left} left)"
                )
            return fh.read(count)

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise TrainError(f"{path}: not a model checkpoint (bad magic)")
        version, header_len = struct.unpack("<II", read(8, "version and header length"))
        if version != CHECKPOINT_VERSION:
            raise TrainError(f"{path}: unsupported checkpoint version {version}")
        header = _checkpoint_header(path, read(header_len, "header"))

        def read_blob(meta) -> tuple[str, np.ndarray]:
            name, shape, dtype_name = _blob_meta(path, meta)
            code = _DTYPE_CODES[dtype_name]
            raw = read(math.prod(shape) * np.dtype(code).itemsize, name)
            arr = np.frombuffer(raw, dtype=code).astype(dtype_name, copy=False)
            return name, arr.reshape(shape).copy()

        params = dict(read_blob(meta) for meta in header["params"])
        optimizer = None
        if header.get("optimizer") is not None:
            opt = header["optimizer"]
            m, v = {}, {}
            for meta in opt["slots"]:
                name, m_slot = read_blob(meta)
                m[name], v[name] = m_slot, read_blob(meta)[1]
            optimizer = {"step": int(opt["step"]), "m": m, "v": v}
        trailing = fh.read(1)
        if trailing:
            raise TrainError(f"{path}: trailing bytes after parameter blobs")

    try:
        config = _build_section(ModelConfig, header["config"], "model")
        audio = _build_section(AudioConfig, header["audio"], "feature")
    except ConfigError as exc:
        raise TrainError(f"{path}: {exc}") from None
    return Checkpoint(
        config=config,
        audio=audio,
        mode=header["mode"],
        stage=header["stage"],
        from_scratch=header.get("from_scratch", False),
        codebook_hash=header.get("codebook_hash"),
        seed=int(header.get("seed", 0)),
        params=params,
        optimizer=optimizer,
    )


def build_model_from_checkpoint(ckpt: Checkpoint) -> SynthesisModel:
    """Reconstruct a model whose parameter bytes match the checkpoint."""
    model = SynthesisModel(ckpt.config, ckpt.audio, ckpt.mode, seed=0)
    _load_params(model, ckpt.params, require_all=True)
    return model


def _load_params(model: SynthesisModel, params: dict[str, np.ndarray], require_all: bool) -> None:
    named = dict(model.named_parameters())
    if require_all:
        missing = sorted(set(named) - set(params))
        extra = sorted(set(params) - set(named))
        if missing or extra:
            raise TrainError(
                f"checkpoint/model parameter mismatch; missing={missing} extra={extra}"
            )
    for name, param in named.items():
        if name not in params:
            continue
        arr = params[name]
        if tuple(arr.shape) != tuple(param.data.shape):
            raise TrainError(
                f"shape mismatch for {name}: checkpoint {arr.shape} vs model "
                f"{param.data.shape}"
            )
        param.data = arr.astype(param.data.dtype, copy=True)


def init_finetune_from_pretrained(ckpt: Checkpoint, seed: int) -> SynthesisModel:
    """Convert a pre-trained checkpoint into a fine-tuning model.

    Posterior encoder, flow, decoder, and reference encoder keep their
    trained weights; the text encoder and duration predictor are freshly
    initialized from the seed; the pseudo token encoder is discarded.
    """
    if ckpt.mode != "pretrain":
        raise TrainError(
            f"fine-tuning must start from a pre-training checkpoint, got mode "
            f"{ckpt.mode!r}"
        )
    model = SynthesisModel(ckpt.config, ckpt.audio, "finetune", seed=seed)
    keep = _FROZEN_PREFIXES + _FINETUNED_PREFIXES
    carried = {k: v for k, v in ckpt.params.items() if k.startswith(keep)}
    _load_params(model, carried, require_all=False)
    # Every carried-over prefix must be fully covered by the new model.
    model_names = {n for n, _ in model.named_parameters() if n.startswith(keep)}
    if model_names != set(carried):
        raise TrainError(
            "pre-trained checkpoint does not cover the fine-tuning model: "
            f"unmatched={sorted(model_names ^ set(carried))}"
        )
    return model


# -- training loop ----------------------------------------------------------


def _check_ckpt_compat(cfg: RunConfig, ckpt: Checkpoint) -> None:
    """Refuse a checkpoint whose configs differ from the run's, naming each field."""
    diffs = [
        f"[{section}]: {f.name} is {getattr(saved, f.name)} in the checkpoint, "
        f"{getattr(wanted, f.name)} in the config"
        for section, saved, wanted in (
            ("model", ckpt.config, cfg.model), ("feature", ckpt.audio, cfg.feature)
        )
        for f in dataclasses.fields(saved)
        if getattr(saved, f.name) != getattr(wanted, f.name)
    ]
    if diffs:
        raise TrainError(
            "checkpoint does not match the config: " + "; ".join(diffs)
            + "; re-run with the checkpoint's settings"
        )


@dataclass
class Run:
    """One training stage set up by :func:`start_run`. ``optimizer`` holds
    every parameter not named in ``frozen``; ``order`` and ``epoch`` are
    the batch-order state of :meth:`next_batch`."""

    model: SynthesisModel
    optimizer: AdamW
    items: list[PreparedUtterance]
    frozen: frozenset[str]
    seed: int
    order: list[int] = dataclasses.field(default_factory=list)
    epoch: int = 0

    def next_batch(self, size: int) -> list[PreparedUtterance]:
        """The next ``size`` items (at most the corpus), popped from a
        per-epoch shuffled order seeded from the run seed."""
        picks = []
        while len(picks) < min(size, len(self.items)):
            if not self.order:
                rng = seeded_rng(self.seed, 1_000_003, self.epoch)
                self.order = list(rng.permutation(len(self.items)))
                self.epoch += 1
            picks.append(self.order.pop())
        return [self.items[i] for i in picks]


def start_run(
    entries: list[ManifestEntry],
    cfg: RunConfig,
    codebook: Codebook | None = None,
    init_ckpt: str | Path | None = None,
    provider=None,
) -> Run:
    """Build the model, items and optimizer of one training stage.

    Pre-training and the from-scratch fine-tune train every parameter. A
    transfer fine-tune, from a pre-training checkpoint, freezes the names of
    :func:`_transfer_split` (no gradient, read-only data, outputs encoded
    here once) and trains its scratch names at ``scratch_lr_multiplier``
    times the learning rate. Pre-training needs ``codebook`` and the
    ``provider`` it was fitted with (see :func:`prepare_corpus`).
    """
    tcfg = cfg.train
    frozen = scratch = frozenset()
    if tcfg.stage == "pretrain":
        if tcfg.from_scratch:
            raise TrainError("from_scratch only applies to the finetune stage")
        model = SynthesisModel(cfg.model, cfg.feature, "pretrain", seed=tcfg.seed)
        if init_ckpt is not None:
            ckpt = load_checkpoint(init_ckpt)
            if ckpt.mode != "pretrain":
                raise TrainError("initial checkpoint is not a pre-training checkpoint")
            _check_ckpt_compat(cfg, ckpt)
            if codebook is not None and ckpt.codebook_hash not in (None, codebook_hash(codebook)):
                warnings.warn(
                    "resuming with a different codebook than the checkpoint "
                    "was trained with; pseudo token targets will not line up",
                    stacklevel=2,
                )
            _load_params(model, ckpt.params, require_all=True)
    elif tcfg.from_scratch:  # finetune, the only other stage a TrainConfig takes
        if init_ckpt is not None:
            raise TrainError("from_scratch and an initial checkpoint are exclusive")
        model = SynthesisModel(cfg.model, cfg.feature, "finetune", seed=tcfg.seed)
    else:
        if init_ckpt is None:
            raise TrainError("fine-tuning requires an initial checkpoint")
        ckpt = load_checkpoint(init_ckpt)
        _check_ckpt_compat(cfg, ckpt)
        model = init_finetune_from_pretrained(ckpt, seed=tcfg.seed)
        frozen, scratch = _transfer_split(model)

    items = prepare_corpus(entries, cfg, tcfg.stage, codebook, provider)
    named = dict(model.named_parameters())
    for name in frozen:
        named[name].requires_grad = False
        named[name].grad = None
        named[name].data.setflags(write=False)
    if frozen:  # frozen encoders give each item the same outputs at every step
        items = encode_frozen(model, items)
    multiplier = tcfg.scratch_lr_multiplier
    optimizer = AdamW(
        [(n, named[n]) for n in sorted(named) if n not in frozen],
        lr=tcfg.learning_rate,
        weight_decay=tcfg.weight_decay,
        lr_scales={n: multiplier for n in scratch} if multiplier != 1.0 else None,
    )
    return Run(model, optimizer, items, frozen, tcfg.seed)


@dataclass
class TrainResult:
    model: SynthesisModel
    checkpoint_path: Path
    metrics_path: Path
    decoder_calls: int
    final_metrics: dict[str, float]
    elapsed_s: float = 0.0


def run_training(
    entries: list[ManifestEntry],
    cfg: RunConfig,
    out_dir: str | Path,
    codebook: Codebook | None = None,
    init_ckpt: str | Path | None = None,
    provider=None,
) -> TrainResult:
    """Run one full training stage (see :func:`start_run`) and write
    metrics + checkpoints.

    Reruns with identical inputs produce identical parameter bytes and
    metric values.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tcfg = cfg.train
    run = start_run(entries, cfg, codebook, init_ckpt, provider)

    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "model_final.ckpt"
    cb_hash = codebook_hash(codebook) if codebook is not None else None

    def save(path: Path) -> None:
        save_checkpoint(
            run.model, path, stage=tcfg.stage, seed=tcfg.seed, codebook_hash=cb_hash,
            optimizer=run.optimizer, from_scratch=tcfg.from_scratch,
        )

    t0 = time.perf_counter()
    last_metrics: dict[str, float] = {}
    with open(metrics_path, "w", encoding="utf-8") as log:
        for it in range(1, tcfg.iterations + 1):
            last_metrics = training_step(
                run.model, run.optimizer, run.next_batch(tcfg.batch_size), tcfg, it, run.frozen
            )
            if it % tcfg.log_interval == 0:
                # Metric lines carry no wall-clock values so reruns with the
                # same seed produce byte-identical logs.
                record = {"iter": it, **last_metrics, "lr": tcfg.learning_rate}
                log.write(json.dumps(record, sort_keys=True) + "\n")
            if (
                tcfg.checkpoint_interval > 0
                and it % tcfg.checkpoint_interval == 0
                and it < tcfg.iterations
            ):
                save(out_dir / f"model_{it:06d}.ckpt")

    save(ckpt_path)
    return TrainResult(
        model=run.model,
        checkpoint_path=ckpt_path,
        metrics_path=metrics_path,
        decoder_calls=run.model.decoder.calls,
        final_metrics=last_metrics,
        elapsed_s=time.perf_counter() - t0,
    )
