"""Two-stage training: stage set-up, corpus prep, steps, checkpoints, loop."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pptts.config import (
    AudioConfig,
    CodebookConfig,
    ConfigError,
    ModelConfig,
    RunConfig,
    TrainConfig,
    config_from_dict,
)
from pptts import features as features_module
from pptts.audio import read_wav
from pptts.data import load_manifest
from pptts.features import build_provider, compute_linear_spectrogram, compute_mel
from pptts import losses as losses_module
from pptts.model import CouplingBlock, SynthesisModel
from pptts.pseudo import codebook_hash, merge_runs, quantize, train_codebook
from pptts.synthetic import generate_synthetic_corpus
from pptts.seeding import seeded_rng
from pptts.train import (
    Checkpoint,
    Run,
    TrainError,
    build_model_from_checkpoint,
    encode_frozen,
    init_finetune_from_pretrained,
    load_checkpoint,
    prepare_corpus,
    run_training,
    save_checkpoint,
    start_run,
    training_step,
)
from pptts import train as train_module
from pptts.nn import AdamW, Conv1d
from pptts.tensor import Tensor


AUDIO = AudioConfig(
    sample_rate=8000, n_fft=128, hop_length=64, win_length=128, n_mels=10
)


def micro_model_config(**kw):
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
        dtype="float32",
    )
    base.update(kw)
    return ModelConfig(**base)


def micro_run_config(stage, multi_speaker=False, **train_kw):
    train = dict(
        stage=stage,
        iterations=4,
        batch_size=2,
        learning_rate=1e-3,
        weight_decay=1e-2,
        seed=0,
        log_interval=1,
        checkpoint_interval=0,
    )
    train.update(train_kw)
    return RunConfig(
        feature=AUDIO,
        model=micro_model_config(multi_speaker=multi_speaker),
        train=TrainConfig(**train),
        codebook=CodebookConfig(k=8, seed=0),
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_synthetic_corpus(
        seed=0, n_utts=6, n_speakers=1, out_dir=out, sample_rate=8000,
        alphabet="abcd",
    )
    return load_manifest(manifest)


@pytest.fixture(scope="module")
def provider(corpus):
    return build_provider("builtin-mel", AUDIO, entries=corpus, normalize=True)


@pytest.fixture(scope="module")
def codebook(corpus, provider):
    return train_codebook((provider.features_for(e) for e in corpus), k=8, seed=0)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Checkpoints of fresh micro models: ``pretrain``, the multi-speaker
    ``pretrain-multi`` (seed 1 both) and ``finetune``."""
    out = tmp_path_factory.mktemp("ckpts")
    paths = {}
    for name, mode, multi in (
        ("pretrain", "pretrain", False),
        ("pretrain-multi", "pretrain", True),
        ("finetune", "finetune", False),
    ):
        paths[name] = out / f"{name}.ckpt"
        model = SynthesisModel(micro_model_config(multi_speaker=multi), AUDIO, mode, seed=1)
        save_checkpoint(model, paths[name], stage=mode)
    return paths


# Row: (stage, multi_speaker, from_scratch, initial checkpoint, scratch lr
# multiplier, prefixes of the frozen names, prefixes of the lr-scaled names).
STAGES = {
    "pretrain": ("pretrain", False, False, None, 5.0, (), ()),
    "pretrain-resumed": ("pretrain", False, False, "pretrain", 5.0, (), ()),
    "from-scratch": ("finetune", True, True, None, 5.0, (), ()),
    "transfer-multi-speaker": (
        "finetune", True, False, "pretrain-multi", 5.0,
        ("posterior.", "decoder.", "reference."), ("text_encoder.", "duration."),
    ),
    "transfer-multiplier-1": (
        "finetune", False, False, "pretrain", 1.0, ("posterior.", "decoder."), (),
    ),
}


class TestPartition:
    @pytest.mark.parametrize("row", STAGES)
    def test_stage_table(self, row, corpus, codebook, provider, checkpoints):
        stage, multi, from_scratch, init, mult, frozen_at, scaled_at = STAGES[row]
        cfg = micro_run_config(stage, multi, from_scratch=from_scratch, scratch_lr_multiplier=mult)
        run = start_run(corpus, cfg, codebook, init and checkpoints[init], provider)
        named = dict(run.model.named_parameters())
        assert run.frozen == {n for n in named if n.startswith(frozen_at)}
        scaled = {n for n in named if n.startswith(scaled_at)}
        assert {n.split(".")[0] + "." for n in run.frozen} == set(frozen_at)
        assert {n.split(".")[0] + "." for n in scaled} == set(scaled_at)
        assert run.optimizer.lr_scales == {n: mult for n in scaled}
        assert [n for n, _ in run.optimizer.params] == sorted(set(named) - run.frozen)
        for name, param in named.items():
            trains = name not in run.frozen
            assert param.requires_grad is param.data.flags.writeable is trains, name
            assert trains or param.grad is None, name
        transfer = bool(frozen_at)
        assert all((item.post is not None) is transfer for item in run.items)
        assert all((item.speaker is not None) is (transfer and multi) for item in run.items)
        if stage == "pretrain" and init:
            saved = load_checkpoint(checkpoints[init]).params
            assert all(saved[n].tobytes() == p.data.tobytes() for n, p in named.items())

    def test_finetune_split_by_prefix(self, corpus, checkpoints):
        cfg = micro_run_config("finetune", multi_speaker=True, scratch_lr_multiplier=5.0)
        run = start_run(corpus, cfg, init_ckpt=checkpoints["pretrain-multi"])
        names = {n for n, _ in run.model.named_parameters()}
        scaled = set(run.optimizer.lr_scales)
        finetuned = names - run.frozen - scaled
        for name in run.frozen:
            assert name.startswith(("posterior.", "decoder.", "reference."))
        for name in finetuned:
            assert name.startswith("flow.")
        for name in scaled:
            assert name.startswith(("text_encoder.", "duration."))
        assert not run.frozen & scaled
        # Each group is non-empty for a multi-speaker fine-tuning model.
        assert run.frozen and finetuned and scaled

    def test_reference_frozen_when_multi_speaker(self, corpus, checkpoints):
        cfg = micro_run_config("finetune", multi_speaker=True)
        run = start_run(corpus, cfg, init_ckpt=checkpoints["pretrain-multi"])
        assert {n for n in run.frozen if n.startswith("reference.")}

    def test_apply_partition_write_protects(self, corpus, checkpoints):
        run = start_run(corpus, micro_run_config("finetune"), init_ckpt=checkpoints["pretrain"])
        named = dict(run.model.named_parameters())
        frozen_name = sorted(run.frozen)[0]
        assert not named[frozen_name].requires_grad
        assert not named[frozen_name].data.flags.writeable
        trainable_name = sorted(set(named) - run.frozen)[0]
        assert named[trainable_name].requires_grad
        assert named[trainable_name].data.flags.writeable

    @pytest.mark.parametrize(
        "stage,from_scratch,init,match",
        [
            ("pretrain", True, None, "from_scratch only applies to the finetune stage"),
            ("finetune", True, "pretrain", "exclusive"),
            ("finetune", False, None, "requires an initial checkpoint"),
            ("pretrain", False, "finetune", "not a pre-training checkpoint"),
        ],
    )
    def test_refused(self, stage, from_scratch, init, match, corpus, codebook, provider,
                     checkpoints):
        cfg = micro_run_config(stage, from_scratch=from_scratch)
        with pytest.raises(TrainError, match=match):
            start_run(corpus, cfg, codebook, init and checkpoints[init], provider)

    def test_pseudo_encoder_rejected_in_finetune(self, corpus, checkpoints, monkeypatch):
        monkeypatch.setattr(
            train_module, "init_finetune_from_pretrained",
            lambda ckpt, seed: build_model_from_checkpoint(ckpt),
        )
        with pytest.raises(TrainError, match="pseudo token encoder"):
            start_run(corpus, micro_run_config("finetune"), init_ckpt=checkpoints["pretrain"])

    def test_unknown_prefix_rejected_in_finetune(self, corpus, checkpoints, monkeypatch):
        def with_extra(ckpt, seed):
            model = init_finetune_from_pretrained(ckpt, seed)
            model.extra = Tensor(np.zeros(1, np.float32), requires_grad=True)
            return model

        monkeypatch.setattr(train_module, "init_finetune_from_pretrained", with_extra)
        with pytest.raises(TrainError, match="'extra' has no fine-tuning assignment"):
            start_run(corpus, micro_run_config("finetune"), init_ckpt=checkpoints["pretrain"])

    def test_unknown_stage(self):
        with pytest.raises(ConfigError, match="unknown train stage 'warmup'"):
            TrainConfig(stage="warmup")


class TestNextBatch:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batches_pop_from_the_end_of_each_epoch_order(self, seed):
        run = Run(None, None, list("abcde"), frozenset(), seed)
        o0, o1 = (list(seeded_rng(seed, 1_000_003, e).permutation(5)) for e in (0, 1))
        want = [[o0[4], o0[3]], [o0[2], o0[1]], [o0[0], o1[4]]]
        assert [run.next_batch(2) for _ in range(3)] == [["abcde"[i] for i in b] for b in want]
        assert run.epoch == 2 and run.order == o1[:4]

    def test_batch_larger_than_corpus_takes_each_item_once(self):
        run = Run(None, None, list("abcde"), frozenset(), 3)
        assert sorted(run.next_batch(8)) == list("abcde")
        assert run.epoch == 1 and run.order == []


class TestPrepareCorpus:
    def test_pretrain_tokens_from_codebook(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)
        assert len(items) == len(corpus)
        for item in items:
            assert item.tokens.size >= 1
            assert np.all(item.tokens >= 0) and np.all(item.tokens < codebook.k)
            # Merged runs never repeat adjacently.
            assert np.all(np.diff(item.tokens) != 0) or item.tokens.size == 1
            assert item.tokens.size <= item.spec.shape[0]
            assert item.spec.shape[1] == AUDIO.spec_bins
            assert item.mel.shape[1] == AUDIO.n_mels

    def test_pretrain_reads_and_transforms_each_wave_once(
        self, corpus, codebook, provider, monkeypatch
    ):
        # Oracle: the spectrogram and log-mel of the wave, and tokens from
        # the provider's own read and log-mel of the same file.
        want = []
        for entry in corpus:
            spec = compute_linear_spectrogram(read_wav(entry.audio_path)[0], AUDIO)
            tokens, _ = merge_runs(quantize(provider.features_for(entry), codebook))
            want.append((spec, compute_mel(spec, AUDIO), tokens))
        reads, mels = [], []

        def counting_read(path):
            reads.append(path)
            return read_wav(path)

        def counting_mel(wave, cfg):
            mels.append(cfg)
            return features_module.compute_mel(
                features_module.compute_linear_spectrogram(wave, cfg), cfg
            )

        monkeypatch.setattr(train_module, "read_wav", counting_read)
        monkeypatch.setattr(features_module, "read_wav", counting_read)
        monkeypatch.setattr(features_module, "mel_of_waveform", counting_mel)
        items = prepare_corpus(corpus, micro_run_config("pretrain"), "pretrain", codebook, provider)
        assert reads == [e.audio_path for e in corpus]
        assert mels == []
        for item, (spec, mel, tokens) in zip(items, want, strict=True):
            for got, ref in ((item.spec, spec), (item.mel, mel), (item.tokens, tokens)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_pretrain_requires_codebook(self, corpus):
        cfg = micro_run_config("pretrain")
        with pytest.raises(TrainError):
            prepare_corpus(corpus, cfg, "pretrain", None)

    def test_pretrain_requires_provider(self, corpus, codebook):
        # Nothing is fitted here: the provider comes with the codebook.
        cfg = micro_run_config("pretrain")
        with pytest.raises(TrainError, match="feature provider"):
            prepare_corpus(corpus, cfg, "pretrain", codebook)

    def test_codebook_too_large_for_vocab(self, corpus, provider):
        big = train_codebook(
            (provider.features_for(e) for e in corpus), k=12, seed=0
        )
        cfg = micro_run_config("pretrain")  # pseudo_vocab_size=11
        with pytest.raises(TrainError):
            prepare_corpus(corpus, cfg, "pretrain", big, provider)

    def test_finetune_tokens_from_text(self, corpus):
        cfg = micro_run_config("finetune")
        items = prepare_corpus(corpus, cfg, "finetune")
        for item, entry in zip(items, corpus):
            assert item.tokens.size == len(entry.text)

    def test_finetune_requires_text(self, corpus):
        unlabeled = [dataclasses.replace(e, text=None) for e in corpus]
        cfg = micro_run_config("finetune")
        with pytest.raises(TrainError):
            prepare_corpus(unlabeled, cfg, "finetune")

    def test_empty_manifest(self):
        with pytest.raises(TrainError):
            prepare_corpus([], micro_run_config("finetune"), "finetune")

    def test_sample_rate_mismatch(self, corpus):
        cfg = micro_run_config("finetune")
        wrong = dataclasses.replace(
            cfg, feature=dataclasses.replace(AUDIO, sample_rate=16000)
        )
        with pytest.raises(TrainError):
            prepare_corpus(corpus, wrong, "finetune")


class TestTrainingStep:
    def test_only_trainable_parameters_change(self, corpus, checkpoints):
        cfg = micro_run_config("finetune", learning_rate=1e-2)
        run = start_run(corpus, cfg, init_ckpt=checkpoints["pretrain"])
        named = dict(run.model.named_parameters())
        before = {n: p.data.tobytes() for n, p in named.items()}
        metrics = training_step(run.model, run.optimizer, run.items[:2], cfg.train, 1, run.frozen)
        assert set(metrics) == {"loss_total", "loss_kld", "loss_dur"}
        after = {n: p.data.tobytes() for n, p in named.items()}
        for name in run.frozen:
            assert after[name] == before[name], name
        changed = [n for n in named if n not in run.frozen and after[n] != before[n]]
        assert changed, "no trainable parameter moved"

    def test_recon_included_in_pretrain(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        run = start_run(corpus, cfg, codebook, provider=provider)
        metrics = training_step(run.model, run.optimizer, run.items[:1], cfg.train, 1, run.frozen)
        assert "loss_recon" in metrics
        assert run.model.decoder.calls == 1

    def test_non_finite_loss_leaves_weights_untouched(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        run = start_run(corpus, cfg, codebook, provider=provider)
        named = dict(run.model.named_parameters())
        named["duration.proj.bias"].data[...] = np.nan
        before = {n: p.data.tobytes() for n, p in named.items()}
        with pytest.raises(TrainError, match="non-finite loss"):
            training_step(run.model, run.optimizer, run.items[:1], cfg.train, 1, run.frozen)
        after = {n: p.data.tobytes() for n, p in named.items()}
        assert after == before

    def test_pretrain_step_gradients_match_op_chain(
        self, corpus, codebook, provider, op_chains
    ):
        """Every gradient of a batched step is byte-equal to the one the
        chains of single ops give: the five-node convolution, the
        twelve-node upsampling convolution, the coupling block, the KL and
        the duration loss. The multi-speaker model adds the circularly
        padded reference encoder and the 1-tap speaker projections, and its
        speaker embedding requires grad."""
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)

        def step():
            model = SynthesisModel(
                micro_model_config(multi_speaker=True), AUDIO, "pretrain", seed=0
            )
            opt = AdamW(list(model.named_parameters()), lr=1e-3)
            metrics = training_step(model, opt, items[:3], cfg.train, 1, frozenset())
            return metrics, {n: p.grad for n, p in model.named_parameters()}

        fused_metrics, fused = step()
        op_chains()
        chain_metrics, chain = step()
        assert fused_metrics == chain_metrics
        assert fused.keys() == chain.keys()
        for name, grad in chain.items():
            assert grad is not None, name
            assert fused[name].tobytes() == grad.tobytes(), name
            assert fused[name].strides == grad.strides, name

    def test_finetune_steps_match_op_chain(self, corpus, checkpoints, op_chains):
        """Three multi-speaker fine-tune steps on frozen encodings give the
        bytes of every gradient, parameter and AdamW moment that the chains
        of single ops give; the first flow block's input needs no
        gradient there."""
        fused = _multi_speaker_finetune_steps(corpus, checkpoints, training_step)
        op_chains()
        chain = _multi_speaker_finetune_steps(corpus, checkpoints, training_step)
        _assert_same_history(fused, chain, "grad flow.blocks.1.speaker_proj.weight")


def _graph_nodes(root):
    """Every node of the graph that ends in ``root`` (leaves excluded)."""
    nodes, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        if node._op:
            nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class TestStepGraph:
    def test_finetune_step_records_fused_flow_and_losses(self, corpus, checkpoints, monkeypatch):
        """One multi-speaker fine-tune step at batch 4 records one coupling
        network per flow block and utterance, one KL and one duration node
        per utterance, and no tanh, exp or concat node that depends on a
        flow parameter: the flow's elementwise chains stay fused."""
        run = _multi_speaker_finetune(corpus, checkpoints)
        model, items = run.model, run.items[:4]
        roots = []
        backward = Tensor.backward

        def recording(self, grad=None):
            roots.append(self)
            return backward(self, grad)

        monkeypatch.setattr(Tensor, "backward", recording)
        training_step(model, run.optimizer, items, MS_FINETUNE.train, 1, run.frozen)
        (root,) = roots
        nodes = _graph_nodes(root)
        ops = Counter(node._op for node in nodes)
        batch, blocks = len(items), model.config.flow_blocks
        assert ops["coupling_net"] == ops["affine_coupling"] == blocks * batch
        assert ops["kld_prior"] == ops["duration_mse"] == batch
        assert ops["tanh"] == ops["concat"] == 0
        assert ops["exp"] == batch  # the text priors' std
        flow_params = {id(p) for p in model.flow.parameters()}
        for node in nodes:
            if node._op == "exp":
                ancestors = _graph_nodes(node)
                leaves = {id(p) for n in ancestors for p in n._parents if not p._parents}
                assert not leaves & flow_params


@pytest.fixture
def op_chains(
    monkeypatch, conv1d_chain, upsampled_chain, coupling_chain, kld_chain, duration_chain
):
    """A call that patches every fused op of a training step with the chain
    of single ops it replaces."""

    def patch():
        monkeypatch.setattr(Conv1d, "__call__", conv1d_chain)
        monkeypatch.setattr(Conv1d, "upsampled", upsampled_chain)
        monkeypatch.setattr(CouplingBlock, "forward", coupling_chain)
        monkeypatch.setattr(losses_module, "kld_prior_loss", kld_chain)
        monkeypatch.setattr(losses_module, "duration_loss", duration_chain)

    return patch


MS_FINETUNE = micro_run_config(
    "finetune", multi_speaker=True, seed=2, learning_rate=1e-2, scratch_lr_multiplier=5.0
)


def _multi_speaker_finetune(corpus, checkpoints):
    """A multi-speaker transfer fine-tune from a fresh pre-trained model."""
    return start_run(corpus, MS_FINETUNE, init_ckpt=checkpoints["pretrain-multi"])


def _multi_speaker_finetune_steps(corpus, checkpoints, step_fn):
    """Metrics and :func:`_snapshot` after each of three steps of
    ``step_fn`` at batch 4 in a multi-speaker transfer fine-tune."""
    run = _multi_speaker_finetune(corpus, checkpoints)
    history = []
    for step in range(1, 4):
        batch = [run.items[(step + k) % len(run.items)] for k in range(4)]
        metrics = step_fn(run.model, run.optimizer, batch, MS_FINETUNE.train, step, run.frozen)
        history.append((metrics, _snapshot(run.model, run.optimizer)))
    return history


def _snapshot(model, opt) -> dict[str, bytes | None]:
    """Bytes of every gradient, parameter and AdamW moment."""
    out = {}
    for name, p in model.named_parameters():
        out[f"grad {name}"] = None if p.grad is None else p.grad.tobytes()
        out[f"data {name}"] = p.data.tobytes()
    state = opt.state_dict()
    for slot in ("m", "v"):
        out.update({f"{slot} {n}": a.tobytes() for n, a in state[slot].items()})
    return out


def _assert_same_history(got, want, moved):
    """Equal metrics and :func:`_snapshot` bytes after every step, and the
    snapshot entry ``moved`` set."""
    assert len(got) == len(want)
    for (metrics, snap), (want_metrics, want_snap) in zip(got, want):
        assert metrics == want_metrics
        assert snap.keys() == want_snap.keys()
        for key in want_snap:
            assert snap[key] == want_snap[key], key
        assert snap[moved] is not None


class TestFrozenEncodings:
    def test_step_matches_per_utterance_oracle(self, corpus, checkpoints, per_utterance_step):
        """Three multi-speaker fine-tune steps at batch 4 that reuse frozen
        encodings and align each batch in one search give the bytes of steps
        that encode and align every utterance on their own."""
        runs = [
            _multi_speaker_finetune_steps(corpus, checkpoints, step_fn)
            for step_fn in (training_step, per_utterance_step)
        ]
        _assert_same_history(*runs, "grad flow.blocks.0.conv1.weight")

    def test_mixed_batch_matches_all_encoded_batch(self, corpus, checkpoints):
        """In a transfer fine-tune, items without stored encodings run the
        encoders inside the step; two steps on a batch that mixes both kinds
        give the bytes of steps on a batch in which every item carries its
        encodings."""
        items = prepare_corpus(corpus, MS_FINETUNE, "finetune")[:4]
        runs = []
        for mixed in (False, True):
            run = _multi_speaker_finetune(corpus, checkpoints)
            batch = [items[j] if mixed and j % 2 else run.items[j] for j in range(4)]
            history = []
            for step in (1, 2):
                metrics = training_step(
                    run.model, run.optimizer, batch, MS_FINETUNE.train, step, run.frozen
                )
                history.append((metrics, _snapshot(run.model, run.optimizer)))
            runs.append((batch, history))
        (all_encoded, want_history), (mixed_batch, got_history) = runs
        assert [item.post is None for item in all_encoded] == [False] * 4
        assert [item.post is None for item in mixed_batch] == [False, True, False, True]
        _assert_same_history(got_history, want_history, "m flow.blocks.0.conv1.weight")

    def test_finetune_run_encodes_each_item_once(
        self, tmp_path, corpus, checkpoints, monkeypatch, per_utterance_step
    ):
        ckpt = checkpoints["pretrain-multi"]
        cfg = micro_run_config("finetune", True, iterations=3, batch_size=4)
        calls = {"posterior_encode": 0, "reference_encode": 0}
        for name in calls:
            real = getattr(SynthesisModel, name)

            def counted(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(SynthesisModel, name, counted)
        fast = run_training(corpus, cfg, tmp_path / "fast", init_ckpt=ckpt)
        labeled = len(prepare_corpus(corpus, cfg, "finetune"))
        assert calls == {"posterior_encode": labeled, "reference_encode": labeled}

        monkeypatch.setattr(train_module, "training_step", per_utterance_step)
        slow = run_training(corpus, cfg, tmp_path / "slow", init_ckpt=ckpt)
        assert fast.checkpoint_path.read_bytes() == slow.checkpoint_path.read_bytes()
        assert fast.metrics_path.read_bytes() == slow.metrics_path.read_bytes()

    def test_from_scratch_trains_posterior_and_reference(self, tmp_path, corpus):
        """From scratch every encoder is trainable, so none may be cached."""
        cfg = micro_run_config("finetune", True, from_scratch=True, iterations=1)
        result = run_training(corpus, cfg, tmp_path / "scratch")
        encoders = [
            (n, p) for n, p in result.model.named_parameters()
            if n.startswith(("posterior.", "reference."))
        ]
        assert encoders
        for name, p in encoders:
            assert p.grad is not None and np.any(p.grad != 0), name

    def test_step_refuses_frozen_encodings_of_trainable_encoders(self, corpus):
        cfg = micro_run_config("finetune")
        items = prepare_corpus(corpus, cfg, "finetune")[:2]
        model = SynthesisModel(micro_model_config(), AUDIO, "finetune", seed=0)
        opt = AdamW(list(model.named_parameters()), lr=1e-3)
        encoded = encode_frozen(model, items)
        with pytest.raises(TrainError, match="trainable encoders"):
            training_step(model, opt, encoded, cfg.train, 1, frozenset())
        with pytest.raises(TrainError, match="trainable encoders"):
            training_step(model, opt, [items[0], encoded[1]], cfg.train, 1, frozenset())


def _save_load_roundtrip(model, tmp=None):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.ckpt"
        save_checkpoint(model, p, stage="pretrain", seed=0)
        return load_checkpoint(p)


class TestCheckpointFormat:
    def _model(self, mode="pretrain", seed=3):
        return SynthesisModel(micro_model_config(), AUDIO, mode, seed=seed)

    def test_round_trip_bytes(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, stage="pretrain", seed=9, codebook_hash="abc")
        ckpt = load_checkpoint(path)
        assert ckpt.mode == "pretrain"
        assert ckpt.stage == "pretrain"
        assert ckpt.seed == 9
        assert ckpt.codebook_hash == "abc"
        assert ckpt.config == model.config
        assert ckpt.audio == model.audio
        for name, p in model.named_parameters():
            assert ckpt.params[name].tobytes() == p.data.tobytes()

    def test_resave_identical_bytes(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, stage="pretrain", seed=0)
        rebuilt = build_model_from_checkpoint(load_checkpoint(p1))
        save_checkpoint(rebuilt, p2, stage="pretrain", seed=0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimizer_state_round_trip(self, tmp_path, corpus, codebook, provider):
        cfg = micro_run_config("pretrain", iterations=2)
        run = start_run(corpus, cfg, codebook, provider=provider)
        training_step(run.model, run.optimizer, run.items[:2], cfg.train, 1, run.frozen)
        path = tmp_path / "m.ckpt"
        save_checkpoint(run.model, path, stage="pretrain", optimizer=run.optimizer)
        ckpt = load_checkpoint(path)
        state = run.optimizer.state_dict()
        assert ckpt.optimizer is not None
        assert ckpt.optimizer["step"] == state["step"]
        for name in state["m"]:
            np.testing.assert_array_equal(ckpt.optimizer["m"][name], state["m"][name])
            np.testing.assert_array_equal(ckpt.optimizer["v"][name], state["v"][name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(TrainError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, stage="pretrain")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(TrainError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, stage="pretrain")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrainError, match="trailing"):
            load_checkpoint(path)

    def test_param_mismatch_on_load(self):
        model = self._model()
        ckpt = _save_load_roundtrip(model)
        del ckpt.params[sorted(ckpt.params)[0]]
        with pytest.raises(TrainError, match="mismatch"):
            build_model_from_checkpoint(ckpt)


class TestFinetuneInit:
    def test_carried_and_fresh_parameters(self):
        pre = SynthesisModel(micro_model_config(), AUDIO, "pretrain", seed=4)
        ckpt = _save_load_roundtrip(pre)
        fine = init_finetune_from_pretrained(ckpt, seed=5)
        assert fine.mode == "finetune"
        carried = ("posterior.", "flow.", "decoder.")
        pre_named = dict(pre.named_parameters())
        for name, p in fine.named_parameters():
            if name.startswith(carried):
                assert p.data.tobytes() == pre_named[name].data.tobytes()
            else:
                assert name.startswith(("text_encoder.", "duration."))
        names = {n for n, _ in fine.named_parameters()}
        assert not any(n.startswith("pseudo_encoder.") for n in names)

    def test_requires_pretrain_checkpoint(self):
        fine = SynthesisModel(micro_model_config(), AUDIO, "finetune", seed=0)
        ckpt = Checkpoint(
            config=fine.config,
            audio=AUDIO,
            mode="finetune",
            stage="finetune",
            from_scratch=False,
            codebook_hash=None,
            seed=0,
            params={n: p.data for n, p in fine.named_parameters()},
        )
        with pytest.raises(TrainError):
            init_finetune_from_pretrained(ckpt, seed=0)

    def test_multi_speaker_reference_carried(self):
        pre = SynthesisModel(
            micro_model_config(multi_speaker=True), AUDIO, "pretrain", seed=6
        )
        ckpt = _save_load_roundtrip(pre)
        fine = init_finetune_from_pretrained(ckpt, seed=7)
        pre_named = dict(pre.named_parameters())
        ref = [
            (n, p) for n, p in fine.named_parameters() if n.startswith("reference.")
        ]
        assert ref
        for name, p in ref:
            assert p.data.tobytes() == pre_named[name].data.tobytes()


class TestRunTraining:
    def test_pretrain_writes_metrics_and_checkpoint(
        self, tmp_path, corpus, codebook, provider
    ):
        cfg = micro_run_config("pretrain", iterations=4, log_interval=2)
        result = run_training(
            corpus, cfg, tmp_path / "run", codebook=codebook, provider=provider
        )
        assert result.checkpoint_path.exists()
        lines = result.metrics_path.read_text().splitlines()
        assert len(lines) == 2  # iterations // log_interval
        for line in lines:
            rec = json.loads(line)
            assert {"iter", "loss_total", "loss_kld", "loss_dur", "loss_recon",
                    "lr"} <= set(rec)
        ckpt = load_checkpoint(result.checkpoint_path)
        assert ckpt.stage == "pretrain"
        assert ckpt.codebook_hash == codebook_hash(codebook)
        assert result.decoder_calls > 0

    def test_pretrain_rerun_is_bit_identical(
        self, tmp_path, corpus, codebook, provider
    ):
        cfg = micro_run_config("pretrain", iterations=3)
        r1 = run_training(
            corpus, cfg, tmp_path / "a", codebook=codebook, provider=provider
        )
        r2 = run_training(
            corpus, cfg, tmp_path / "b", codebook=codebook, provider=provider
        )
        assert (
            r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        )
        assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()

    def test_finetune_freezes_and_never_decodes(
        self, tmp_path, corpus, codebook, provider
    ):
        pre_cfg = micro_run_config("pretrain", iterations=2)
        pre = run_training(
            corpus, pre_cfg, tmp_path / "pre", codebook=codebook, provider=provider
        )
        pre_params = load_checkpoint(pre.checkpoint_path).params

        fine_cfg = micro_run_config("finetune", iterations=3)
        fine = run_training(
            corpus, fine_cfg, tmp_path / "fine", init_ckpt=pre.checkpoint_path
        )
        assert fine.decoder_calls == 0
        fine_params = load_checkpoint(fine.checkpoint_path).params
        for name in fine_params:
            if name.startswith(("posterior.", "decoder.")):
                assert fine_params[name].tobytes() == pre_params[name].tobytes(), name
        moved = [
            n for n in fine_params
            if n.startswith("flow.") and fine_params[n].tobytes() != pre_params[n].tobytes()
        ]
        assert moved, "flow did not move during fine-tuning"
        for line in fine.metrics_path.read_text().splitlines():
            rec = json.loads(line)
            assert "loss_recon" not in rec
            assert {"loss_kld", "loss_dur"} <= set(rec)

    def test_finetune_requires_checkpoint(self, tmp_path, corpus):
        cfg = micro_run_config("finetune")
        with pytest.raises(TrainError):
            run_training(corpus, cfg, tmp_path / "x")

    def test_from_scratch_excludes_checkpoint(self, tmp_path, corpus):
        cfg = micro_run_config("finetune", from_scratch=True)
        with pytest.raises(TrainError):
            run_training(corpus, cfg, tmp_path / "x", init_ckpt="whatever.ckpt")

    def test_from_scratch_trains_decoder_too(self, tmp_path, corpus):
        cfg = micro_run_config("finetune", from_scratch=True, iterations=2)
        result = run_training(corpus, cfg, tmp_path / "scratch")
        assert result.decoder_calls > 0
        rec = json.loads(result.metrics_path.read_text().splitlines()[0])
        assert "loss_recon" in rec
        assert load_checkpoint(result.checkpoint_path).from_scratch is True

    def test_periodic_checkpoints_written(self, tmp_path, corpus, codebook, provider):
        cfg = micro_run_config(
            "pretrain", iterations=4, checkpoint_interval=2
        )
        run_training(
            corpus, cfg, tmp_path / "run", codebook=codebook, provider=provider
        )
        files = sorted(p.name for p in (tmp_path / "run").glob("*.ckpt"))
        # Interval checkpoint at iteration 2; the final iteration only
        # produces model_final.ckpt, not a duplicate interval file.
        assert files == ["model_000002.ckpt", "model_final.ckpt"]

    def test_resume_codebook_mismatch_warns(
        self, tmp_path, corpus, codebook, provider
    ):
        cfg = micro_run_config("pretrain", iterations=2)
        pre = run_training(
            corpus, cfg, tmp_path / "pre", codebook=codebook, provider=provider
        )
        other = train_codebook(
            (provider.features_for(e) for e in corpus), k=7, seed=3
        )
        with pytest.warns(UserWarning, match="different codebook"):
            run_training(
                corpus,
                cfg,
                tmp_path / "resumed",
                codebook=other,
                init_ckpt=pre.checkpoint_path,
                provider=provider,
            )

    def test_loss_decreases_when_overfitting(self, tmp_path, corpus):
        # Tiny single-utterance fine-tune from scratch must make progress.
        cfg = micro_run_config(
            "finetune",
            from_scratch=True,
            iterations=40,
            batch_size=1,
            learning_rate=5e-3,
            log_interval=1,
        )
        result = run_training(corpus[:1], cfg, tmp_path / "overfit")
        recs = [json.loads(l) for l in result.metrics_path.read_text().splitlines()]
        first = np.mean([r["loss_total"] for r in recs[:5]])
        last = np.mean([r["loss_total"] for r in recs[-5:]])
        assert last < first


@pytest.mark.parametrize("key,value", [("adversarial", True), ("adversarial_weight", 1.0)])
def test_removed_adversarial_options_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"train": {key: value}})


@pytest.mark.parametrize(
    "section,key",
    [("model", key) for key in (
        "latent_channels", "hidden_channels", "flow_blocks", "flow_hidden", "duration_hidden",
        "decoder_channels", "text_vocab_size", "pseudo_vocab_size", "speaker_embed_dim",
    )] + [
        ("feature", key)
        for key in ("sample_rate", "n_fft", "hop_length", "win_length", "n_mels")
    ] + [("codebook", "k"), ("codebook", "max_iters")],
)
@pytest.mark.parametrize("value", [0, -2])
def test_sizes_below_one_rejected(section, key, value):
    message = rf"\[{section}\]: {key} must be an integer >= 1, got {value}"
    with pytest.raises(ConfigError, match=message):
        config_from_dict({section: {key: value}})


@pytest.mark.parametrize("section,key", [("feature", "n_fft"), ("model", "flow_blocks")])
@pytest.mark.parametrize("value", [1024.5, 2.0, "8"])
def test_non_integer_sizes_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        config_from_dict({section: {key: value}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9, "nan", True, None])
def test_codebook_tol_not_finite_or_negative_rejected(value):
    with pytest.raises(ConfigError, match=r"tol must be a finite number >= 0, got "):
        config_from_dict({"codebook": {"tol": value}})


@pytest.mark.parametrize("value", [-1, 1.5, "x", None])
def test_codebook_seed_not_a_non_negative_integer_rejected(value):
    with pytest.raises(ConfigError, match=r"seed must be an integer >= 0, got "):
        config_from_dict({"codebook": {"seed": value}})


@pytest.mark.parametrize("value", [0, 0.0, 1e-6, np.float64(0.5)])
def test_codebook_tol_accepted(value):
    assert config_from_dict({"codebook": {"tol": value}}).codebook.tol == value


@pytest.mark.parametrize("size", [27, 29])
def test_text_vocab_size_is_the_character_set(size):
    with pytest.raises(ConfigError, match="text_vocab_size must be 28"):
        dataclasses.replace(ModelConfig(), text_vocab_size=size)


@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("nan")])
def test_mel_floor_not_positive_rejected(value):
    with pytest.raises(ConfigError, match="mel_floor must be a finite number > 0, got "):
        config_from_dict({"feature": {"mel_floor": value}})


RANGE = r"fmin and fmax must satisfy 0 <= fmin < fmax <= sample_rate / 2 = "


@pytest.mark.parametrize(
    "values, message",
    [
        ({"fmin": "low"}, "fmin must be a finite number, got 'low'"),
        ({"fmin": float("nan")}, "fmin must be a finite number, got nan"),
        ({"fmin": True}, "fmin must be a finite number, got True"),
        pytest.param(
            {"fmax": float("inf")}, "fmax must be a finite number or null, got inf",
            id="values3-fmax must be a finite number, got inf",
        ),
        ({"fmax": [8000]}, "fmax must be a finite number"),
        ({"fmin": -1.0}, RANGE + "4000, got fmin=-1.0, fmax=None"),
        ({"fmin": 3000, "fmax": 100}, RANGE + "4000, got fmin=3000, fmax=100"),
        ({"fmin": 100, "fmax": 100}, RANGE),
        ({"fmax": 4000.5}, RANGE + "4000, got fmin=0.0, fmax=4000.5"),
        ({"fmin": 4000}, RANGE + "4000, got fmin=4000, fmax=None"),
    ],
)
def test_frequency_range_rejected(values, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"feature": {"sample_rate": 8000, **values}})


@pytest.mark.parametrize(
    "values", [{"fmin": 0, "fmax": 4000}, {"fmin": 3999.5}, {"fmin": np.float64(20.0), "fmax": 3000}]
)
def test_frequency_range_accepted(values):
    cfg = config_from_dict({"feature": {"sample_rate": 8000, **values}})
    assert cfg.feature.fmin == values["fmin"]
