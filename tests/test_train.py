"""Two-stage training: partitioning, corpus prep, steps, checkpoints, loop."""

import dataclasses
import json
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
from pptts.data import load_manifest
from pptts.features import build_provider
from pptts.model import SynthesisModel
from pptts.pseudo import codebook_hash, train_codebook
from pptts.synthetic import generate_synthetic_corpus
from pptts.train import (
    Checkpoint,
    TrainError,
    apply_partition,
    build_model_from_checkpoint,
    encode_frozen,
    init_finetune_from_pretrained,
    load_checkpoint,
    partition_parameters,
    prepare_corpus,
    run_training,
    save_checkpoint,
    training_step,
)
from pptts import train as train_module
from pptts.nn import AdamW, Conv1d


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


def micro_run_config(stage, **train_kw):
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
        model=micro_model_config(),
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
def codebook(corpus):
    provider = build_provider("builtin-mel", AUDIO, entries=corpus, normalize=True)
    return train_codebook(
        (provider.features_for(e) for e in corpus), k=8, seed=0
    )


@pytest.fixture(scope="module")
def provider(corpus):
    return build_provider("builtin-mel", AUDIO, entries=corpus, normalize=True)


class TestPartition:
    def test_pretrain_trains_everything(self):
        model = SynthesisModel(micro_model_config(), AUDIO, "pretrain")
        part = partition_parameters(model, "pretrain")
        assert not part.frozen and not part.finetuned
        assert part.scratch == {n for n, _ in model.named_parameters()}

    def test_finetune_split_by_prefix(self):
        model = SynthesisModel(
            micro_model_config(multi_speaker=True), AUDIO, "finetune"
        )
        part = partition_parameters(model, "finetune")
        for name in part.frozen:
            assert name.startswith(("posterior.", "decoder.", "reference."))
        for name in part.finetuned:
            assert name.startswith("flow.")
        for name in part.scratch:
            assert name.startswith(("text_encoder.", "duration."))
        all_names = {n for n, _ in model.named_parameters()}
        assert part.frozen | part.finetuned | part.scratch == all_names
        # Each bucket is non-empty for a multi-speaker fine-tuning model.
        assert part.frozen and part.finetuned and part.scratch

    def test_reference_frozen_when_multi_speaker(self):
        model = SynthesisModel(
            micro_model_config(multi_speaker=True), AUDIO, "finetune"
        )
        part = partition_parameters(model, "finetune")
        ref = {n for n in part.frozen if n.startswith("reference.")}
        assert ref

    def test_pseudo_encoder_rejected_in_finetune(self):
        model = SynthesisModel(micro_model_config(), AUDIO, "pretrain")
        with pytest.raises(TrainError):
            partition_parameters(model, "finetune")

    def test_unknown_stage(self):
        model = SynthesisModel(micro_model_config(), AUDIO, "pretrain")
        with pytest.raises(TrainError):
            partition_parameters(model, "warmup")

    def test_apply_partition_write_protects(self):
        model = SynthesisModel(micro_model_config(), AUDIO, "finetune")
        part = partition_parameters(model, "finetune")
        apply_partition(model, part)
        named = dict(model.named_parameters())
        frozen_name = sorted(part.frozen)[0]
        assert not named[frozen_name].requires_grad
        assert not named[frozen_name].data.flags.writeable
        trainable_name = sorted(part.trainable)[0]
        assert named[trainable_name].requires_grad


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

    def test_pretrain_requires_codebook(self, corpus):
        cfg = micro_run_config("pretrain")
        with pytest.raises(TrainError):
            prepare_corpus(corpus, cfg, "pretrain", None)

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
    def test_only_trainable_parameters_change(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)
        pre_ckpt = SynthesisModel(cfg.model, AUDIO, "pretrain", seed=1)
        model = init_finetune_from_pretrained(
            _save_load_roundtrip(pre_ckpt), seed=2
        )
        part = partition_parameters(model, "finetune")
        apply_partition(model, part)
        named = dict(model.named_parameters())
        before = {n: p.data.tobytes() for n, p in named.items()}
        fine_items = prepare_corpus(corpus, cfg, "finetune")
        opt = AdamW(
            [(n, named[n]) for n in sorted(part.trainable)], lr=1e-2
        )
        metrics = training_step(
            model, opt, fine_items[:2], cfg.train, 1, part, include_recon=False
        )
        assert set(metrics) == {"loss_total", "loss_kld", "loss_dur"}
        after = {n: p.data.tobytes() for n, p in dict(model.named_parameters()).items()}
        for name in part.frozen:
            assert after[name] == before[name], name
        changed = [n for n in part.trainable if after[n] != before[n]]
        assert changed, "no trainable parameter moved"

    def test_recon_included_in_pretrain(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)
        model = SynthesisModel(cfg.model, AUDIO, "pretrain", seed=0)
        part = partition_parameters(model, "pretrain")
        apply_partition(model, part)
        opt = AdamW(list(model.named_parameters()), lr=1e-3)
        metrics = training_step(
            model, opt, items[:1], cfg.train, 1, part, include_recon=True
        )
        assert "loss_recon" in metrics
        assert model.decoder.calls == 1

    def test_non_finite_loss_leaves_weights_untouched(self, corpus, codebook, provider):
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)
        model = SynthesisModel(cfg.model, AUDIO, "pretrain", seed=0)
        part = partition_parameters(model, "pretrain")
        apply_partition(model, part)
        named = dict(model.named_parameters())
        named["duration.proj.bias"].data[...] = np.nan
        before = {n: p.data.tobytes() for n, p in named.items()}
        opt = AdamW(list(named.items()), lr=1e-3)
        with pytest.raises(TrainError, match="non-finite loss"):
            training_step(model, opt, items[:1], cfg.train, 1, part, include_recon=True)
        after = {n: p.data.tobytes() for n, p in model.named_parameters()}
        assert after == before

    def test_pretrain_step_gradients_match_op_chain(
        self, corpus, codebook, provider, monkeypatch, conv1d_chain, upsampled_chain
    ):
        """Every gradient of a batched step is byte-equal to the one the
        five-node convolution chain and the twelve-node upsampling chain
        give; the multi-speaker model adds the circularly padded reference
        encoder and the 1-tap speaker projections."""
        cfg = micro_run_config("pretrain")
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)

        def step():
            model = SynthesisModel(
                micro_model_config(multi_speaker=True), AUDIO, "pretrain", seed=0
            )
            opt = AdamW(list(model.named_parameters()), lr=1e-3)
            part = partition_parameters(model, "pretrain")
            metrics = training_step(model, opt, items[:3], cfg.train, 1, part, True)
            return metrics, {n: p.grad for n, p in model.named_parameters()}

        fused_metrics, fused = step()
        monkeypatch.setattr(Conv1d, "__call__", conv1d_chain)
        monkeypatch.setattr(Conv1d, "upsampled", upsampled_chain)
        chain_metrics, chain = step()
        assert fused_metrics == chain_metrics
        assert fused.keys() == chain.keys()
        for name, grad in chain.items():
            assert grad is not None, name
            assert fused[name].tobytes() == grad.tobytes(), name
            assert fused[name].strides == grad.strides, name


def _multi_speaker_finetune():
    """A multi-speaker fine-tune model, partitioned, with its optimizer."""
    pre = SynthesisModel(micro_model_config(multi_speaker=True), AUDIO, "pretrain", seed=1)
    model = init_finetune_from_pretrained(_save_load_roundtrip(pre), seed=2)
    part = partition_parameters(model, "finetune")
    apply_partition(model, part)
    named = dict(model.named_parameters())
    opt = AdamW(
        [(n, named[n]) for n in sorted(part.trainable)],
        lr=1e-2,
        lr_scales={n: 5.0 for n in part.scratch},
    )
    return model, opt, part


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


class TestFrozenEncodings:
    def test_step_matches_per_utterance_oracle(self, corpus, per_utterance_step):
        """Three multi-speaker fine-tune steps at batch 4 that reuse frozen
        encodings and align each batch in one search give the bytes of steps
        that encode and align every utterance on their own."""
        cfg = micro_run_config("finetune")
        items = prepare_corpus(corpus, cfg, "finetune")
        runs = []
        for step_fn in (training_step, per_utterance_step):
            model, opt, part = _multi_speaker_finetune()
            encoded = encode_frozen(model, items)
            history = []
            for step in range(1, 4):
                picks = [(step + k) % len(items) for k in range(4)]
                metrics = step_fn(
                    model, opt, [encoded[i] for i in picks], cfg.train, step, part, False
                )
                history.append((metrics, _snapshot(model, opt)))
            runs.append(history)
        for (metrics, got), (want_metrics, want) in zip(*runs):
            assert metrics == want_metrics
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == want[key], key
            assert got["grad flow.blocks.0.conv1.weight"] is not None

    def test_mixed_batch_matches_all_encoded_batch(self, corpus):
        """Under the fine-tune partition, items without stored encodings run
        the encoders inside the step; two steps on a batch that mixes both
        kinds give the bytes of steps on a batch in which every item carries
        its encodings."""
        cfg = micro_run_config("finetune")
        items = prepare_corpus(corpus, cfg, "finetune")[:4]
        runs = []
        for mixed in (False, True):
            model, opt, part = _multi_speaker_finetune()
            encoded = encode_frozen(model, items)
            batch = [items[j] if mixed and j % 2 else encoded[j] for j in range(4)]
            history = []
            for step in (1, 2):
                metrics = training_step(model, opt, batch, cfg.train, step, part, False)
                history.append((metrics, _snapshot(model, opt)))
            runs.append((batch, history))
        (all_encoded, want_history), (mixed_batch, got_history) = runs
        assert [item.post is None for item in all_encoded] == [False] * 4
        assert [item.post is None for item in mixed_batch] == [False, True, False, True]
        for (metrics, got), (want_metrics, want) in zip(got_history, want_history):
            assert metrics == want_metrics
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == want[key], key
            assert got["m flow.blocks.0.conv1.weight"] is not None

    def test_finetune_run_encodes_each_item_once(
        self, tmp_path, corpus, monkeypatch, per_utterance_step
    ):
        model_cfg = micro_model_config(multi_speaker=True)
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(SynthesisModel(model_cfg, AUDIO, "pretrain", seed=1), ckpt, "pretrain")
        cfg = dataclasses.replace(
            micro_run_config("finetune", iterations=3, batch_size=4), model=model_cfg
        )
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
        cfg = dataclasses.replace(
            micro_run_config("finetune", from_scratch=True, iterations=1),
            model=micro_model_config(multi_speaker=True),
        )
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
        part = partition_parameters(model, "pretrain")
        opt = AdamW(list(model.named_parameters()), lr=1e-3)
        encoded = encode_frozen(model, items)
        with pytest.raises(TrainError, match="trainable encoders"):
            training_step(model, opt, encoded, cfg.train, 1, part, True)
        with pytest.raises(TrainError, match="trainable encoders"):
            training_step(model, opt, [items[0], encoded[1]], cfg.train, 1, part, True)


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
        model = SynthesisModel(cfg.model, AUDIO, "pretrain", seed=0)
        part = partition_parameters(model, "pretrain")
        apply_partition(model, part)
        items = prepare_corpus(corpus, cfg, "pretrain", codebook, provider)
        opt = AdamW(list(model.named_parameters()), lr=1e-3)
        training_step(model, opt, items[:2], cfg.train, 1, part, True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, stage="pretrain", optimizer=opt)
        ckpt = load_checkpoint(path)
        state = opt.state_dict()
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
        part = partition_parameters(fine.model, "finetune")
        for name in part.frozen:
            assert fine_params[name].tobytes() == pre_params[name].tobytes(), name
        moved = [
            n for n in part.finetuned
            if fine_params[n].tobytes() != pre_params[n].tobytes()
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
    ],
)
@pytest.mark.parametrize("value", [0, -2])
def test_sizes_below_one_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        config_from_dict({section: {key: value}})
