"""Command-line behavior: exit codes, config plumbing, reproducible outputs."""

import json
import struct
from pathlib import Path

import pytest

import numpy as np

from pptts import cli, evaluate
from pptts.audio import read_wav
from pptts.cli import main
from pptts.config import load_config
from pptts.data import load_manifest
from pptts.evaluate import evaluate_manifest
from pptts.features import build_provider, write_feature_file
from pptts.pseudo import (
    Codebook, codebook_provider, load_codebook, merge_runs, quantize, save_codebook,
)
from pptts.train import build_model_from_checkpoint, load_checkpoint, run_training, save_checkpoint


MICRO_CONFIG = {
    "feature": {
        "sample_rate": 8000,
        "n_fft": 128,
        "hop_length": 64,
        "win_length": 128,
        "n_mels": 10,
    },
    "model": {
        "latent_channels": 8,
        "hidden_channels": 16,
        "flow_blocks": 2,
        "flow_hidden": 12,
        "duration_hidden": 8,
        "decoder_channels": 12,
        "pseudo_vocab_size": 11,
        "speaker_embed_dim": 6,
    },
    "codebook": {"k": 6},
    "train": {"log_interval": 1},
}


def run(*argv):
    return main([str(a) for a in argv])


def _checkpoint_bytes(header: dict) -> bytes:
    raw = json.dumps(header).encode()
    return b"TTSCKPT1" + struct.pack("<II", 1, len(raw)) + raw


def _codebook_bytes(mean: str, std: str) -> bytes:
    """A one-centroid 2-dim PPCB2 codebook with the given stats rows."""
    return (
        "PPCB2 k=1 dim=2 seed=0 provider=builtin-mel sample_rate=8000 n_fft=128 "
        "hop_length=64 win_length=128 center=true n_mels=2 fmin=0.0 fmax=null "
        f"mel_floor=1e-05\nmean {mean}\nstd {std}\n0.0 0.0\n"
    ).encode()


# (kind, file bytes) of each malformed input: FTFX feature file, WAV,
# checkpoint, codebook.
CORRUPT_INPUTS = {
    "codebook-stats-row-short": ("codebook", _codebook_bytes("0.0", "1.0 1.0")),
    "codebook-stats-row-not-numeric": ("codebook", _codebook_bytes("0.0 zero", "1.0 1.0")),
    "codebook-std-zero": ("codebook", _codebook_bytes("0.0 0.0", "1.0 0.0")),
    "codebook-std-negative": ("codebook", _codebook_bytes("0.0 0.0", "-1.0 1.0")),
    "ftfx-cut-in-header": ("ftfx", b"FTFX\x03\x00\x00"),
    "ftfx-claims-huge-body": (
        "ftfx", b"FTFX" + struct.pack("<IIf", 0xFFFFFFFF, 0xFFFFFFFF, 25.0)
    ),
    "wav-empty": ("wav", b""),
    "wav-riff-garbage": ("wav", b"RIFF" + bytes(range(40))),
    "ckpt-cut-in-prefix": ("ckpt", b"TTSCKPT1\x01\x00"),
    "ckpt-no-params-or-config": (
        "ckpt", _checkpoint_bytes({"mode": "finetune", "stage": "finetune"})
    ),
    "ckpt-zero-size": (
        "ckpt",
        _checkpoint_bytes({
            "params": [], "config": {"hidden_channels": 0}, "audio": {},
            "mode": "finetune", "stage": "finetune",
        }),
    ),
    "ckpt-text-vocab-27": (
        "ckpt",
        _checkpoint_bytes({
            "params": [], "config": {"text_vocab_size": 27}, "audio": {},
            "mode": "finetune", "stage": "finetune",
        }),
    ),
    "ckpt-bad-shape": (
        "ckpt",
        _checkpoint_bytes({
            "params": [{"name": "w", "shape": ["x"], "dtype": "float32"}],
            "config": {}, "audio": {}, "mode": "finetune", "stage": "finetune",
        }),
    ),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + config + codebook + tiny pretrain/finetune checkpoints."""
    root = tmp_path_factory.mktemp("cli_ws")
    config = root / "config.json"
    config.write_text(json.dumps(MICRO_CONFIG))

    corpus = root / "corpus"
    assert (
        run(
            "make-synthetic", "--out-dir", corpus, "--n-utts", 5,
            "--seed", 0, "--sample-rate", 8000, "--alphabet", "abcd",
        )
        == 0
    )
    manifest = corpus / "manifest.jsonl"

    codebook = root / "codebook.txt"
    assert (
        run(
            "codebook", "--config", config, "--manifest", manifest,
            "--out", codebook, "--k", 6, "--seed", 0,
        )
        == 0
    )

    pre_dir = root / "pre"
    assert (
        run(
            "pretrain", "--config", config, "--manifest", manifest,
            "--codebook", codebook, "--out-dir", pre_dir,
            "--iterations", 2, "--batch-size", 2, "--seed", 0,
        )
        == 0
    )

    fine_dir = root / "fine"
    assert (
        run(
            "finetune", "--config", config, "--manifest", manifest,
            "--init-ckpt", pre_dir / "model_final.ckpt", "--out-dir", fine_dir,
            "--iterations", 2, "--batch-size", 2, "--seed", 0,
        )
        == 0
    )

    return {
        "root": root,
        "config": config,
        "manifest": manifest,
        "codebook": codebook,
        "pre_ckpt": pre_dir / "model_final.ckpt",
        "fine_ckpt": fine_dir / "model_final.ckpt",
    }


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for cmd in (
            "codebook", "tokenize", "pretrain", "finetune",
            "synthesize", "eval", "make-synthetic",
        ):
            assert run(cmd, "--help") == 0
            assert "--" in capsys.readouterr().out

    def test_no_command_exits_two(self, capsys):
        assert run() == 2

    def test_missing_required_flag_exits_two(self):
        assert run("codebook") == 2

    def test_unknown_command_exits_two(self):
        assert run("frobnicate") == 2

    def test_malformed_set_exits_two(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb2.txt", "--set", "nonsense",
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_wrongly_typed_config_value_exits_one(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb4.txt", "--set", 'model.flow_blocks="a"',
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [model]")

    def test_text_vocab_size_other_than_the_character_set_exits_one(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb5.txt", "--set", "model.text_vocab_size=27",
        )
        assert code == 1
        assert "text_vocab_size must be 28" in capsys.readouterr().err

    def test_non_numeric_fmin_exits_one(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb6.txt", "--set", 'feature.fmin="low"',
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "fmin must be a finite number, got 'low'" in err

    def test_unknown_config_key_exits_one(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb3.txt", "--set", "model.bogus=1",
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestMakeSyntheticCommand:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sample-rate", "0", "sample_rate must be an integer >= 1, got 0"),
            ("--formant-jitter", "-1", "formant_jitter must be a finite number with 0 <= "),
            ("--formant-jitter", "nan", "formant_jitter must be a finite number with 0 <= "),
        ],
    )
    def test_invalid_flag_exits_one_before_writing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "corpus"
        code = run("make-synthetic", "--out-dir", out, "--n-utts", 1, flag, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()


class TestCodebookCommand:
    def test_reports_stats_and_echoes_config(self, workspace, capsys):
        out = workspace["root"] / "cb_echo.txt"
        code = run(
            "codebook", "--config", workspace["config"],
            "--manifest", workspace["manifest"], "--out", out,
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "k=6" in text and "inertia=" in text
        echo = out.parent / (out.name + ".config.json")
        assert echo.exists()
        assert json.loads(echo.read_text())["codebook"]["k"] == 6

    def test_flag_overrides_config(self, workspace, capsys):
        out = workspace["root"] / "cb_k4.txt"
        code = run(
            "codebook", "--config", workspace["config"],
            "--manifest", workspace["manifest"], "--out", out, "--k", 4,
        )
        assert code == 0
        assert "k=4" in capsys.readouterr().out

    def test_set_override(self, workspace, capsys):
        out = workspace["root"] / "cb_k5.txt"
        code = run(
            "codebook", "--config", workspace["config"],
            "--manifest", workspace["manifest"], "--out", out,
            "--set", "codebook.k=5",
        )
        assert code == 0
        assert "k=5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override, message",
        [
            pytest.param(
                "codebook.k=0", "[codebook]: k must be an integer >= 1, got 0",
                id="codebook.k=0-k must be >= 1",
            ),
            pytest.param(
                "codebook.tol=nan", "[codebook]: tol must be a finite number >= 0, got 'nan'",
                id="codebook.tol=nan-tol must be a finite number >= 0, got 'nan'",
            ),
            pytest.param(
                "codebook.tol=-1", "[codebook]: tol must be a finite number >= 0, got -1",
                id="codebook.tol=-1-tol must be a finite number >= 0, got -1",
            ),
            pytest.param(
                "codebook.max_iters=0", "[codebook]: max_iters must be an integer >= 1, got 0",
                id="codebook.max_iters=0-max_iters must be >= 1",
            ),
            pytest.param(
                "codebook.max_iters=-2", "[codebook]: max_iters must be an integer >= 1, got -2",
                id="codebook.max_iters=-2-max_iters must be >= 1",
            ),
            pytest.param(
                "codebook.seed=1.5", "[codebook]: seed must be an integer >= 0, got 1.5",
                id="codebook.seed=1.5-seed must be an integer >= 0, got 1.5",
            ),
            (
                "feature.center=False",
                "[feature]: center must be true or false, got 'False'",
            ),
        ],
    )
    def test_invalid_codebook_section_exits_one(self, workspace, tmp_path, capsys, override, message):
        out = tmp_path / "cb.txt"
        code = run(
            "codebook", "--config", workspace["config"], "--manifest", workspace["manifest"],
            "--out", out, "--set", override,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_manifest_exits_one(self, workspace):
        assert (
            run(
                "codebook", "--manifest", "/nonexistent/m.jsonl",
                "--out", workspace["root"] / "cb4.txt",
            )
            == 1
        )


    def test_wrongly_typed_manifest_text_exits_one(self, workspace, tmp_path, capsys):
        lines = Path(workspace["manifest"]).read_text().splitlines()
        first = dict(json.loads(lines[0]), text=5)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        code = run(
            "finetune", "--config", workspace["config"], "--manifest", manifest,
            "--init-ckpt", workspace["pre_ckpt"], "--out-dir", tmp_path / "out",
            "--iterations", 1,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{manifest}:1: text" in err
        assert "Traceback" not in err

    def test_non_finite_precomputed_frame_exits_one(self, workspace, tmp_path, capsys):
        rng = np.random.default_rng(1)
        for i, entry in enumerate(load_manifest(workspace["manifest"])):
            values = rng.normal(size=(9, 3))
            if i == 2:
                values[4, 0] = np.nan
            write_feature_file(tmp_path / f"{entry.id}.ftfx", values, 25.0)
        code = run(
            "codebook", "--manifest", workspace["manifest"], "--out", tmp_path / "cb.txt",
            "--k", 2, "--set", "codebook.provider=precomputed",
            "--set", f"codebook.feature_dir={tmp_path}",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: feature frame 22 (frame 4 of feature item 2) holds a value that is not finite\n"
        )


class TestTokenizeCommand:
    def test_jsonl_output_and_determinism(self, workspace):
        out1 = workspace["root"] / "tok1.jsonl"
        out2 = workspace["root"] / "tok2.jsonl"
        for out in (out1, out2):
            code = run(
                "tokenize", "--config", workspace["config"],
                "--manifest", workspace["manifest"],
                "--codebook", workspace["codebook"], "--out", out,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"durations", "id", "tokens"}
            assert len(rec["tokens"]) == len(rec["durations"])
            assert all(d >= 1 for d in rec["durations"])
            # Merged runs: no adjacent repeats.
            assert all(
                a != b for a, b in zip(rec["tokens"], rec["tokens"][1:])
            )

    def test_prints_unit_statistics(self, workspace, tmp_path, capsys):
        out = tmp_path / "tok.jsonl"
        assert run("tokenize", "--manifest", workspace["manifest"],
                   "--codebook", workspace["codebook"], "--out", out) == 0
        codebook = load_codebook(workspace["codebook"])
        provider = codebook_provider(workspace["codebook"], codebook)
        entries = load_manifest(workspace["manifest"])
        runs = [merge_runs(quantize(provider.features_for(e), codebook)) for e in entries]
        durations = np.concatenate([d for _, d in runs])
        share = np.mean(durations == 1)
        assert capsys.readouterr().err == (
            f"units: {len(entries)} utterances, {durations.sum()} frames, {len(durations)} runs, "
            f"{share:.1%} one-frame runs\n"
        )
        assert 0 < share < 1

    def test_sub_manifest_gets_the_full_corpus_tokens(self, workspace, tmp_path):
        # The standardization comes from the codebook, not from a fit on
        # the manifest given.
        lines = Path(workspace["manifest"]).read_text().splitlines()
        sub = tmp_path / "sub.jsonl"
        sub.write_text("\n".join(lines[1:3]) + "\n")
        records = {}
        for name, manifest in (("full", workspace["manifest"]), ("sub", sub)):
            out = tmp_path / f"{name}.jsonl"
            assert run("tokenize", "--config", workspace["config"], "--manifest", manifest,
                       "--codebook", workspace["codebook"], "--out", out) == 0
            records[name] = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records["sub"]] == [json.loads(l)["id"] for l in lines[1:3]]
        assert records["sub"] == records["full"][1:3]

    def test_precomputed_codebook_reads_the_configured_feature_dir(
        self, workspace, tmp_path, capsys
    ):
        rng = np.random.default_rng(0)
        for entry in load_manifest(workspace["manifest"]):
            write_feature_file(tmp_path / f"{entry.id}.ftfx", rng.normal(size=(9, 3)), 25.0)
        flags = ["--set", "codebook.provider=precomputed", "--set", f"codebook.feature_dir={tmp_path}"]
        codebook = tmp_path / "cb.txt"
        assert run("codebook", "--manifest", workspace["manifest"], "--out", codebook,
                   "--k", 2, *flags) == 0
        assert codebook.read_text().splitlines()[0] == "PPCB2 k=2 dim=3 seed=0 provider=precomputed"
        out = tmp_path / "tok.jsonl"
        argv = ["tokenize", "--manifest", workspace["manifest"], "--codebook", codebook, "--out", out]
        assert run(*argv, flags[2], flags[3]) == 0
        assert len(out.read_text().splitlines()) == 5
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: {codebook}: precomputed features need codebook.feature_dir\n"
        )

    @pytest.mark.parametrize(
        "header, field",
        [("k=6 dim=10 seed=0", "'provider'"), ("k=6 dim seed=0 provider=x", "'dim'")],
    )
    def test_malformed_codebook_header_exits_one(
        self, workspace, tmp_path, capsys, header, field
    ):
        rows = Path(workspace["codebook"]).read_text().splitlines()[1:]
        broken = tmp_path / "cb.txt"
        broken.write_text("\n".join([f"PPCB2 {header}"] + rows) + "\n")
        code = run(
            "tokenize", "--config", workspace["config"],
            "--manifest", workspace["manifest"],
            "--codebook", broken, "--out", tmp_path / "tok.jsonl",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(broken) in err and field in err


@pytest.fixture(scope="module")
def v1_codebook(workspace):
    """The workspace codebook without its front end, as a PPCB1 file held
    it: no audio config and no standardization."""
    cb = load_codebook(workspace["codebook"])
    path = workspace["root"] / "codebook_v1.txt"
    rows = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in cb.centroids)
    path.write_text(f"PPCB2 k={cb.k} dim={cb.dim} seed={cb.seed} provider={cb.provider_id}\n" + rows)
    return path


class TestV1Codebook:
    def test_loads_without_front_end(self, workspace, v1_codebook):
        cb = load_codebook(v1_codebook)
        assert cb.centroids.tobytes() == load_codebook(workspace["codebook"]).centroids.tobytes()
        assert (cb.audio, cb.mean, cb.std) == (None, None, None)

    @pytest.mark.parametrize("command", ["tokenize", "pretrain", "eval"])
    def test_quantizing_commands_exit_one(self, workspace, v1_codebook, tmp_path, capsys, command):
        argv = {
            "tokenize": ["--out", tmp_path / "tok.jsonl"],
            "pretrain": ["--config", workspace["config"], "--out-dir", tmp_path / "pre",
                         "--iterations", 1],
            "eval": ["--ckpt", workspace["fine_ckpt"], "--out", tmp_path / "r.json"],
        }[command]
        code = run(command, "--manifest", workspace["manifest"], "--codebook", v1_codebook, *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {v1_codebook}: ") and "re-run `pptts codebook`" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestTrainingCommands:
    @pytest.mark.parametrize(
        "key",
        [
            "model.hidden_channels",
            "model.latent_channels",
            "model.flow_hidden",
            "model.decoder_channels",
            "feature.win_length",
            "feature.mel_floor",
        ],
    )
    def test_zero_size_exits_one(self, workspace, tmp_path, capsys, key):
        out_dir = tmp_path / "pre"
        code = run(
            "pretrain", "--config", workspace["config"],
            "--manifest", workspace["manifest"], "--codebook", workspace["codebook"],
            "--out-dir", out_dir, "--iterations", 1, "--set", f"{key}=0",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.split(".")[1] in err
        assert "Traceback" not in err
        assert not (out_dir / "model_final.ckpt").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            (
                "model.multi_speaker=False",
                "[model]: multi_speaker must be true or false, got 'False'",
            ),
            (
                'train.learning_rate="abc"',
                "[train]: learning_rate must be a finite number >= 0, got 'abc'",
            ),
            ("train.seed=1.5", "[train]: seed must be an integer >= 0, got 1.5"),
            ("train.batch_size=1.5", "[train]: batch_size must be an integer >= 1, got 1.5"),
            (
                "train.checkpoint_interval=-3",
                "[train]: checkpoint_interval must be an integer >= 0, got -3",
            ),
        ],
    )
    def test_mistyped_setting_exits_one_before_training(
        self, workspace, tmp_path, capsys, override, message
    ):
        out_dir = tmp_path / "pre"
        code = run(
            "pretrain", "--config", workspace["config"],
            "--manifest", workspace["manifest"], "--codebook", workspace["codebook"],
            "--out-dir", out_dir, "--iterations", 1, "--set", override,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ("model.multi_speaker=true", "[model]: multi_speaker is False in the checkpoint, True"),
            ("model.flow_hidden=16", "[model]: flow_hidden is 12 in the checkpoint, 16"),
            ("feature.n_mels=16", "[feature]: n_mels is 10 in the checkpoint, 16 in the config"),
        ],
    )
    def test_checkpoint_mismatch_names_the_field(self, workspace, tmp_path, capsys, override,
                                                 message):
        code = run(
            "finetune", "--config", workspace["config"], "--manifest", workspace["manifest"],
            "--init-ckpt", workspace["pre_ckpt"], "--out-dir", tmp_path / "fine", "--set", override,
        )
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 1 and line.startswith("error: ") and message in line
        assert not (tmp_path / "fine" / "model_final.ckpt").exists()

    def test_pretrain_outputs(self, workspace):
        pre_dir = workspace["pre_ckpt"].parent
        assert (pre_dir / "config.json").exists()
        assert (pre_dir / "metrics.jsonl").exists()
        assert workspace["pre_ckpt"].exists()
        rec = json.loads((pre_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert "loss_recon" in rec

    def test_pretrain_equals_library_run_on_the_codebook_corpus(self, workspace, tmp_path):
        # The codebook's corpus is the pretrain manifest, so fitting the
        # provider on it gives the standardization the codebook records.
        pre_dir = workspace["pre_ckpt"].parent
        cfg = load_config(pre_dir / "config.json")
        entries = load_manifest(workspace["manifest"])
        result = run_training(
            entries, cfg, tmp_path / "lib",
            codebook=load_codebook(workspace["codebook"]),
            provider=build_provider("builtin-mel", cfg.feature, entries=entries),
        )
        assert result.checkpoint_path.read_bytes() == workspace["pre_ckpt"].read_bytes()
        assert result.metrics_path.read_bytes() == (pre_dir / "metrics.jsonl").read_bytes()

    def test_finetune_outputs(self, workspace):
        fine_dir = workspace["fine_ckpt"].parent
        rec = json.loads((fine_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert "loss_recon" not in rec

    def test_finetune_requires_exactly_one_init(self, workspace, capsys):
        both = run(
            "finetune", "--config", workspace["config"],
            "--manifest", workspace["manifest"],
            "--init-ckpt", workspace["pre_ckpt"], "--from-scratch",
            "--out-dir", workspace["root"] / "x1",
        )
        neither = run(
            "finetune", "--config", workspace["config"],
            "--manifest", workspace["manifest"],
            "--out-dir", workspace["root"] / "x2",
        )
        assert both == 2 and neither == 2

    def test_pretrain_bad_codebook_path_exits_one(self, workspace):
        assert (
            run(
                "pretrain", "--config", workspace["config"],
                "--manifest", workspace["manifest"],
                "--codebook", "/nonexistent/cb.txt",
                "--out-dir", workspace["root"] / "x3",
                "--iterations", 1,
            )
            == 1
        )


class TestSynthesizeCommand:
    def test_writes_wav_and_duration_breakdown(self, workspace, capsys):
        out = workspace["root"] / "synth.wav"
        code = run(
            "synthesize", "--ckpt", workspace["fine_ckpt"],
            "--text", "ab cd", "--out", out, "--seed", 3,
        )
        assert code == 0
        text = capsys.readouterr().out
        assert out.exists()
        assert "token durations:" in text
        assert "'a':" in text and "frames" in text
        assert "total:" in text

    def test_rerun_is_byte_identical(self, workspace):
        a = workspace["root"] / "det_a.wav"
        b = workspace["root"] / "det_b.wav"
        for out in (a, b):
            assert (
                run(
                    "synthesize", "--ckpt", workspace["fine_ckpt"],
                    "--text", "abcd", "--out", out, "--seed", 7,
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_noise_scale_zero_ignores_seed(self, workspace):
        a = workspace["root"] / "ns0_a.wav"
        b = workspace["root"] / "ns0_b.wav"
        for out, seed in ((a, 1), (b, 42)):
            assert (
                run(
                    "synthesize", "--ckpt", workspace["fine_ckpt"],
                    "--text", "abcd", "--out", out,
                    "--noise-scale", 0.0, "--seed", seed,
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_empty_text_exits_two(self, workspace):
        assert (
            run(
                "synthesize", "--ckpt", workspace["fine_ckpt"],
                "--text", "  ", "--out", workspace["root"] / "e.wav",
            )
            == 2
        )

    def test_pretrain_checkpoint_rejected(self, workspace, capsys):
        code = run(
            "synthesize", "--ckpt", workspace["pre_ckpt"],
            "--text", "abcd", "--out", workspace["root"] / "p.wav",
        )
        assert code == 2
        assert "text-capable" in capsys.readouterr().err

    def test_unknown_character_exits_one(self, workspace):
        assert (
            run(
                "synthesize", "--ckpt", workspace["fine_ckpt"],
                "--text", "ab#cd", "--out", workspace["root"] / "u.wav",
            )
            == 1
        )

    @pytest.mark.parametrize("scale", ["-1", "0", "nan"])
    def test_length_scale_not_positive_exits_one(self, workspace, tmp_path, capsys, scale):
        out = tmp_path / "s.wav"
        code = run(
            "synthesize", "--ckpt", workspace["fine_ckpt"], "--text", "abcd",
            "--out", out, "--length-scale", scale,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: length_scale must be a finite number > 0, got {float(scale)!r}\n"
        assert not out.exists()

    def test_bad_scale_refused_before_reading_the_reference(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(cli, "read_wav", lambda path: reads.append(path) or read_wav(path))
        ref = load_manifest(workspace["manifest"])[0].audio_path
        out = tmp_path / "s.wav"
        code = run(
            "synthesize", "--ckpt", workspace["fine_ckpt"], "--text", "abcd",
            "--out", out, "--ref-wav", ref, "--noise-scale", "-1",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: noise_scale must be a finite number >= 0, got -1.0\n"
        )
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize(
        "bias,message", [(float("nan"), "non-finite"), (1e4, "exceeds"), (15.0, "exceeds")]
    )
    def test_unbounded_duration_exits_one(self, workspace, capsys, bias, message):
        model = build_model_from_checkpoint(load_checkpoint(workspace["fine_ckpt"]))
        dict(model.named_parameters())["duration.proj.bias"].data[...] = bias
        ckpt = workspace["root"] / "long.ckpt"
        save_checkpoint(model, ckpt, stage="finetune")
        out = workspace["root"] / "long.wav"
        code = run("synthesize", "--ckpt", ckpt, "--text", "abcd", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEvalCommand:
    def test_report_written(self, workspace, capsys):
        out = workspace["root"] / "report.json"
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"],
            "--codebook", workspace["codebook"], "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["count"] == 5
        assert "mel_l1" in report["aggregate"]
        assert "token_acc" in report["aggregate"]
        assert "wrote" in capsys.readouterr().out

    def test_without_config_scores_at_checkpoint_audio(self, workspace, capsys):
        # The corpus is 8 kHz; the default feature config is 22050 Hz. The
        # report equals the library's with the provider fitted on the
        # codebook's corpus, which is this manifest.
        out = workspace["root"] / "report_plain.json"
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"],
            "--codebook", workspace["codebook"], "--out", out,
        )
        assert code == 0, capsys.readouterr().err
        entries = load_manifest(workspace["manifest"])
        ckpt = load_checkpoint(workspace["fine_ckpt"])
        report = evaluate_manifest(
            build_model_from_checkpoint(ckpt), entries,
            codebook=load_codebook(workspace["codebook"]),
            provider=build_provider("builtin-mel", ckpt.audio, entries=entries),
        )
        assert "token_acc" in report.aggregate
        assert json.loads(out.read_text()) == json.loads(json.dumps(report.to_dict()))

    def test_help_lists_no_config_flags(self, capsys):
        assert run("eval", "--help") == 0
        text = capsys.readouterr().out
        assert "--codebook" in text
        assert "--config" not in text and "--set" not in text

    def test_works_without_codebook(self, workspace):
        out = workspace["root"] / "report_nocb.json"
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"], "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "token_acc" not in report["aggregate"]

    def test_missing_audio_reports_errors_and_exits_one(
        self, workspace, tmp_path, capsys
    ):
        lines = Path(workspace["manifest"]).read_text().splitlines()
        first = json.loads(lines[0])
        first["audio_path"] = "/nonexistent/gone.wav"
        broken = tmp_path / "broken.jsonl"
        broken.write_text(
            json.dumps(first) + "\n" + "\n".join(lines[1:]) + "\n"
        )
        out = tmp_path / "report.json"
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"], "--manifest", broken,
            "--out", out,
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["aggregate"]["error_count"] == 1
        assert len(report["records"]) == 4

    def test_precomputed_provider_exits_one(self, workspace, tmp_path, capsys):
        centroids = load_codebook(workspace["codebook"]).centroids
        codebook = tmp_path / "precomputed.txt"
        save_codebook(codebook, Codebook(centroids, seed=0, provider_id="precomputed"))
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"],
            "--codebook", codebook, "--out", tmp_path / "r.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {codebook}: ") and "no precomputed features" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--length-scale", "--noise-scale"])
    def test_bad_scale_refused_once_before_reading_audio(
        self, workspace, tmp_path, capsys, monkeypatch, flag
    ):
        reads = []
        monkeypatch.setattr(
            evaluate, "read_wav", lambda path: reads.append(path) or read_wav(path)
        )
        out = tmp_path / "r.json"
        code = run(
            "eval", "--ckpt", workspace["fine_ckpt"], "--manifest", workspace["manifest"],
            "--codebook", workspace["codebook"], "--out", out, flag, "-1",
        )
        assert code == 1
        name = flag[2:].replace("-", "_")
        bound = "> 0" if name == "length_scale" else ">= 0"
        assert capsys.readouterr().err == (
            f"error: {name} must be a finite number {bound}, got -1.0\n"
        )
        assert reads == [] and not out.exists()

    def test_pretrain_checkpoint_exits_one(self, workspace):
        assert (
            run(
                "eval", "--ckpt", workspace["pre_ckpt"],
                "--manifest", workspace["manifest"],
                "--out", workspace["root"] / "r.json",
            )
            == 1
        )


class TestCorruptInputs:
    @pytest.mark.parametrize("case", sorted(CORRUPT_INPUTS))
    def test_exits_one_naming_the_file(self, workspace, tmp_path, capsys, case):
        kind, data = CORRUPT_INPUTS[case]
        lines = Path(workspace["manifest"]).read_text().splitlines()
        first = json.loads(lines[0])
        if kind == "ckpt":
            bad = tmp_path / "bad.ckpt"
            argv = ["synthesize", "--ckpt", bad, "--text", "abcd", "--out", tmp_path / "o.wav"]
        elif kind == "codebook":
            bad = tmp_path / "bad.txt"
            argv = [
                "tokenize", "--manifest", workspace["manifest"], "--codebook", bad,
                "--out", tmp_path / "tok.jsonl",
            ]
        else:
            manifest = workspace["manifest"]
            if kind == "wav":
                bad = tmp_path / "bad.wav"
                first["audio_path"] = str(bad)
                manifest = tmp_path / "manifest.jsonl"
                manifest.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
            argv = [
                "codebook", "--config", workspace["config"], "--manifest", manifest,
                "--out", tmp_path / "cb.txt",
            ]
            if kind == "ftfx":
                bad = tmp_path / f"{first['id']}.ftfx"
                argv += [
                    "--set", "codebook.provider=precomputed",
                    "--set", f"codebook.feature_dir={tmp_path}",
                ]
        bad.write_bytes(data)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err
