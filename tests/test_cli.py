"""Command-line behavior: exit codes, config plumbing, reproducible outputs."""

import json
import struct
from pathlib import Path

import pytest

from pptts.cli import main
from pptts.train import build_model_from_checkpoint, load_checkpoint, save_checkpoint


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


# (kind, file bytes) of each malformed input: FTFX feature file, WAV, checkpoint.
CORRUPT_INPUTS = {
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

    def test_unknown_config_key_exits_one(self, workspace, capsys):
        code = run(
            "codebook", "--manifest", workspace["manifest"],
            "--out", workspace["root"] / "cb3.txt", "--set", "model.bogus=1",
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "header, field",
        [("k=6 dim=10 seed=0", "'provider'"), ("k=6 dim seed=0 provider=x", "'dim'")],
    )
    def test_malformed_codebook_header_exits_one(
        self, workspace, tmp_path, capsys, header, field
    ):
        rows = Path(workspace["codebook"]).read_text().splitlines()[1:]
        broken = tmp_path / "cb.txt"
        broken.write_text("\n".join([f"PPCB1 {header}"] + rows) + "\n")
        code = run(
            "tokenize", "--config", workspace["config"],
            "--manifest", workspace["manifest"],
            "--codebook", broken, "--out", tmp_path / "tok.jsonl",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(broken) in err and field in err


class TestTrainingCommands:
    @pytest.mark.parametrize(
        "key",
        [
            "model.hidden_channels",
            "model.latent_channels",
            "model.flow_hidden",
            "model.decoder_channels",
            "feature.win_length",
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

    def test_pretrain_outputs(self, workspace):
        pre_dir = workspace["pre_ckpt"].parent
        assert (pre_dir / "config.json").exists()
        assert (pre_dir / "metrics.jsonl").exists()
        assert workspace["pre_ckpt"].exists()
        rec = json.loads((pre_dir / "metrics.jsonl").read_text().splitlines()[0])
        assert "loss_recon" in rec

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

    @pytest.mark.parametrize(
        "bias,message", [(float("nan"), "non-finite"), (1e4, "exceeds"), (15.0, "exceeds")]
    )
    def test_unbounded_duration_exits_one(self, workspace, capsys, bias, message):
        model = build_model_from_checkpoint(load_checkpoint(workspace["fine_ckpt"]))
        model.parameter_dict()["duration.proj.bias"].data[...] = bias
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
            "eval", "--config", workspace["config"],
            "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"],
            "--codebook", workspace["codebook"], "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["count"] == 5
        assert "mel_l1" in report["aggregate"]
        assert "token_acc" in report["aggregate"]
        assert "wrote" in capsys.readouterr().out

    def test_works_without_codebook(self, workspace):
        out = workspace["root"] / "report_nocb.json"
        code = run(
            "eval", "--config", workspace["config"],
            "--ckpt", workspace["fine_ckpt"],
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
            "eval", "--config", workspace["config"],
            "--ckpt", workspace["fine_ckpt"], "--manifest", broken,
            "--out", out,
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["aggregate"]["error_count"] == 1
        assert len(report["records"]) == 4

    def test_precomputed_provider_exits_one(self, workspace, tmp_path, capsys):
        code = run(
            "eval", "--config", workspace["config"],
            "--ckpt", workspace["fine_ckpt"],
            "--manifest", workspace["manifest"],
            "--codebook", workspace["codebook"], "--out", tmp_path / "r.json",
            "--set", "codebook.provider=precomputed",
            "--set", f"codebook.feature_dir={tmp_path}",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no precomputed features" in err
        assert not (tmp_path / "r.json").exists()

    def test_pretrain_checkpoint_exits_one(self, workspace):
        assert (
            run(
                "eval", "--config", workspace["config"],
                "--ckpt", workspace["pre_ckpt"],
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
