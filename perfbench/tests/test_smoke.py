"""Smoke test of the benchmark itself, at toy size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

It checks that every workload prints each metric BENCHMARK.json names,
with its unit; that a traced run emits every span and reaches the layers
its workload claims to stress; and that the output checks fire on a
deliberately corrupted result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pptts import pseudo, train  # noqa: E402
from pptts.model import SynthesisModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Spans each workload exists to exercise (see the workload table in
# perfbench/README.md); they must be reached at toy size too.
STRESSED = {
    "pretrain": ["model.decode", "tensor.backward", "losses.reconstruction_loss",
                 "align.likelihood_grid", "nn.AdamW.step", "train.training_step"],
    "finetune": ["model.reference_encode", "model.flow_forward", "model.text_encode",
                 "align.monotonic_alignment_search", "nn.AdamW.step"],
    "synthesize": ["model.synthesize", "model.flow_inverse", "model.decode",
                   "evaluate.mel_distance", "evaluate.token_roundtrip_accuracy",
                   "evaluate.speaker_similarity", "kernels.levenshtein",
                   "features.mel_of_waveform"],
    "codebook": ["pseudo.train_codebook", "kernels.nearest_centroids", "pseudo.quantize"],
}


def _run(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", str(trace)]
    code = run.main(argv, scale=workloads.TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    code, lines, result = _run(capsys, workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("environment ") for line in lines)
    assert any(line.startswith("digest ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_span(capsys, workload):
    code, lines, result = _run(capsys, workload, trace=1)
    assert code == 0 and result["correct"], lines
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for span in tracer.SPAN_NAMES:
        for suffix in ("calls", "ms", "self_ms"):
            assert f"{span}.{suffix}" in got
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for span in STRESSED[workload]:
        assert metrics[f"{span}.calls"] > 0, span
    assert metrics["setup.synthetic.generate_synthetic_corpus.ms"] > 0
    if workload == "finetune":
        assert metrics["model.decode.calls"] == 0
    if workload in ("pretrain", "synthesize"):
        assert 0 < metrics["model.decode.useful_mac_ratio"] < 1


def _nan_loss(monkeypatch):
    real = train.training_step

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        out["loss_total"] = float("nan")
        return out

    monkeypatch.setattr(train, "training_step", corrupted)


def _decoder_called(monkeypatch):
    real = train.training_step

    def corrupted(model, *args, **kwargs):
        model.decoder.calls += 1
        return real(model, *args, **kwargs)

    monkeypatch.setattr(train, "training_step", corrupted)


def _short_wave(monkeypatch):
    real = SynthesisModel.synthesize

    def corrupted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        out.wave = out.wave[:-1]
        return out

    monkeypatch.setattr(SynthesisModel, "synthesize", corrupted)


def _bad_ids(monkeypatch):
    real = pseudo.quantize

    def corrupted(features, codebook):
        return real(features, codebook) + np.int64(codebook.k)

    monkeypatch.setattr(pseudo, "quantize", corrupted)


@pytest.mark.parametrize(
    "workload, corrupt, message",
    [
        ("pretrain", _nan_loss, "non-finite"),
        ("finetune", _decoder_called, "decoder was called"),
        ("synthesize", _short_wave, "samples, expected"),
        ("codebook", _bad_ids, "ids outside"),
    ],
)
def test_output_check_fires_on_corrupted_result(capsys, monkeypatch, workload, corrupt, message):
    corrupt(monkeypatch)
    code, lines, result = _run(capsys, workload, trace=0)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("error: ") and message in line for line in lines), lines


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
