"""Malformed input files: each reader loads them or raises ValueError or OSError.

Starting from one small valid file per format (WAV, FTFX feature file, PPCB2
codebook with its audio config and stats rows, TTSCKPT1 checkpoint), every truncation and random single-byte
flips are fed to its reader. A header that claims more bytes than the file
holds must be refused before that many bytes are allocated.
"""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pptts.audio import read_wav, write_wav
from pptts.config import AudioConfig, ModelConfig
from pptts.features import read_feature_file, write_feature_file
from pptts.model import SynthesisModel
from pptts.nn import AdamW
from pptts.pseudo import Codebook, load_codebook, save_codebook
from pptts.train import TrainError, load_checkpoint, save_checkpoint


def _write_wav(path):
    write_wav(path, np.sin(np.arange(40) / 3.0), 8000)


def _write_ftfx(path):
    write_feature_file(path, np.arange(12, dtype=np.float32).reshape(3, 4), 25.0)


def _write_codebook(path):
    centroids = np.arange(6, dtype=np.float64).reshape(3, 2) / 7.0
    audio = AudioConfig(sample_rate=8000, n_fft=16, hop_length=4, win_length=16, n_mels=2)
    stats = np.array([0.25, 1.5], dtype=np.float32)
    save_codebook(
        path,
        Codebook(centroids, seed=1, provider_id="builtin-mel", audio=audio, mean=-stats, std=stats),
    )


def _write_checkpoint(path):
    config = ModelConfig(
        latent_channels=2, hidden_channels=2, flow_blocks=1, flow_hidden=2,
        duration_hidden=2, decoder_channels=2, text_vocab_size=28,
    )
    audio = AudioConfig(sample_rate=8000, n_fft=16, hop_length=4, win_length=16, n_mels=4)
    model = SynthesisModel(config, audio, "finetune", seed=0)
    name, param = next(iter(model.named_parameters()))
    slot = np.ones_like(param.data)
    optimizer = AdamW([(name, param)])
    optimizer.load_state_dict({"step": 3, "m": {name: slot}, "v": {name: 2 * slot}})
    save_checkpoint(model, path, stage="finetune", optimizer=optimizer)


READERS = {
    "wav": (_write_wav, read_wav),
    "ftfx": (_write_ftfx, read_feature_file),
    "codebook": (_write_codebook, load_codebook),
    "checkpoint": (_write_checkpoint, load_checkpoint),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    files = {}
    for kind, (write, read) in READERS.items():
        path = root / f"valid.{kind}"
        write(path)
        read(path)
        files[kind] = path.read_bytes()
    return root, files


def _load_or_reject(root, kind, data):
    path = root / f"corrupt.{kind}"
    path.write_bytes(data)
    try:
        READERS[kind][1](path)
    except (ValueError, OSError):
        pass


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_truncation(valid_files, kind):
    root, files = valid_files
    data = files[kind]
    for size in range(len(data)):
        _load_or_reject(root, kind, data[:size])


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_single_byte_flips(valid_files, kind, flips):
    root, files = valid_files
    data = bytearray(files[kind])
    for where, mask in flips:
        data[int(where * len(data))] ^= mask
    _load_or_reject(root, kind, bytes(data))


def _claims_256_mb(kind, valid):
    """The valid file with a header that claims a 256 MB body."""
    big = 2**26  # float32 or int16 elements
    if kind == "ftfx":
        return valid[:4] + struct.pack("<IIf", big, 1, 25.0) + valid[16:]
    if kind == "wav":
        at = valid.index(b"data") + 4
        return valid[:at] + struct.pack("<I", 2 * big) + valid[at + 4 :]
    header_len = struct.unpack("<I", valid[12:16])[0]
    header = valid[16 : 16 + header_len]
    at = header.index(b'"shape": [') + len(b'"shape": [')
    end = header.index(b"]", at)
    header = header[:at] + str(big).encode() + header[end:]
    return valid[:12] + struct.pack("<I", len(header)) + header + valid[16 + header_len :]


@pytest.mark.parametrize("kind", ["wav", "ftfx", "checkpoint"])
def test_claimed_size_checked_before_reading(valid_files, kind):
    root, files = valid_files
    path = root / f"huge.{kind}"
    path.write_bytes(_claims_256_mb(kind, files[kind]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(path)):
            READERS[kind][1](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _with_header_fields(valid, **fields):
    """The valid checkpoint with ``fields`` merged into its JSON header."""
    header_len = struct.unpack("<I", valid[12:16])[0]
    header = json.loads(valid[16 : 16 + header_len])
    for key, value in fields.items():
        if isinstance(value, dict):
            header[key] = {**header[key], **value}
        else:
            header[key] = value
    raw = json.dumps(header, sort_keys=True).encode()
    return valid[:12] + struct.pack("<I", len(raw)) + raw + valid[16 + header_len :]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"from_scratch": "no"}, "'from_scratch' is not a bool"),
        ({"from_scratch": 0}, "'from_scratch' is not a bool"),
        ({"codebook_hash": 5}, "'codebook_hash' is not a string or null"),
        ({"codebook_hash": ["ab"]}, "'codebook_hash' is not a string or null"),
        ({"config": {"multi_speaker": "False"}}, r"\[model\]: multi_speaker must be true or false"),
        ({"audio": {"center": "False"}}, r"\[feature\]: center must be true or false"),
    ],
)
def test_checkpoint_header_values_typed(valid_files, fields, message):
    root, files = valid_files
    path = root / "typed.checkpoint"
    path.write_bytes(_with_header_fields(files["checkpoint"], **fields))
    with pytest.raises(TrainError, match=f"{re.escape(str(path))}: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_provenance_loads_as_written(valid_files):
    root, files = valid_files
    path = root / "provenance.checkpoint"
    path.write_bytes(
        _with_header_fields(files["checkpoint"], from_scratch=True, codebook_hash="ab12")
    )
    ckpt = load_checkpoint(path)
    assert ckpt.from_scratch is True and ckpt.codebook_hash == "ab12"
