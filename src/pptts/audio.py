"""Mono 16-bit PCM WAV reading and writing."""

from __future__ import annotations

import os
import wave
from pathlib import Path

import numpy as np


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono PCM WAV file as float32 samples in [-1, 1].

    Anything else, including a file whose data chunk claims more bytes
    than follow it, raises ``ValueError`` naming the file before the
    samples are read.
    """
    with open(path, "rb") as raw:
        try:
            fh = wave.open(raw, "rb")
        except (EOFError, wave.Error, RuntimeError) as exc:
            # The wave module signals a cut-short file with a bare EOFError
            # and a chunk larger than its parent with a bare RuntimeError.
            detail = str(exc) or "cut short, or a chunk overruns its parent"
            raise ValueError(f"{path}: not a readable WAV file ({detail})") from None
        with fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM")
            sr = fh.getframerate()
            count = fh.getnframes()
            left = os.fstat(raw.fileno()).st_size - raw.tell()
            if 2 * count > left:
                raise ValueError(
                    f"{path}: data chunk claims {2 * count} bytes, {left} follow it"
                )
            pcm = fh.readframes(count)
    samples = np.frombuffer(pcm, dtype="<i2").astype(np.float32) / 32768.0
    return samples, sr


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as mono 16-bit PCM."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.rint(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())
