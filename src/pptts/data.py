"""Corpus manifests and the character-level text frontend.

Manifests are JSON lines, one utterance per line with fields ``id``,
``audio_path``, ``speaker_id``, ``duration_s`` and an optional ``text``.
Entries without text are usable for pre-training only.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ManifestError(ValueError):
    """Malformed manifest content, reported with a line number."""


class TextFrontendError(ValueError):
    """Text cannot be tokenized with the given lexicon."""


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    audio_path: str
    speaker_id: str
    duration_s: float
    text: str | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ManifestError(f"entry {self.id!r}: duration_s must be > 0")


_REQUIRED_FIELDS = ("id", "audio_path", "speaker_id", "duration_s")


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Load a JSON-lines manifest, preserving file order.

    Raises ManifestError naming the offending line for malformed JSON,
    missing required fields, duplicate ids, a non-string ``text`` or a
    ``duration_s`` that is not a finite positive number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ManifestError(f"{path}:{lineno}: expected a JSON object")
            missing = [f for f in _REQUIRED_FIELDS if f not in record]
            if missing:
                raise ManifestError(
                    f"{path}:{lineno}: missing field(s) {', '.join(missing)}"
                )
            entry_id = str(record["id"])
            if entry_id in seen:
                raise ManifestError(f"{path}:{lineno}: duplicate id {entry_id!r}")
            seen.add(entry_id)
            seconds, text = record["duration_s"], record.get("text")
            # A JSON number (no bool, string or null), finite and positive.
            if type(seconds) not in (int, float) or not 0 < seconds <= sys.float_info.max:
                raise ManifestError(f"{path}:{lineno}: duration_s must be a finite number > 0")
            if not isinstance(text, (str, type(None))):
                raise ManifestError(f"{path}:{lineno}: text must be a string or null")
            entries.append(
                ManifestEntry(
                    id=entry_id,
                    audio_path=str(record["audio_path"]),
                    speaker_id=str(record["speaker_id"]),
                    duration_s=float(seconds),
                    text=text,
                )
            )
    return entries


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            record = {
                "id": e.id,
                "audio_path": e.audio_path,
                "speaker_id": e.speaker_id,
                "duration_s": e.duration_s,
            }
            if e.text is not None:
                record["text"] = e.text
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Text frontend: character tokens by default, overridable by a Lexicon of
# single-character symbols (an optional "<unk>" symbol maps uncovered ones).
# ---------------------------------------------------------------------------

UNKNOWN_TOKEN = "<unk>"
DEFAULT_CHARACTERS = " abcdefghijklmnopqrstuvwxyz'"


@dataclass(frozen=True)
class PhonemeSequence:
    tokens: tuple[int, ...]
    vocab_id: str

    def __len__(self) -> int:
        return len(self.tokens)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.tokens, dtype=np.int64)


class Lexicon:
    """Ordered symbol table mapping single characters to token ids."""

    def __init__(self, symbols: list[str], vocab_id: str):
        self.symbols = list(symbols)
        self.vocab_id = vocab_id
        self.unknown_id: int | None = None
        self._index: dict[str, int] = {}
        for i, sym in enumerate(self.symbols):
            if sym == UNKNOWN_TOKEN:
                self.unknown_id = i
                continue
            if len(sym) != 1:
                raise TextFrontendError(
                    f"lexicon symbol {sym!r} must be a single character"
                )
            if sym in self._index:
                raise TextFrontendError(f"duplicate lexicon symbol {sym!r}")
            self._index[sym] = i

    def __len__(self) -> int:
        return len(self.symbols)

    def lookup(self, char: str) -> int | None:
        idx = self._index.get(char)
        if idx is None:
            return self.unknown_id
        return idx

    @classmethod
    def default(cls) -> "Lexicon":
        return cls(list(DEFAULT_CHARACTERS), vocab_id="char-lower-v1")


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace runs to single spaces."""
    return re.sub(r"\s+", " ", text.lower()).strip()


def text_to_phonemes(text: str, lexicon: Lexicon | None = None) -> PhonemeSequence:
    """Tokenize text to ids; deterministic and pure.

    Raises TextFrontendError for empty normalized text or for symbols the
    lexicon does not cover when no unknown token is configured.
    """
    lexicon = lexicon or Lexicon.default()
    normalized = normalize_text(text)
    if not normalized:
        raise TextFrontendError("text is empty after normalization")
    tokens = []
    for ch in normalized:
        idx = lexicon.lookup(ch)
        if idx is None:
            raise TextFrontendError(
                f"symbol {ch!r} not in lexicon and no {UNKNOWN_TOKEN} configured"
            )
        tokens.append(idx)
    return PhonemeSequence(tokens=tuple(tokens), vocab_id=lexicon.vocab_id)
