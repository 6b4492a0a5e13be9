"""Manifest parsing and the character text frontend."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pptts.data import (
    DEFAULT_CHARACTERS,
    ManifestEntry,
    ManifestError,
    TextFrontendError,
    load_manifest,
    normalize_text,
    text_to_phonemes,
    write_manifest,
)


@pytest.fixture
def entries():
    return [
        ManifestEntry("a", "/tmp/a.wav", "spk0", 1.5, text="hello there"),
        ManifestEntry("b", "/tmp/b.wav", "spk1", 0.25),
    ]


class TestManifest:
    def test_round_trip(self, tmp_path, entries):
        path = tmp_path / "m.jsonl"
        write_manifest(path, entries)
        assert load_manifest(path) == entries

    def test_order_preserved(self, tmp_path):
        many = [
            ManifestEntry(f"u{i}", f"/tmp/{i}.wav", "s", 1.0) for i in range(20)
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(path, many)
        assert [e.id for e in load_manifest(path)] == [e.id for e in many]

    def test_text_omitted_when_absent(self, tmp_path, entries):
        path = tmp_path / "m.jsonl"
        write_manifest(path, entries)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert "text" in lines[0] and "text" not in lines[1]

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "audio_path": "a.wav", "speaker_id": "s"}\n')
        with pytest.raises(ManifestError, match="duration_s"):
            load_manifest(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio_path": "x", "speaker_id": "s", "duration_s": 1}\n'
            "not json\n"
        )
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        line = '{"id": "a", "audio_path": "x", "speaker_id": "s", "duration_s": 1}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(line + line)
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("text", 5),
            ("text", ["a"]),
            ("duration_s", None),
            ("duration_s", "nan"),
            ("duration_s", "abc"),
            ("duration_s", "1.5"),
            ("duration_s", True),
            ("duration_s", 0),
            ("duration_s", -1.0),
            ("duration_s", 10**400),
        ],
    )
    def test_wrongly_typed_field_names_line(self, tmp_path, field, value):
        good = {"id": "a", "audio_path": "x", "speaker_id": "s", "duration_s": 1}
        bad = dict(good, id="b", **{field: value})
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ManifestError, match=f"m.jsonl:2: {field}"):
            load_manifest(path)

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_duration_names_line(self, tmp_path, raw):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio_path": "x", "speaker_id": "s", "duration_s": %s}\n' % raw
        )
        with pytest.raises(ManifestError, match="m.jsonl:1: duration_s"):
            load_manifest(path)

    def test_null_text_and_integer_duration_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio_path": "x", "speaker_id": "s", "duration_s": 2, "text": null}\n'
        )
        (entry,) = load_manifest(path)
        assert entry.text is None
        assert entry.duration_s == 2.0 and type(entry.duration_s) is float

    def test_ids_compared_as_loaded(self, tmp_path):
        rows = [{"id": i, "audio_path": "x", "speaker_id": "s", "duration_s": 1} for i in (1, "1")]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ManifestError, match="m.jsonl:2: duplicate id '1'"):
            load_manifest(path)

    def test_nonpositive_duration(self):
        with pytest.raises(ManifestError):
            ManifestEntry("a", "x", "s", 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.jsonl")

    def test_blank_lines_skipped(self, tmp_path, entries):
        path = tmp_path / "m.jsonl"
        write_manifest(path, entries)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_manifest(path)) == 2


class TestTextFrontend:
    def test_normalize(self):
        assert normalize_text("  Hello\t WORLD \n") == "hello world"
        assert normalize_text("a  b") == "a b"

    def test_default_roundtrip(self):
        ids = text_to_phonemes("hello world")
        assert "".join(DEFAULT_CHARACTERS[t] for t in ids) == "hello world"

    def test_character_ids_pinned(self):
        # Checkpoints trained on these ids must read text the same way.
        assert text_to_phonemes("a b").tolist() == [1, 0, 2]
        letters = "abcdefghijklmnopqrstuvwxyz"
        assert text_to_phonemes(letters).tolist() == list(range(1, 27))
        assert text_to_phonemes("'").tolist() == [27]

    def test_deterministic(self):
        a = text_to_phonemes("some text here")
        b = text_to_phonemes("some text here")
        np.testing.assert_array_equal(a, b)

    def test_case_insensitive(self):
        np.testing.assert_array_equal(text_to_phonemes("AbC"), text_to_phonemes("abc"))

    def test_empty_text_rejected(self):
        with pytest.raises(TextFrontendError):
            text_to_phonemes("   ")

    def test_unknown_symbol_without_unk(self):
        with pytest.raises(TextFrontendError, match="'1' not in the character set"):
            text_to_phonemes("ab1")

    def test_as_array_dtype(self):
        arr = text_to_phonemes("abc")
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.int64 and arr.shape == (3,)

    def test_default_vocab_covers_examples(self):
        # Default characters: space, a-z, apostrophe -> 28 ids.
        assert len(DEFAULT_CHARACTERS) == 28

    @given(st.text(alphabet=DEFAULT_CHARACTERS.replace(" ", "") + " ", min_size=1))
    def test_tokens_in_range(self, text):
        try:
            seq = text_to_phonemes(text)
        except TextFrontendError:
            return  # whitespace-only input
        assert seq.dtype == np.int64
        assert np.all((0 <= seq) & (seq < 28))
