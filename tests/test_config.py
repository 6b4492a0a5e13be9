"""One rule checks every config field: its type from the annotation and, for
a number, its bound. These tests walk every field of every section, so a new
field is covered the moment it is declared."""

import dataclasses
import math
import re

import pytest

from pptts.config import (
    AudioConfig, CodebookConfig, ConfigError, ModelConfig, TrainConfig, config_from_dict,
)

SECTIONS = {
    "feature": AudioConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "codebook": CodebookConfig,
}
FIELDS = [
    pytest.param(section, f, id=f"{section}.{f.name}")
    for section, cls in SECTIONS.items()
    for f in dataclasses.fields(cls)
]
ANNOTATIONS = {"int", "float", "bool", "str", "float | None", "str | None"}
# A bool is no number, and neither a number nor a string is a bool.
WRONG_TYPE = {"int": True, "float": True, "bool": "x", "str": 5}
# The bounds the rule promises: an int field is >= 1 and a float field >= 0,
# except these. fmin and fmax are bounded by 0 <= fmin < fmax <= sample_rate / 2.
INT_MIN = {"seed": 0, "checkpoint_interval": 0}
POSITIVE = {"mel_floor", "scratch_lr_multiplier"}
NYQUIST = AudioConfig().sample_rate / 2


def _kind(f):
    return f.type.partition(" | ")[0]


def _rejected(section, name, value):
    """The message of the ConfigError that ``{section: {name: value}}`` raises."""
    with pytest.raises(ConfigError) as info:
        config_from_dict({section: {name: value}})
    return str(info.value)


def _rule_message(section, name, value):
    return rf"^\[{section}\]: {name} must be .*, got {re.escape(repr(value))}$"


def test_every_annotation_is_one_the_rule_knows():
    unknown = [
        f"{cls.__name__}.{f.name}: {f.type}"
        for cls in SECTIONS.values()
        for f in dataclasses.fields(cls)
        if f.type not in ANNOTATIONS
    ]
    assert not unknown


@pytest.mark.parametrize("section, f", FIELDS)
def test_wrong_type_rejected(section, f):
    value = WRONG_TYPE[_kind(f)]
    assert re.search(_rule_message(section, f.name, value), _rejected(section, f.name, value))


@pytest.mark.parametrize("section, f", FIELDS)
def test_null_only_where_annotated(section, f):
    if f.type.endswith("| None"):
        assert getattr(config_from_dict({section: {f.name: None}}), section) is not None
    else:
        assert re.search(_rule_message(section, f.name, None), _rejected(section, f.name, None))


@pytest.mark.parametrize("section, f", [p for p in FIELDS if _kind(p.values[1]) in ("int", "float")])
def test_value_just_past_the_bound_rejected(section, f):
    if f.name in ("fmin", "fmax"):
        value = -1e-9 if f.name == "fmin" else NYQUIST + 1e-6
        message = _rejected(section, f.name, value)
        assert message.startswith("fmin and fmax must satisfy") and f"{f.name}={value!r}" in message
        return
    if _kind(f) == "int":
        value = INT_MIN.get(f.name, 1) - 1
    else:
        value = 0.0 if f.name in POSITIVE else -1e-9
    assert re.search(_rule_message(section, f.name, value), _rejected(section, f.name, value))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, f", [p for p in FIELDS if _kind(p.values[1]) == "float"])
def test_non_finite_float_rejected(section, f, value):
    assert re.search(_rule_message(section, f.name, value), _rejected(section, f.name, value))


@pytest.mark.parametrize("section, f", [p for p in FIELDS if _kind(p.values[1]) == "int"])
def test_integral_float_rejected_for_an_int(section, f):
    value = float(getattr(SECTIONS[section](), f.name))
    assert re.search(_rule_message(section, f.name, value), _rejected(section, f.name, value))


def test_direct_construction_is_checked_too():
    with pytest.raises(ConfigError, match=r"^\[model\]: multi_speaker must be true or false"):
        ModelConfig(multi_speaker="False")
    with pytest.raises(ConfigError, match=r"^\[train\]: seed must be an integer >= 0, got 1.5$"):
        dataclasses.replace(TrainConfig(), seed=1.5)
