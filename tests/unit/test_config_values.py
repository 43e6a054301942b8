"""BuildConfig's legal values, declared once and checked on construction.

Every field declares its legal values beside its cache stage: a string
mode its tuple of choices, ``outline_rounds`` its minimum, and every field
its exact type (a bool is not an int).  A bad value raises ConfigError
naming the field, the value and what is legal, whichever way the config
is made (the constructor, a preset, ``dataclasses.replace``, the daemon's
wire decoder), and before any build work, cache entry or journal record.
"""

import argparse
import dataclasses
from dataclasses import replace

import pytest

from repro import api
from repro.__main__ import _add_image_args
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.pipeline.config import BuildConfig
from repro.service.protocol import config_from_wire

SOURCES = {"Main": "func main() { print(6 * 7) }\n"}

#: (knobs, the field the error must name).
BAD = [
    ({"pipeline": "default", "data_layout": "bogus"}, "data_layout"),
    ({"outline_rounds": -2}, "outline_rounds"),
    ({"outline_rounds": True}, "outline_rounds"),
    ({"outline_rounds": "5"}, "outline_rounds"),
    ({"enable_fmsa": "yes"}, "enable_fmsa"),
    ({"layout_seed": "x"}, "layout_seed"),
    ({"target": 5}, "target"),
    ({"layout": "bogus"}, "layout"),
]
IDS = [f"{field}={knobs[field]!r}" for knobs, field in BAD]

#: Each field's declared choices (None for a field with no choice list).
CHOICES = {f.name: f.metadata["choices"]
           for f in dataclasses.fields(BuildConfig)}


@pytest.mark.parametrize("knobs,field", BAD, ids=IDS)
def test_bad_value_raises_from_every_constructor(knobs, field):
    makers = {
        "BuildConfig": lambda: BuildConfig(**knobs),
        "preset": lambda: BuildConfig.preset("balanced", **knobs),
        "replace": lambda: replace(BuildConfig(), **knobs),
        "config_from_wire": lambda: config_from_wire(knobs),
    }
    for how, make in makers.items():
        with pytest.raises(ConfigError) as info:
            make()
        message = str(info.value)
        assert f"BuildConfig.{field}={knobs[field]!r}" in message, how
        for value in CHOICES[field] or ():
            assert value in message, (how, value)


@pytest.mark.parametrize("knobs,field", BAD, ids=IDS)
def test_bad_value_stops_before_any_build_work(knobs, field, tmp_path):
    tracer = Tracer()
    with pytest.raises(ConfigError, match=field):
        api.build(SOURCES, preset="fast-build", cache_dir=str(tmp_path),
                  tracer=tracer, **knobs)
    spans = [span.name for root in tracer.roots for span in root.walk()]
    assert "parse" not in spans
    assert list(tmp_path.iterdir()) == []


def test_every_legal_value_constructs():
    for name, choices in CHOICES.items():
        for value in choices or ():
            assert getattr(BuildConfig(**{name: value}), name) == value
    BuildConfig(outline_rounds=0, chunk_timeout=None, retry_backoff=0,
                cache_dir=None, profile_path=None, target="riscv")


def test_config_is_frozen():
    """A config is a value, so no field changes after the check ran."""
    config = BuildConfig()
    for f in dataclasses.fields(BuildConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


def test_cli_choices_are_the_config_choices():
    parser = argparse.ArgumentParser()
    _add_image_args(parser)
    offered = {action.dest: action.choices for action in parser._actions}
    declared = {name: choices for name, choices in CHOICES.items()
                if choices is not None}
    assert set(declared) == {"pipeline", "data_layout", "merge_mode",
                             "strip", "layout"}
    flag_of = {"merge_mode": "merge"}
    for name, choices in declared.items():
        assert offered[flag_of.get(name, name)] is choices, name
