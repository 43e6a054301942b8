"""BuildConfig's legal values, declared once and checked on construction.

Every field declares its legal values beside its cache stage: a string
mode its tuple of choices, a count (``outline_rounds``, ``workers``) its
minimum, and every field its exact type (a bool is not an int).  A bad
value raises ConfigError naming the field, the value and what is legal,
whichever way the config is made (the constructor, a preset,
``dataclasses.replace``, the daemon's wire decoder), and before any build
work, cache entry or journal record.
"""

import argparse
import dataclasses
from dataclasses import replace

import pytest

from repro import api
from repro.__main__ import _add_image_args, main
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.pipeline.config import BuildConfig
from repro.service.daemon import BuildService, ServiceConfig
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
    BuildConfig(outline_rounds=0, workers=0, chunk_timeout=None,
                cache_dir=None, profile_path=None, target="riscv")
    assert BuildConfig(chunk_timeout=60).chunk_timeout == 60  # int is float


def test_negative_worker_count_is_rejected(tmp_path, capsys):
    """A negative worker count is a ConfigError wherever it is set, not a
    silent serial build; the wire carries no worker count at all."""
    message = r"BuildConfig\.workers=-4: expected an int >= 0"
    makers = (
        lambda: BuildConfig(workers=-4),
        lambda: BuildConfig.preset("balanced", workers=-4),
        lambda: replace(BuildConfig(), workers=-4),
        lambda: BuildService(ServiceConfig(
            state_dir=str(tmp_path / "state"), build_workers=-4)),
    )
    for make in makers:
        with pytest.raises(ConfigError, match=message):
            make()
    assert not (tmp_path / "state").exists()
    source = tmp_path / "Main.sw"
    source.write_text(SOURCES["Main"])
    assert main(["build", str(source), "--workers", "-4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigError: ")
    assert "workers=-4" in captured.err


@pytest.mark.parametrize("knob,value", [("fail_fast", True),
                                        ("max_chunk_retries", 0),
                                        ("retry_backoff", 0.0)])
def test_retired_robustness_knobs_are_rejected(knob, value):
    """The degradation ladder is the one failure policy and its retry
    budget is a constant, so these names are no BuildConfig field."""
    with pytest.raises(ConfigError, match=knob):
        BuildConfig.preset("balanced", **{knob: value})


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
