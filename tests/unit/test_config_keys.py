"""Cache-key soundness, field by field, from the BuildConfig stage tags.

Every :class:`BuildConfig` field is tagged with the cache stage it enters
(:data:`repro.pipeline.config.STAGES`), and the fingerprints are derived
from the tags.  This walk proves the tags right.  For every key-tagged
field, every alternative value and both pipeline shapes:

1. config A is built cold into a cache;
2. B, which is A with that one field changed, is built warm from the
   same cache;
3. warm B must equal an uncached build of B in everything the image
   entry stores (text and data sections, outlining stats, pass reports).

A field left out of its key lets warm B resurrect A's entry, so each
field's alternatives must also change the artifact in at least one shape
(otherwise the walk would have no teeth for it).  Speed and robustness
fields must leave the artifact unchanged.  A hypothesis differential then
changes several key-tagged fields at once, drawn from the same table.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import (
    BuildConfig,
    CancelScope,
    FaultPlan,
    build_program,
    run_build,
)
from repro.pipeline import config as config_mod
from repro.pipeline import parallel
from repro.pipeline.config import KEY_FIELDS, SPEED_FIELDS
from repro.sim.profile import ProfileCollector
from repro.workloads.appgen import AppSpec, generate_app

SHAPES = ("wholeprogram", "default")

#: Exercises SIL outlining, which appgen programs never do: four
#: retain+apply sites calling one callee.
WITNESS = {"M": """
class Sink { var total: Int
    init() { self.total = 0 }
}
func record(s: Sink) { s.total += 1 }
func main() {
    let s = Sink()
    record(s: s)
    record(s: s)
    record(s: s)
    record(s: s)
    print(s.total)
}
"""}

#: Stands for the path of a layout profile recorded from the app.
PROFILE = "<profile>"

#: Per key-tagged field: (program, base overrides, alternative values).
#: This table and the next are the one hand list of fields besides
#: CONFIG_WIRE_EXCLUDED; a new field fails test_tables_cover_every_field
#: until it has an entry in one of them.
ALTERNATIVES = {
    "enable_sil_outlining": ("witness", {}, [True]),
    "pipeline": ("app", {}, ["wholeprogram", "default"]),
    "target": ("app", {}, ["thumb2c"]),
    "outline_rounds": ("app", {}, [0, 2]),
    "merge_mode": ("app", {}, ["off", "optimistic"]),
    "enable_inliner": ("app", {}, [True]),
    "data_layout": ("app", {}, ["interleaved"]),
    "enable_fmsa": ("app", {}, [True]),
    "global_dce": ("app", {}, [False]),
    "strip": ("app", {}, ["program"]),
    "layout": ("app", {}, ["near-callers", "callgraph-c3", "random"]),
    "layout_seed": ("app", {"layout": "random"}, [1]),
    "profile_path": ("app", {"layout": "callgraph-c3"}, [PROFILE]),
}

#: Per speed/robustness field: a value that exercises it on a build of A
#: that compiles with a two-worker pool (the incremental one fills its
#: own empty cache).
SPEED_ALTERNATIVES = {
    "workers": 1,
    "incremental": True,
    "cache_dir": None,
    "persistent_workers": True,
    "chunk_timeout": None,
    "fault_plan": FaultPlan(seed=7),
    "cancel_scope": CancelScope(deadline_seconds=600.0),
}


def _artifact(result):
    """Everything the image cache entry stores about the binary."""
    image = result.image
    return (image.text_section(), image.data_section(),
            result.outline_stats, result.report.pass_reports)


@pytest.fixture(scope="module")
def programs():
    return {"app": generate_app(AppSpec(seed=11, base_features=4,
                                        num_vendors=2)),
            "witness": WITNESS}


@pytest.fixture(scope="module")
def profile_path(programs, tmp_path_factory):
    result = build_program(programs["app"], BuildConfig(
        target="arm64", merge_mode="off"))
    collector = ProfileCollector()
    run_build(result, profile=collector)
    path = str(tmp_path_factory.mktemp("profile") / "app.json")
    collector.finalize(result.image).save(path)
    return path


@pytest.fixture(scope="module")
def cold(programs, tmp_path_factory):
    """``cold(program, base, shape)`` -> (config A, A's artifact, cache
    dir holding A), built once per module.  Later warm builds add their
    own entries; each differs from A in one field, so a lookup can only
    go stale against A's."""
    built = {}

    def _cold(program, base, shape):
        key = (program, tuple(sorted(base.items())), shape)
        if key not in built:
            config = BuildConfig(pipeline=shape, outline_rounds=1,
                                 merge_mode="exact", target="arm64", **base)
            cache_dir = str(tmp_path_factory.mktemp("cache"))
            result = build_program(programs[program], dataclasses.replace(
                config, incremental=True, cache_dir=cache_dir))
            built[key] = (config, _artifact(result), cache_dir)
        return built[key]

    return _cold


def test_tables_cover_every_field():
    assert set(ALTERNATIVES) == set(KEY_FIELDS)
    assert set(SPEED_ALTERNATIVES) == SPEED_FIELDS
    assert sorted(KEY_FIELDS + tuple(SPEED_FIELDS)) == sorted(
        f.name for f in dataclasses.fields(BuildConfig))


def test_untagged_field_fails_at_import():
    untagged = dataclasses.make_dataclass(
        "Untagged", [("knob", int, dataclasses.field(default=0))],
        bases=(BuildConfig,), frozen=True)
    with pytest.raises(TypeError, match="knob"):
        config_mod._partitioned(untagged)


def test_fingerprints_follow_the_tags():
    """The image key is llc ∪ link, so the llc key is a strict subset."""
    def names(key):
        return [part.split("=", 1)[0] for part in key.split(";")]

    def tagged(*stages):
        return [f.name for f in dataclasses.fields(BuildConfig)
                if f.metadata["stage"] in stages]

    config = BuildConfig()
    assert names(config.frontend_fingerprint()) == tagged("frontend")
    assert names(config.llc_fingerprint()) == tagged("llc")
    assert names(config.backend_fingerprint()) == tagged("llc", "link")


@pytest.mark.parametrize("field", sorted(ALTERNATIVES))
def test_one_field_change_never_hits_a_stale_entry(field, programs, cold,
                                                   profile_path):
    program, base, alternatives = ALTERNATIVES[field]
    changed = False
    for shape in SHAPES:
        config, a_artifact, cache_dir = cold(program, base, shape)
        for value in alternatives:
            value = profile_path if value == PROFILE else value
            if value == getattr(config, field):
                continue
            b = dataclasses.replace(config, **{field: value})
            warm = build_program(programs[program], dataclasses.replace(
                b, incremental=True, cache_dir=cache_dir))
            uncached = _artifact(build_program(programs[program], b))
            assert _artifact(warm) == uncached, (field, value, shape)
            changed = changed or uncached != a_artifact
    assert changed, (
        f"{field} does not change the {program} artifact; a field that "
        f"changes nothing cannot be caught missing from its key")


#: Key-tagged fields that change the ``app`` program (the walk above
#: proves each one alone); the multi-field differential draws from these.
APP_FIELDS = sorted(f for f, (program, _, _) in ALTERNATIVES.items()
                    if program == "app")


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_multi_field_change_never_hits_a_stale_entry(data, programs, cold,
                                                     profile_path):
    """Several key-tagged fields changed at once.  Every B builds warm
    into the same cache as A and as the Bs drawn before it, so a key that
    misses any of the drawn fields (or confuses two of them) can hit a
    stale entry from any earlier build."""
    shape = data.draw(st.sampled_from(SHAPES), label="shape")
    config, _, cache_dir = cold("app", {}, shape)
    names = data.draw(st.lists(st.sampled_from(APP_FIELDS), min_size=2,
                               max_size=4, unique=True), label="fields")
    changes = {}
    for name in names:
        value = data.draw(st.sampled_from(ALTERNATIVES[name][2]), label=name)
        changes[name] = profile_path if value == PROFILE else value
    b = dataclasses.replace(config, **changes)
    warm_b = dataclasses.replace(b, incremental=True, cache_dir=cache_dir)
    uncached = build_program(programs["app"], b)
    assert _artifact(build_program(programs["app"], warm_b)) == _artifact(
        uncached), (shape, changes)


@pytest.mark.parametrize("field", sorted(SPEED_ALTERNATIVES))
def test_speed_and_robustness_fields_leave_the_artifact(field, programs,
                                                        cold, tmp_path):
    try:
        for shape in SHAPES:
            config, a_artifact, _ = cold("app", {}, shape)
            pooled = dataclasses.replace(
                config, workers=2, cache_dir=str(tmp_path / shape))
            result = build_program(programs["app"], dataclasses.replace(
                pooled, **{field: SPEED_ALTERNATIVES[field]}))
            assert _artifact(result) == a_artifact, (field, shape)
    finally:
        parallel.shutdown_persistent_pool()
