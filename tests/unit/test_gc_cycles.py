"""Builds and simulator runs form no reference cycles.

Every build runs with CPython's cyclic garbage collector paused
(``repro.pipeline.build._CollectorPause``), which is only safe if
reference counting frees everything a build drops: a cycle left behind
would wait for the next collection, and with builds back to back the heap
would grow.  ``gc.DEBUG_SAVEALL`` makes the collector keep whatever
cyclic garbage it finds in ``gc.garbage`` instead of freeing it, so an
empty list after a cold build, a one-function edit and a no-op is the
contract.  ``workers=1`` keeps the chunk functions in this process, where
the collector can see them.

A simulator run decodes each instruction it executes into a handler; the
handlers must die with the run, neither as cyclic garbage nor as state
parked on the image or its instructions, which later builds would carry.
"""

import gc

import pytest

from repro.outliner.suffix_tree import SuffixTree
from repro.pipeline import BuildConfig, build_program
from repro.sim.cpu import run_binary
from repro.sim.profile import ProfileCollector
from repro.sim.timing import TimingModel
from repro.workloads.appgen import (AppSpec, edit_function,
                                    function_fingerprints, generate_app)

SPEC = AppSpec(base_features=3, num_vendors=1)


def _cyclic_garbage(work):
    """Run *work*; return the cyclic garbage it left, by type name."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _edited(sources):
    module = sorted(m for m in sources if m.startswith("Feature"))[0]
    func = sorted(f for f in function_fingerprints(SPEC)[module]
                  if f != "log")[0]
    edited = dict(sources)
    edited[module] = edit_function(sources[module], func)
    return edited


CONFIGS = [pytest.param(preset, {"target": target}, id=f"{preset}-{target}")
           for preset in ("min-size", "fast-build", "balanced")
           for target in ("arm64", "thumb2c")] + [
    pytest.param("balanced", {"enable_inliner": True}, id="inliner"),
    pytest.param("balanced", {"enable_fmsa": True}, id="fmsa"),
    pytest.param("balanced", {"enable_sil_outlining": True},
                 id="sil-outlining"),
    pytest.param("fast-build", {"merge_mode": "optimistic"},
                 id="default-optimistic"),
    pytest.param("min-size", {"layout": "callgraph-c3"}, id="callgraph-c3"),
]


@pytest.mark.parametrize("preset,overrides", CONFIGS)
def test_cold_edit_and_noop_builds_leave_no_cyclic_garbage(tmp_path, preset,
                                                           overrides):
    config = BuildConfig.preset(preset, workers=1, incremental=True,
                                cache_dir=str(tmp_path), **overrides)
    sources = generate_app(SPEC)
    edited = _edited(sources)
    results = []

    def builds():
        results.append(build_program(sources, config))
        results.append(build_program(edited, config))
        results.append(build_program(edited, config))

    assert _cyclic_garbage(builds) == []
    cold, edit, noop = (r.report for r in results)
    assert not cold.image_cache_hit
    assert edit.functions_recompiled >= 1 and not edit.image_cache_hit
    assert noop.image_cache_hit


def test_suffix_tree_freed_after_use_leaves_no_cyclic_garbage():
    # Repeats, so the tree has internal nodes with suffix links, several
    # of them to the root.
    seq = [1, 2, 3, 1, 2, 3, 4, 1, 2, 4, 2, 3, 1] * 20

    def use():
        tree = SuffixTree(seq)
        assert any(r.length >= 3 for r in tree.repeated_substrings())

    assert _cyclic_garbage(use) == []


@pytest.mark.parametrize("target", ["arm64", "thumb2c"])
def test_simulator_run_leaves_no_cyclic_garbage_or_state(target):
    result = build_program(generate_app(SPEC), BuildConfig.preset(
        "balanced", workers=1, target=target))
    image = result.image

    def shape():
        return (sorted(vars(image)),
                [sorted(vars(instr)) for instr in image.instrs])

    before = shape()
    runs = []

    def run():
        collector = ProfileCollector()
        execution = run_binary(image, registry=result.registry,
                               timing=TimingModel(), profile=collector)
        runs.append((execution.steps, collector.raw_transfers))

    assert _cyclic_garbage(run) == []
    steps, calls = runs[0]
    assert steps > 1000 and calls > 0
    assert shape() == before
