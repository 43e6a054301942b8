"""Regenerate the golden fixtures: images and simulator runs.

``golden_<target>.json`` holds one file per target, each pinning every
configuration in :data:`GOLDEN_CONFIGS` bit-identically.  ``merge_mode``
is pinned "off" in every case: the goldens define the pre-merge baseline,
and a leaking ``REPRO_MERGE`` environment variable must never be able to
change them silently.

``golden_runs.json`` pins one simulator run of each of those images
(target -> case -> :func:`observe_run`): a timed run on the iphone-x
device with a call-graph profile collector, so any change to the
interpreter or the timing model that moves output, step counts, cycles,
cache and TLB statistics, branch or paging counts, heap statistics,
leaks or the profile shows up as a named field.

This module is also the single source of truth the cross-target tests
load (by path) for the app spec, the pinned configs, and the observation
schemas — so the tests and the regeneration script can never drift apart.

Usage::

    PYTHONPATH=src python tests/fixtures/make_golden.py [target ...]

With no arguments both targets are regenerated; either way the named
targets' image files and their entries in ``golden_runs.json`` are
rewritten.  Only run this when a golden change is *intentional*; commit
the diff with an explanation.
"""

import dataclasses
import hashlib
import json
import os
import sys

from repro.pipeline import BuildConfig, build_program, run_build
from repro.sim.profile import ProfileCollector
from repro.sim.timing import DEVICE_GRID, TimingModel
from repro.workloads.appgen import AppSpec, generate_app

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))

GOLDEN_TARGETS = ("arm64", "thumb2c")

#: The app every golden image is built from.
APP_SPEC = AppSpec(seed=11, base_features=4, num_vendors=2)

#: merge_mode="off" is part of the pin, not a default to be inherited.
GOLDEN_CONFIGS = {
    "app-default-r3": dict(pipeline="default", outline_rounds=3,
                           merge_mode="off"),
    "app-nearcallers-r5": dict(outline_rounds=5, layout="near-callers",
                               merge_mode="off"),
    "app-wholeprogram-r0": dict(outline_rounds=0, merge_mode="off"),
    "app-wholeprogram-r5": dict(outline_rounds=5, merge_mode="off"),
}

#: Every field a golden case records, in reporting order.
GOLDEN_FIELDS = ("text_sha256", "data_sha256", "text_bytes", "data_bytes",
                 "binary_bytes", "num_instrs", "num_functions")

#: The device every golden run is timed on.
RUN_DEVICE = "iphone-x"

#: Every field a golden run records, in reporting order.
RUN_FIELDS = ("output", "steps", "outlined_steps", "cycles",
              "icache_hits", "icache_misses", "itlb_hits", "itlb_misses",
              "taken_branches", "mispredicts", "text_page_faults",
              "data_page_faults", "heap_stats", "leaked", "profile_sha256")

RUNS_PATH = os.path.join(FIXTURE_DIR, "golden_runs.json")


def golden_path(target: str) -> str:
    return os.path.join(FIXTURE_DIR, f"golden_{target}.json")


def observe(result) -> dict:
    """The golden observation for one build: section hashes and sizes."""
    image = result.image
    return {
        "text_sha256": hashlib.sha256(image.text_section()).hexdigest(),
        "data_sha256": hashlib.sha256(image.data_section()).hexdigest(),
        "text_bytes": result.sizes.text_bytes,
        "data_bytes": result.sizes.data_bytes,
        "binary_bytes": result.sizes.binary_bytes,
        "num_instrs": result.sizes.num_instrs,
        "num_functions": result.sizes.num_functions,
    }


def build_golden_case(sources, target: str, case: str):
    return build_program(sources, BuildConfig(target=target,
                                              **GOLDEN_CONFIGS[case]))


def observe_run(result) -> dict:
    """The golden observation for one timed, profiled run of a build."""
    timing = TimingModel(next(d for d in DEVICE_GRID
                              if d.name == RUN_DEVICE))
    collector = ProfileCollector()
    execution = run_build(result, timing=timing, profile=collector)
    return {
        "output": list(execution.output),
        "steps": execution.steps,
        "outlined_steps": execution.outlined_steps,
        "cycles": execution.cycles,
        "icache_hits": timing.icache.hits,
        "icache_misses": timing.icache.misses,
        "itlb_hits": timing.itlb.hits,
        "itlb_misses": timing.itlb.misses,
        "taken_branches": timing.taken_branches,
        "mispredicts": timing.mispredicts,
        "text_page_faults": timing.text_page_faults,
        "data_page_faults": timing.data_page_faults,
        "heap_stats": dataclasses.asdict(execution.heap_stats),
        "leaked": list(execution.leaked),
        "profile_sha256": collector.finalize(result.image).digest(),
    }


def build_golden(target: str):
    """(image observations, run observations) for every golden case."""
    sources = generate_app(APP_SPEC)
    images, runs = {}, {}
    for case in sorted(GOLDEN_CONFIGS):
        result = build_golden_case(sources, target, case)
        images[case] = observe(result)
        runs[case] = observe_run(result)
    return images, runs


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


def main(argv) -> int:
    targets = tuple(argv) or GOLDEN_TARGETS
    runs = {}
    if os.path.exists(RUNS_PATH):
        with open(RUNS_PATH, encoding="utf-8") as fh:
            runs = json.load(fh)
    for target in targets:
        images, runs[target] = build_golden(target)
        _write_json(golden_path(target), images)
    _write_json(RUNS_PATH, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
