"""Scale benchmark: function-level incremental builds, locked by ceilings.

Builds a large ``appgen`` corpus three ways under the ``fast-build``
preset — cold, warm no-op (unchanged sources), and warm after a
single-function edit — and emits ``BENCH_scale.json`` at the repo root
with the measured walls, peak RSS, and functions-recompiled-per-edit.

The asserted ceilings are what turn the tentpole's wins from anecdotes
into regressions CI can catch:

* warm no-op rebuild ≥ ``MIN_NOOP_SPEEDUP``× faster than cold (the image
  entry hits without deserializing per-module LIR or machine IR);
* a single-function edit misses exactly one module key, recompiles
  exactly one function and misses exactly one per-module llc entry
  (every other module keys on its imports' unchanged interfaces, and the
  edited module's other functions come from the function-level cache);
* the edit rebuild stays a small fraction of a cold build: it parses,
  checks and lowers one module, so what remains is loading the other
  modules' cache entries, relinking, and storing the new image;
* peak RSS stays bounded;
* the warm no-op's image, loaded from the cache, holds exactly one
  instruction object per distinct ``MachineInstr.key()`` (a count, not a
  time: a change that loses the sharing fails here);
* the image runs leak-free, with the same output as the corpus built
  without outlining (its 248 classes need type ids past 255).

Scale with ``REPRO_SCALE_FEATURES`` (default 120 ≈ 3.6k functions /
128 modules; raise it to approach the paper's 10k-function regime —
the ceilings are ratios, so they hold at any scale).

Every build, the warm no-op included, runs the post-link verifier on
the image it returns, as every build does.
"""

import json
import os
import resource
import time

from repro.pipeline import BuildConfig, build_program, run_build
from repro.workloads.appgen import (AppSpec, edit_function, generate_app,
                                    function_fingerprints)

FEATURES = int(os.environ.get("REPRO_SCALE_FEATURES", "120"))
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_scale.json")

#: Asserted ceilings (see module docstring).  Ratios, not absolute
#: seconds, so they are stable across machines.
MIN_NOOP_SPEEDUP = 10.0
MAX_EDIT_FRACTION_OF_COLD = 0.25
MAX_MODULE_MISSES_PER_EDIT = 1
MAX_FUNCTIONS_RECOMPILED_PER_EDIT = 1
MAX_LLC_MISSES_PER_EDIT = 1
MAX_PEAK_RSS_MB = 1024.0


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_build(sources, config):
    start = time.monotonic()
    result = build_program(sources, config)
    return result, time.monotonic() - start


def test_scale(tmp_path):
    spec = AppSpec(base_features=FEATURES, num_vendors=6, base_handlers=5)
    sources = generate_app(spec)
    config = BuildConfig.preset("fast-build", cache_dir=str(tmp_path))

    cold, cold_wall = _timed_build(sources, config)
    noop, noop_wall = _timed_build(sources, config)
    assert noop.report.image_cache_hit

    # Edit exactly one function in one mid-corpus module.
    module = sorted(sources)[len(sources) // 2]
    func = sorted(function_fingerprints(spec)[module])[0]
    edited = dict(sources)
    edited[module] = edit_function(sources[module], func, marker=7)
    edit, edit_wall = _timed_build(edited, config)
    report = edit.report

    speedup = cold_wall / noop_wall
    edit_fraction = edit_wall / cold_wall
    peak_rss = _peak_rss_mb()
    image_instrs = noop.image.instrs
    distinct_keys = len({instr.key() for instr in image_instrs})
    distinct_objects = len({id(instr) for instr in image_instrs})
    payload = {
        "schema": "bench-scale/1",
        "corpus": {
            "features": FEATURES,
            "modules": len(sources),
            "functions": cold.sizes.num_functions,
        },
        "cold_wall_s": round(cold_wall, 3),
        "warm_noop_wall_s": round(noop_wall, 3),
        "warm_edit_wall_s": round(edit_wall, 3),
        "noop_speedup": round(speedup, 2),
        "edit_fraction_of_cold": round(edit_fraction, 3),
        "module_misses_per_edit": report.cache_misses,
        "functions_recompiled_per_edit": report.functions_recompiled,
        "llc_cache_misses_per_edit": report.llc_cache_misses,
        "fn_cache_hits_per_edit": report.fn_cache_hits,
        "image_instrs": len(image_instrs),
        "image_distinct_instrs": distinct_keys,
        "peak_rss_mb": round(peak_rss, 1),
        "ceilings": {
            "min_noop_speedup": MIN_NOOP_SPEEDUP,
            "max_edit_fraction_of_cold": MAX_EDIT_FRACTION_OF_COLD,
            "max_module_misses_per_edit": MAX_MODULE_MISSES_PER_EDIT,
            "max_functions_recompiled_per_edit":
                MAX_FUNCTIONS_RECOMPILED_PER_EDIT,
            "max_llc_misses_per_edit": MAX_LLC_MISSES_PER_EDIT,
            "max_peak_rss_mb": MAX_PEAK_RSS_MB,
        },
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(payload, indent=2))

    # The edited binary differs from the cold one; the no-op one doesn't.
    assert noop.image.text_section() == cold.image.text_section()
    assert edit.image.text_section() != cold.image.text_section()

    assert report.cache_misses == MAX_MODULE_MISSES_PER_EDIT
    assert report.functions_recompiled == MAX_FUNCTIONS_RECOMPILED_PER_EDIT
    assert report.llc_cache_misses == MAX_LLC_MISSES_PER_EDIT
    assert report.fn_cache_hits > 0
    assert speedup >= MIN_NOOP_SPEEDUP, (
        f"warm no-op only {speedup:.1f}x faster than cold")
    assert edit_fraction <= MAX_EDIT_FRACTION_OF_COLD, (
        f"single-function edit rebuild cost {edit_fraction:.2f} of cold")
    assert peak_rss <= MAX_PEAK_RSS_MB, f"peak RSS {peak_rss:.0f} MB"
    # One shared object per distinct instruction in the cache-loaded image.
    assert distinct_objects == distinct_keys < len(image_instrs), (
        f"{distinct_objects} instruction objects for {distinct_keys} "
        f"distinct instructions")

    ran = run_build(cold)
    assert ran.leaked == []
    reference = build_program(sources, BuildConfig(
        pipeline="default", outline_rounds=0, workers=0))
    assert ran.output == run_build(reference).output
