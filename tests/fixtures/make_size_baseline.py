"""Regenerate the committed size baseline (``size_baseline.json``).

The CI ``size-report`` job builds the same pinned corpus under the same
pinned configuration and diffs the fresh report against this file with
``repro size --baseline`` — any target whose __text grows more than
``MAX_TEXT_GROWTH_PCT`` percent fails the job.  The corpus and config
are pinned here (same pattern as :mod:`make_golden`) so the gate and
the regeneration script can never drift apart: the CI job loads this
module by path for both.

Usage::

    PYTHONPATH=src python tests/fixtures/make_size_baseline.py

Only regenerate when a size change is *intentional* (a new pass, a
deliberate tradeoff); commit the diff with an explanation of where the
bytes went — the per-module breakdown in the fresh report shows exactly
that.
"""

import os
import sys

from repro.link import sizereport
from repro.pipeline import BuildConfig, build_targets
from repro.workloads.appgen import AppSpec, generate_app

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(FIXTURE_DIR, "size_baseline.json")

#: The corpus the gate watches — bigger than the goldens' app so every
#: size-relevant pass (outlining, merging, stripping) has work to do.
APP_SPEC = AppSpec(seed=23, base_features=8, num_vendors=3)

#: The configuration under gate: the paper's shipping configuration.
BASELINE_CONFIG = dict(preset="min-size")

#: Every target slices from one frontend, exactly like a release build.
BASELINE_TARGETS = ("arm64", "thumb2c")

#: CI fails on more than this much __text growth per target.
MAX_TEXT_GROWTH_PCT = 1.0


def build_baseline_report():
    sources = generate_app(APP_SPEC)
    preset = BASELINE_CONFIG["preset"]
    knobs = {k: v for k, v in BASELINE_CONFIG.items() if k != "preset"}
    config = BuildConfig.preset(preset, **knobs)
    results = build_targets(sources, list(BASELINE_TARGETS), config)
    return sizereport.build_size_report(results)


def main() -> int:
    report = build_baseline_report()
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        fh.write(sizereport.canonical_json(report))
        fh.write("\n")
    for line in sizereport.render_report(report):
        print(line)
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
