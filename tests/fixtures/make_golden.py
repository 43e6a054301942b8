"""Regenerate the golden image fixtures (``golden_<target>.json``).

One file per target, each pinning every configuration in
:data:`GOLDEN_CONFIGS` bit-identically.  ``merge_mode`` is pinned "off"
in every case: the goldens define the pre-merge baseline, and a leaking
``REPRO_MERGE`` environment variable must never be able to change them
silently.

This module is also the single source of truth the cross-target tests
load (by path) for the app spec, the pinned configs, and the observation
schema — so the tests and the regeneration script can never drift apart.

Usage::

    PYTHONPATH=src python tests/fixtures/make_golden.py [target ...]

With no arguments both targets are regenerated.  Only run this when a
golden change is *intentional*; commit the diff with an explanation.
"""

import hashlib
import json
import os
import sys

from repro.pipeline import BuildConfig, build_program
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


def build_golden(target: str) -> dict:
    sources = generate_app(APP_SPEC)
    return {case: observe(build_program(sources, BuildConfig(
                target=target, **GOLDEN_CONFIGS[case])))
            for case in sorted(GOLDEN_CONFIGS)}


def main(argv) -> int:
    targets = tuple(argv) or GOLDEN_TARGETS
    for target in targets:
        path = golden_path(target)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(build_golden(target), fh, indent=2, sort_keys=True)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
