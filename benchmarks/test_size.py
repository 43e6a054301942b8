"""Size benchmark: per-preset, per-target byte breakdowns, locked by
the strip win.

Builds one ``appgen`` corpus under every named preset for every target
slice (via :func:`repro.pipeline.build_targets`, so each preset's
frontend runs once, not once per target) and emits ``BENCH_size.json``
at the repo root with text/data/padding/stripped totals — the numbers
the paper's Figure 12 tracks across releases.

Asserted shape claims, not absolute bytes:

* ``min-size`` with link-time stripping produces *strictly* less __text
  than the same stack with ``strip="off"``, on every target, and the
  stripped binary's simulated output is identical;
* ``min-size`` beats ``fast-build`` on __text on every target (the
  size/speed tradeoff exists at corpus scale);
* the per-module size-report rows reconcile exactly with the image the
  totals came from.

Scale with ``REPRO_SIZE_FEATURES`` (default 24 — big enough that every
preset has outlining/merging/stripping work to do, small enough to run
the simulator on every variant).
"""

import json
import os

from repro.link import sizereport
from repro.pipeline import BuildConfig, build_targets
from repro.pipeline.build import run_build
from repro.pipeline.config import PRESETS
from repro.target import available_targets
from repro.workloads.appgen import AppSpec, generate_app

FEATURES = int(os.environ.get("REPRO_SIZE_FEATURES", "24"))
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_size.json")

SCHEMA = "bench-size/1"


def test_size(tmp_path):
    spec = AppSpec(base_features=FEATURES, num_vendors=4, base_handlers=4)
    sources = generate_app(spec)
    targets = list(available_targets())

    presets = {name: BuildConfig.preset(name) for name in sorted(PRESETS)}
    # The strip-off control: min-size with only the strip knob flipped.
    presets["min-size-nostrip"] = BuildConfig.preset("min-size", strip="off")

    rows = {}
    outputs = {}
    for name, config in presets.items():
        results = build_targets(sources, targets, config)
        report = sizereport.build_size_report(results)
        rows[name] = {}
        for target in targets:
            totals = report["targets"][target]["totals"]
            modules = report["targets"][target]["modules"]
            image = results[target].image
            # Reconciliation: module rows sum to the image's sections.
            assert sum(r["text_bytes"] + r["outlined_bytes"]
                       + r["padding_bytes"] for r in modules.values()) \
                == image.text_bytes
            assert sum(r["data_bytes"] for r in modules.values()) \
                == image.data_bytes
            rows[name][target] = {
                "text_bytes": totals["total_text_bytes"],
                "data_bytes": totals["data_bytes"],
                "padding_bytes": totals["padding_bytes"],
                "outlined_bytes": totals["outlined_bytes"],
                "metadata_bytes": totals["metadata_bytes"],
                "binary_bytes": totals["binary_bytes"],
                "stripped_functions": totals["stripped_functions"],
                "stripped_bytes": totals["stripped_bytes"],
                "functions": totals["functions"],
            }
        outputs[name] = run_build(results[targets[0]],
                                  max_steps=200_000_000).output

    # Every preset computes the same program.
    reference = outputs["balanced"]
    for name, output in outputs.items():
        assert output == reference, f"{name} diverged from balanced"

    for target in targets:
        stripped = rows["min-size"][target]
        control = rows["min-size-nostrip"][target]
        assert stripped["text_bytes"] < control["text_bytes"], (
            f"{target}: stripping did not strictly reduce __text "
            f"({stripped['text_bytes']} vs {control['text_bytes']})")
        assert stripped["stripped_functions"] > 0
        assert control["stripped_functions"] == 0
        assert (rows["min-size"][target]["text_bytes"]
                < rows["fast-build"][target]["text_bytes"]), (
            f"{target}: min-size not smaller than fast-build")

    payload = {
        "schema": SCHEMA,
        "corpus": {
            "features": FEATURES,
            "modules": len(sources),
        },
        "presets": rows,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
