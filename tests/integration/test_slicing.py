"""App-thinning slicing: one frontend, per-target backends, size reports.

Pins the PR-10 tentpole contract:

* a two-target sliced build parses each module once and runs sema and
  silgen exactly once (asserted from tracer span counts, the only
  timing-free evidence);
* every slice is bit-identical to a standalone single-target build;
* a fully warm sliced build never re-runs the frontend (image-cache
  hits on every slice);
* ``build_program`` is a one-target ``build_targets``: the same spans
  and the same typed error for an unknown target, as in ``api.build``;
* the CLI surfaces (``build --target a --target b``, ``size``) and the
  baseline-diff gate behave.
"""

import glob
import hashlib
import json
import os
import pickle

import pytest

from repro import api
from repro.errors import ReproError
from repro.link import sizereport
from repro.obs import Tracer, use_tracer
from repro.pipeline import (
    BuildConfig,
    build_program,
    build_targets,
)
from repro.pipeline.build import run_build

SOURCES = {
    "Lib": """
func scale(x: Int) -> Int { return x * 7 }
func helper(x: Int) -> Int { return scale(x: x) + 1 }
func unused(x: Int) -> Int { return x - 2 }
""",
    "Main": """
import Lib
func main() {
    var total = 0
    for i in 0..<5 { total += helper(x: i) }
    print(total)
}
""",
}

TARGETS = ["arm64", "thumb2c"]


def _sha(image) -> str:
    return (hashlib.sha256(image.text_section()).hexdigest(),
            hashlib.sha256(image.data_section()).hexdigest())


def _span_counts(tracer):
    counts = {}
    for root in tracer.roots:
        for span in root.walk():
            counts[span.name] = counts.get(span.name, 0) + 1
    return counts


class TestSlicedBuild:
    def test_frontend_runs_once_and_slices_are_bit_identical(self):
        tracer = Tracer()
        with use_tracer(tracer):
            results = build_targets(SOURCES, TARGETS,
                                    BuildConfig(outline_rounds=2))
        counts = _span_counts(tracer)
        # The target-independent front half ran exactly once for two
        # targets (each module parsed once, under its own span); each
        # target got its own backend.
        assert counts.get("parse") == len(SOURCES), counts
        for phase in ("sema", "silgen", "frontend"):
            assert counts.get(phase) == 1, (phase, counts)
        assert counts.get("backend") == 2
        assert counts.get("build") == 1

        assert list(results) == TARGETS
        for target in TARGETS:
            standalone = build_program(
                SOURCES, BuildConfig(outline_rounds=2, target=target))
            assert _sha(results[target].image) == _sha(standalone.image)
            assert results[target].config.target == target
            assert results[target].report.target == target

    def test_slices_execute_identically(self):
        results = build_targets(SOURCES, TARGETS, BuildConfig())
        outputs = {t: run_build(r).output for t, r in results.items()}
        assert outputs["arm64"] == outputs["thumb2c"] == ["75"]

    def test_single_target_slicing_matches_plain_build(self):
        sliced = build_targets(SOURCES, ["thumb2c"], BuildConfig())
        plain = build_program(SOURCES, BuildConfig(target="thumb2c"))
        assert _sha(sliced["thumb2c"].image) == _sha(plain.image)

    def test_warm_sliced_build_skips_frontend(self, tmp_path):
        config = BuildConfig(incremental=True, cache_dir=str(tmp_path))
        build_targets(SOURCES, TARGETS, config)
        tracer = Tracer()
        with use_tracer(tracer):
            warm = build_targets(SOURCES, TARGETS, config)
        counts = _span_counts(tracer)
        for phase in ("parse", "sema", "silgen", "frontend", "backend"):
            assert counts.get(phase, 0) == 0, (phase, counts)
        for target in TARGETS:
            assert warm[target].report.image_cache_hit
            cold = build_program(
                SOURCES, BuildConfig(target=target))
            assert _sha(warm[target].image) == _sha(cold.image)

    def test_bad_target_lists_are_typed_errors(self):
        with pytest.raises(ReproError, match="at least one target"):
            build_targets(SOURCES, [], BuildConfig())
        with pytest.raises(ReproError, match="duplicate"):
            build_targets(SOURCES, ["arm64", "arm64"], BuildConfig())
        with pytest.raises(ReproError, match="unknown target"):
            build_targets(SOURCES, ["riscv"], BuildConfig())


class TestSliceAccounting:
    """Each slice counts its own cache work, and the build publishes its
    gauges once, summed over its slices."""

    def test_gauges_are_sums_over_slices(self):
        tracer = Tracer()
        with use_tracer(tracer):
            results = build_targets(SOURCES, TARGETS,
                                    BuildConfig.preset("min-size"))
        gauges = tracer.metrics.gauges
        texts = [r.image.text_bytes for r in results.values()]
        stripped = [r.report.stripped_bytes for r in results.values()]
        assert len(set(texts)) == 2 and min(stripped) > 0
        assert gauges["image.text_bytes"] == sum(texts)
        assert gauges["image.binary_bytes"] == sum(
            r.image.binary_bytes for r in results.values())
        assert gauges["strip.bytes_removed"] == sum(stripped)
        assert gauges["strip.functions_removed"] == sum(
            r.report.stripped_functions for r in results.values())
        # One slice: the gauges are that slice's own values.
        tracer = Tracer()
        with use_tracer(tracer):
            one = build_program(SOURCES, BuildConfig.preset("min-size"))
        assert tracer.metrics.gauges["image.text_bytes"] == texts[0]
        assert tracer.metrics.gauges["strip.bytes_removed"] == (
            one.report.stripped_bytes)

    def _config(self, tmp_path):
        return BuildConfig.preset("balanced", workers=1,
                                  cache_dir=str(tmp_path))

    def test_recovery_is_noted_only_on_its_own_slice(self, tmp_path):
        """A corrupt image entry of one slice is that slice's recovery:
        the other slice's image hit reports none."""
        build_targets(SOURCES, TARGETS, self._config(tmp_path))
        corrupted = 0
        for path in glob.glob(os.path.join(tmp_path, "objects", "*",
                                           "*.pkl")):
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (isinstance(entry, dict) and "image" in entry
                    and entry["image"].target_name == "arm64"):
                with open(path, "wb") as fh:
                    fh.write(b"garbage")
                corrupted += 1
        assert corrupted == 1
        warm = build_targets(SOURCES, TARGETS, self._config(tmp_path))
        kinds = {name: [e.kind for e in r.report.degradations]
                 for name, r in warm.items()}
        assert not warm["arm64"].report.image_cache_hit
        assert kinds["arm64"] == ["cache-quarantine"]
        assert warm["thumb2c"].report.image_cache_hit
        assert kinds["thumb2c"] == []

    def test_each_slice_counts_its_own_stores(self, tmp_path):
        """A slice's stores are the frontend's (a meta and a module entry
        per module, an entry per function) plus its own machine-code
        entries and image."""
        cold = build_targets(SOURCES, TARGETS, self._config(tmp_path))
        for result in cold.values():
            report = result.report
            assert report.cache_stores == (2 * report.num_modules
                                           + report.fn_cache_misses
                                           + report.llc_cache_misses + 1)


class TestOneTargetBuild:
    def test_single_target_build_opens_one_of_each_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            build_program(SOURCES, BuildConfig(outline_rounds=1))
        counts = _span_counts(tracer)
        for name in ("build", "frontend", "backend"):
            assert counts.get(name) == 1, (name, counts)

    def test_build_program_rejects_unknown_target_typed(self):
        with pytest.raises(ReproError, match="unknown target"):
            build_program(SOURCES, BuildConfig(target="riscv"))
        with pytest.raises(ReproError, match="unknown target"):
            api.build(SOURCES, target="riscv")


class TestApiSurface:
    def test_build_targets_keyword(self):
        results = api.build(SOURCES, targets=TARGETS, outline_rounds=2)
        assert set(results) == set(TARGETS)
        # The no-targets build follows the session default target; its
        # slice must match it bit for bit.
        single = api.build(SOURCES, outline_rounds=2)
        assert _sha(results[single.config.target].image) == _sha(single.image)

    def test_preset_with_targets(self):
        results = api.build(SOURCES, preset="min-size", targets=TARGETS)
        for target in TARGETS:
            assert results[target].report.strip_mode == "program"
            assert results[target].report.stripped_functions >= 1


class TestSizeReport:
    def _report(self):
        results = build_targets(SOURCES, TARGETS, BuildConfig())
        return sizereport.build_size_report(results), results

    def test_totals_reconcile_with_image(self):
        report, results = self._report()
        assert report["schema"] == sizereport.SCHEMA
        for target, result in results.items():
            totals = report["targets"][target]["totals"]
            image = result.image
            assert totals["total_text_bytes"] == image.text_bytes
            assert (totals["text_bytes"] + totals["outlined_bytes"]
                    + totals["padding_bytes"] == image.text_bytes)
            assert totals["binary_bytes"] == image.binary_bytes
            modules = report["targets"][target]["modules"]
            assert sum(r["text_bytes"] + r["outlined_bytes"]
                       + r["padding_bytes"] for r in modules.values()) \
                == image.text_bytes
            assert sum(r["padding_bytes"] for r in modules.values()) \
                == image.alignment_padding_bytes
            assert sum(r["metadata_bytes"] for r in modules.values()) \
                == image.metadata_bytes

    def test_canonical_json_is_stable(self):
        report1, _ = self._report()
        report2, _ = self._report()
        assert (sizereport.canonical_json(report1)
                == sizereport.canonical_json(report2))
        # Canonical: parses back to the same object, keys sorted.
        parsed = json.loads(sizereport.canonical_json(report1))
        assert parsed == report1

    def test_diff_gate_passes_on_identical_reports(self):
        report, _ = self._report()
        lines, failures = sizereport.diff_reports(report, report)
        assert not failures
        assert any("ok" in line for line in lines)

    def test_diff_gate_fails_on_text_growth(self):
        report, _ = self._report()
        grown = json.loads(sizereport.canonical_json(report))
        totals = grown["targets"]["arm64"]["totals"]
        totals["total_text_bytes"] = int(totals["total_text_bytes"] * 1.10)
        lines, failures = sizereport.diff_reports(report, grown,
                                                  max_text_growth_pct=1.0)
        assert failures and "arm64" in failures[0]
        # Shrinkage and new targets never fail.
        _, ok = sizereport.diff_reports(grown, report)
        assert not ok


class TestCli:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "App.sw"
        path.write_text(
            "func scale(x: Int) -> Int { return x * 3 }\n"
            "func main() { print(scale(x: 14)) }\n")
        return str(path)

    def _run(self, args):
        import io
        import sys

        out, err = io.StringIO(), io.StringIO()
        old_out, old_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            from repro.__main__ import main
            code = main(args)
        finally:
            sys.stdout, sys.stderr = old_out, old_err
        return code, out.getvalue(), err.getvalue()

    def test_multi_target_build(self, source_file):
        code, out, _ = self._run(["build", source_file,
                                  "--target", "arm64",
                                  "--target", "thumb2c"])
        assert code == 0
        assert "slice arm64" in out and "slice thumb2c" in out
        assert "frontend shared with target arm64" in out

    def test_size_verb_and_gate(self, source_file, tmp_path):
        baseline = str(tmp_path / "base.json")
        code, out, _ = self._run(["size", source_file,
                                  "--target", "arm64",
                                  "--target", "thumb2c",
                                  "--preset", "min-size",
                                  "--out", baseline])
        assert code == 0 and "target arm64:" in out
        report = json.loads(open(baseline).read())
        assert report["schema"] == sizereport.SCHEMA

        code, out, _ = self._run(["size", source_file,
                                  "--target", "arm64",
                                  "--target", "thumb2c",
                                  "--preset", "min-size",
                                  "--baseline", baseline])
        assert code == 0 and "ok" in out

        # Inject a regression into the baseline: pretend the past was
        # much smaller, so the current build trips the gate.
        report["targets"]["arm64"]["totals"]["total_text_bytes"] = 4
        with open(baseline, "w") as fh:
            fh.write(sizereport.canonical_json(report))
        code, out, err = self._run(["size", source_file,
                                    "--target", "arm64",
                                    "--target", "thumb2c",
                                    "--preset", "min-size",
                                    "--baseline", baseline])
        assert code == 1
        assert "FAIL" in out and "arm64" in err

    def test_multi_target_rejected_elsewhere(self, source_file):
        code, _, err = self._run(["run", source_file,
                                  "--target", "arm64",
                                  "--target", "thumb2c"])
        assert code != 0
        assert "one --target" in err
