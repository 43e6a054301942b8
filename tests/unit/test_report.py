"""BuildReport is the one record of what a build did.

Each pass writes its report once, into ``pass_reports``; the merge and
strip summaries are views of it.  Both ways a slice ends, an image hit
and a build, publish their gauges from that record, and the report's wire
form (``as_dict``/``from_dict``) is derived from its fields, so the
daemon's journal and the client's re-render cannot drift from them.
"""

import dataclasses
import json

import pytest

from repro.obs import Tracer, use_tracer
from repro.pipeline import BuildConfig, build_program
from repro.pipeline.report import BuildReport, DegradationEvent

#: ``twice`` and ``again`` merge, and link-time stripping removes
#: ``unused``.
SOURCES = {
    "Lib": """
func twice(x: Int) -> Int { return x * 2 + 1 }
func again(x: Int) -> Int { return x * 2 + 1 }
func scaled(x: Int) -> Int { return x * 5 + 3 }
func unused(x: Int) -> Int { return x - 7 }
""",
    "Main": """
import Lib
func main() {
    print(twice(x: 3))
    print(again(x: 4))
    print(scaled(x: 5))
}
""",
}

#: (preset, knobs, pass reports the build must carry).
BUILDS = [
    ("min-size", {}, {"optmerge", "strip"}),
    ("balanced", {}, {"mergefunctions"}),
    ("fast-build", {}, set()),
    ("balanced", {"enable_inliner": True, "enable_fmsa": True},
     {"inliner", "fmsa", "mergefunctions"}),
]


def _summaries(report):
    return [line for line in report.summary_lines()
            if line.startswith(("merge:", "strip:"))]


@pytest.mark.parametrize("preset,knobs,passes", BUILDS,
                         ids=[f"{p}{'+' if k else ''}{'+'.join(k)}"
                              for p, k, _ in BUILDS])
def test_report_survives_the_wire(preset, knobs, passes, tmp_path):
    config = BuildConfig.preset(preset, cache_dir=str(tmp_path), workers=1,
                                persistent_workers=False, **knobs)
    report = build_program(SOURCES, config).report
    assert passes <= set(report.pass_reports)
    back = BuildReport.from_dict(json.loads(json.dumps(report.as_dict())))
    assert back.pass_reports == report.pass_reports
    assert back.summary_lines() == report.summary_lines()


def test_image_hit_publishes_what_the_build_that_stored_it_did(tmp_path):
    """A cached min-size build, then its image hit: the hit carries the
    same pass reports and merge and strip lines, and publishes the same
    ``strip.*`` and ``image.*`` gauges."""
    config = BuildConfig.preset("min-size", incremental=True,
                                cache_dir=str(tmp_path))
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with use_tracer(tracer):
            report = build_program(SOURCES, config).report
        gauges = tracer.metrics.as_dict()["gauges"]
        runs.append((report, {name: value for name, value in gauges.items()
                              if name.startswith(("strip.", "image."))}))
    (cold, cold_gauges), (hit, hit_gauges) = runs
    assert hit.image_cache_hit and not cold.image_cache_hit
    assert cold_gauges["strip.functions_removed"] == 1
    assert hit_gauges == cold_gauges
    assert hit.pass_reports == cold.pass_reports
    assert _summaries(hit) == _summaries(cold)


def test_every_field_survives_the_round_trip():
    """A report with a non-default value in every field comes back equal,
    so the wire form covers each field, including one added later."""
    report = BuildReport(
        num_modules=3, target="thumb2c", merge_mode="optimistic",
        strip_mode="program",
        pass_reports={"optmerge": {"functions_merged": 2},
                      "strip": {"functions_removed": 1, "bytes_removed": 8,
                                "per_module": {"Lib": {"functions": 1,
                                                       "bytes": 8}}}},
        workers=2, cache_enabled=True, cache_hits=1, cache_misses=2,
        cache_stores=3, fn_cache_hits=4, fn_cache_misses=5,
        functions_recompiled=6, llc_cache_hits=7, llc_cache_misses=8,
        image_cache_hit=True, phase_wall={"parse": 0.25}, notes=["a note"],
        degradations=[DegradationEvent("worker-crash", phase="lower",
                                       detail="signal 9", chunk=1,
                                       attempt=2)])
    default = BuildReport()
    for f in dataclasses.fields(BuildReport):
        assert getattr(report, f.name) != getattr(default, f.name), f.name
    back = BuildReport.from_dict(json.loads(json.dumps(report.as_dict())))
    assert back == report
    assert (back.merge_stats, back.stripped_functions, back.stripped_bytes,
            back.strip_stats) == ({"functions_merged": 2}, 1, 8,
                                  {"Lib": {"functions": 1, "bytes": 8}})


def test_unknown_keys_are_dropped_and_missing_keys_default():
    """A report in the older wire form, whose merge and strip summaries
    were fields of their own, keeps the fields both forms share."""
    back = BuildReport.from_dict({
        "num_modules": 2, "merge_mode": "exact",
        "merge_stats": {"functions_merged": 1}, "stripped_functions": 1,
        "stripped_bytes": 8, "strip_stats": {"Lib": {"functions": 1}}})
    assert back == BuildReport(num_modules=2, merge_mode="exact")
    assert back.merge_stats == {} and back.stripped_functions == 0
