"""Observability subsystem tests: tracer/span mechanics, metrics registry
semantics, Chrome trace export, the report<->trace shared clock, worker
span adoption across fork, and degradation events on the timeline."""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    NullTracer,
    Span,
    Tracer,
    chrome_trace_dict,
    current_tracer,
    metrics_dict,
    profile_lines,
    use_tracer,
    write_chrome_trace,
    write_metrics,
)
from repro.obs import trace as obs_trace
from repro.pipeline import BuildConfig, build_program, parallel
from repro.pipeline.faults import FaultPlan

SOURCES = {
    "Lib": """
func work(x: Int) -> Int {
    var acc = x
    for i in 0..<4 { acc += i * x }
    return acc
}
""",
    "Main": """
import Lib
func main() {
    var total = 0
    for i in 0..<5 { total += work(x: i) }
    print(total)
}
""",
}


def _traced_build(config=None):
    tracer = Tracer()
    with use_tracer(tracer):
        result = build_program(dict(SOURCES), config or BuildConfig(
            pipeline="wholeprogram", outline_rounds=2))
    return result, tracer


class TestSpans:
    def test_nesting_and_walk_order(self):
        tracer = Tracer()
        with tracer.span("outer", kind="a"):
            with tracer.span("inner1"):
                pass
            with tracer.span("inner2"):
                tracer.event("marker", n=1)
        assert [s.name for s in tracer.all_spans()] == [
            "outer", "inner1", "inner2", "marker"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner1", "inner2"]
        assert outer.children[1].children[0].instant

    def test_durations_are_monotone_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration >= inner.duration >= 0.0
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_end_span_tolerates_exception_unwinding(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.start_span("orphan")  # never explicitly ended
                raise RuntimeError
        # The stack must be fully unwound: new spans land at the root.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]

    def test_structure_excludes_timestamps(self):
        def shape():
            tracer = Tracer()
            with tracer.span("a", kind="x") as sp:
                sp.annotate(delta=3)
                tracer.event("e")
            return tracer.structure()

        assert shape() == shape()

    def test_annotate_merges_attrs(self):
        span = Span(name="s", start=0.0, attrs={"a": 1})
        span.annotate(b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_adopt_relabels_tracks_recursively(self):
        child = Span(name="leaf", start=0.0, end=1.0)
        parent = Span(name="chunk", start=0.0, end=1.0, children=[child])
        tracer = Tracer()
        tracer.adopt([parent], track=3)
        assert {s.track for s in tracer.all_spans()} == {3}


class TestAmbientTracer:
    def test_defaults_to_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with obs_trace.span("via-module", kind="t"):
                pass
        assert current_tracer() is NULL_TRACER
        assert [s.name for s in tracer.all_spans()] == ["via-module"]

    def test_null_tracer_records_nothing(self):
        null = NullTracer()
        with null.span("x") as sp:
            sp.annotate(a=1)
        null.event("y")
        assert list(null.all_spans()) == []
        assert null.structure() == ()
        assert null.metrics is NULL_METRICS

    def test_null_metrics_discard_writes(self):
        NULL_METRICS.inc("c")
        NULL_METRICS.set_gauge("g", 1)
        NULL_METRICS.observe("h", 2.0)
        assert NULL_METRICS.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.inc("c", -2)  # net deltas allowed
        reg.set_gauge("g", 7)
        reg.set_gauge("g", 9)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        dump = reg.as_dict()
        assert dump["counters"]["c"] == 3
        assert dump["gauges"]["g"] == 9
        assert dump["histograms"]["h"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_merge_semantics(self):
        reg = MetricsRegistry()
        reg.inc("c", 1)
        reg.set_gauge("g", 1)
        reg.observe("h", 5.0)
        snap = MetricsSnapshot(
            counters={"c": 2}, gauges={"g": 8},
            histograms={"h": HistogramSummary(count=1, total=1.0,
                                              min=1.0, max=1.0)})
        reg.merge(snap)
        dump = reg.as_dict()
        assert dump["counters"]["c"] == 3          # counters add
        assert dump["gauges"]["g"] == 8            # gauges last-write-wins
        assert dump["histograms"]["h"]["count"] == 2
        assert dump["histograms"]["h"]["min"] == 1.0
        assert dump["histograms"]["h"]["max"] == 5.0

    def test_snapshot_is_independent_copy(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        reg.observe("h", 9.0)
        assert snap.histograms["h"].count == 1

    def test_dump_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        assert list(reg.as_dict()["counters"]) == ["a", "z"]


class TestTracedBuild:
    def test_pipeline_spans_present(self):
        _, tracer = _traced_build()
        names = [s.name for s in tracer.all_spans()]
        for phase in ("parse", "sema", "silgen", "lower", "llvm-link",
                      "opt", "llc", "link", "verify"):
            assert phase in names, phase
        assert "build" in names
        assert any(n.startswith("lir-pass:") for n in names)
        assert "outline-round" in names
        assert "verify-image" in names

    def test_trace_structure_is_deterministic(self):
        _, first = _traced_build()
        _, second = _traced_build()
        assert first.structure() == second.structure()

    def test_metrics_cover_the_pipeline(self):
        _, tracer = _traced_build()
        dump = tracer.metrics.as_dict()
        assert any(k.startswith("lir.pass.") for k in dump["counters"])
        # Repeated outlining stops early once a round finds nothing new.
        assert 1 <= dump["counters"]["outliner.rounds"] <= 2
        assert "outliner.bytes_saved" in dump["counters"]
        assert "cache.enabled" in dump["gauges"]
        assert dump["gauges"]["verify.passed"] == 1
        assert dump["gauges"]["image.text_bytes"] > 0
        assert "outliner.round_bytes_saved" in dump["histograms"]

    def test_report_and_trace_share_one_clock(self):
        # Satellite (d): BuildReport phase timings are copied verbatim
        # from the span durations — exact float equality, zero drift.
        result, tracer = _traced_build()
        by_phase = {}
        for span in tracer.all_spans():
            if span.attrs.get("kind") == "phase":
                by_phase[span.name] = by_phase.get(span.name, 0.0) \
                    + span.duration
        assert result.report.phase_wall, "no phases recorded"
        for name, wall in result.report.phase_wall.items():
            assert by_phase.get(name) == wall, name

    def test_untraced_report_still_times_phases(self):
        result = build_program(dict(SOURCES),
                               BuildConfig(pipeline="wholeprogram",
                                           outline_rounds=1))
        assert result.report.phase_wall
        assert all(v >= 0.0 for v in result.report.phase_wall.values())


class TestWorkerAdoption:
    def test_forked_worker_spans_land_on_tracks(self):
        _, tracer = _traced_build(BuildConfig(pipeline="default",
                                              outline_rounds=1, workers=2))
        chunk_spans = [s for s in tracer.all_spans()
                       if s.name.startswith("worker-chunk:")]
        assert chunk_spans, "no worker spans adopted"
        assert all(s.track > 0 for s in chunk_spans)
        # Worker-side pass spans travel with their chunk.
        assert any(c.name.startswith("lir-pass:")
                   for s in chunk_spans for c in s.walk())

    def test_worker_metrics_are_merged(self):
        _, serial = _traced_build(BuildConfig(pipeline="default",
                                              outline_rounds=1, workers=1))
        _, forked = _traced_build(BuildConfig(pipeline="default",
                                              outline_rounds=1, workers=2))
        s_counts = serial.metrics.as_dict()["counters"]
        f_counts = forked.metrics.as_dict()["counters"]
        for name in s_counts:
            if name.startswith("lir.pass.") and name.endswith(".runs"):
                assert f_counts.get(name) == s_counts[name], name

    def test_adoption_order_is_chunk_order(self):
        _, tracer = _traced_build(BuildConfig(pipeline="default",
                                              outline_rounds=1, workers=2))
        chunk_ids = [s.attrs["chunk"] for s in tracer.all_spans()
                     if s.name.startswith("worker-chunk:lower")]
        assert chunk_ids == sorted(chunk_ids)

    def test_persistent_pool_traces_the_submitting_build(self):
        # The pool forks during the first, untraced build; the second
        # build's chunks must still come back with their spans.
        config = BuildConfig.preset("fast-build", incremental=False,
                                    workers=2)
        tracer = Tracer()
        parallel.shutdown_persistent_pool()
        try:
            build_program(dict(SOURCES), config)
            with use_tracer(tracer):
                build_program(dict(SOURCES), config)
        finally:
            parallel.shutdown_persistent_pool()
        chunks = [s for s in tracer.all_spans()
                  if s.name == "worker-chunk:lower"]
        assert chunks


class TestDegradationEvents:
    def test_degradations_become_instant_annotations(self):
        plan = FaultPlan(seed=42, worker_crash_rate=1.0)
        config = BuildConfig(pipeline="default", outline_rounds=1, workers=3,
                             fault_plan=plan, chunk_timeout=0.5)
        result, tracer = _traced_build(config)
        instants = [s for s in tracer.all_spans()
                    if s.instant and s.name.startswith("degraded:")]
        assert instants
        assert all(s.attrs["kind"] == "degradation" for s in instants)
        counts = tracer.metrics.as_dict()["counters"]
        assert counts["build.degradations"] == len(
            result.report.degradations)
        assert "build.degradations.worker-crash" in counts


class TestExport:
    def test_chrome_trace_shape(self, tmp_path):
        _, tracer = _traced_build()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert complete and metadata
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["args"], dict)
        assert {"thread_name"} == {e["name"] for e in metadata}
        assert any(e["args"]["name"] == "build" for e in metadata)

    def test_instant_events_marked(self):
        tracer = Tracer()
        with tracer.span("b", kind="build"):
            tracer.event("degraded:worker-crash", kind="degradation")
        events = chrome_trace_dict(tracer)["traceEvents"]
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert "dur" not in instant

    def test_worker_tracks_named(self):
        tracer = Tracer()
        tracer.adopt([Span(name="chunk", start=0.0, end=1.0)], track=2)
        events = chrome_trace_dict(tracer)["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "worker chunk 1" in names

    def test_metrics_json_round_trips(self, tmp_path):
        _, tracer = _traced_build()
        path = tmp_path / "metrics.json"
        write_metrics(tracer, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"counters", "gauges", "histograms"}
        assert doc == metrics_dict(tracer)

    def test_profile_lines_render(self):
        _, tracer = _traced_build()
        lines = profile_lines(tracer)
        text = "\n".join(lines)
        assert "profile" in text and "metrics:" in text
        assert "opt" in text

    def test_profile_lines_empty_tracer(self):
        assert "(no spans recorded)" in "\n".join(profile_lines(Tracer()))
