"""Per-build bookkeeping: phase wall clocks, pass reports and
cache/parallel telemetry.

Every :func:`repro.pipeline.build_program` call fills in a
:class:`BuildReport`; experiments use it to put *measured* seconds next to
the §VII-C *modeled* minutes, and the CLI prints it after a build.  Wall
times are host seconds (a Python toolchain's absolute numbers are only
meaningful relative to each other — cold vs warm, serial vs parallel).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterator, List

from repro.obs import trace as obs_trace

#: merge_mode -> the pass that implements it, whose pass report is the
#: build's merge summary.
MERGE_PASSES = {"exact": "mergefunctions", "optimistic": "optmerge"}


def _known_fields(cls, data: Dict[str, object]) -> Dict[str, object]:
    """The entries of *data* that name a field of dataclass *cls*: an
    unknown key is dropped, and a missing one leaves its field's default."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}


@dataclass
class DegradationEvent:
    """One recovery action the orchestrator took instead of failing.

    ``kind`` is a stable machine-readable tag; the full set is documented
    in DESIGN.md ("Failure model and degradation ladder"):

    * ``worker-crash`` / ``chunk-timeout`` / ``chunk-error`` — a chunk
      attempt failed (the detail says why) and was retried or re-run;
    * ``chunk-serial-rerun`` — a chunk exhausted its pool retries and was
      recompiled serially in the parent process;
    * ``no-fork`` / ``pool-unavailable`` — the platform (or an injected
      fault) prevented a worker pool; the phase ran serially;
    * ``cache-quarantine`` / ``cache-store-failed`` — a corrupt cache
      entry was moved aside, or a store did not complete.
    """

    kind: str
    phase: str = ""
    detail: str = ""
    chunk: int = -1
    attempt: int = 0

    def render(self) -> str:
        where = f" [{self.phase}" + (
            f" chunk {self.chunk}" if self.chunk >= 0 else "") + "]"
        attempt = f" (attempt {self.attempt})" if self.attempt else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{where}{attempt}{detail}"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DegradationEvent":
        """Rebuild an event from its ``dataclasses.asdict`` form."""
        return cls(**_known_fields(cls, data))


@dataclass
class BuildReport:
    """What one build did and how long each phase took."""

    #: Modules in the input program.
    num_modules: int = 0
    #: Target specification the build was lowered for ("" = default).
    target: str = ""
    #: Whole-program function-merging mode ("off"/"exact"/"optimistic").
    merge_mode: str = "off"
    #: Link-time whole-program stripping mode ("off"/"program").
    strip_mode: str = "off"
    #: Baseline-pass observations (Table I): pass name -> metric dict,
    #: each written once by its pass; ``merge_stats`` and the strip totals
    #: are read-only views of it.
    pass_reports: Dict[str, dict] = field(default_factory=dict)
    #: Worker processes used for the parallel frontend (1 = serial).
    workers: int = 1
    #: Whether the content-addressed cache was consulted.
    cache_enabled: bool = False
    #: Per-module LIR cache outcomes.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    #: Function-level LIR cache outcomes (within module-level misses).
    fn_cache_hits: int = 0
    fn_cache_misses: int = 0
    #: Functions actually relowered+reoptimized this build (the
    #: functions-recompiled-per-edit gauge; 0 on a fully warm build).
    functions_recompiled: int = 0
    #: Per-module machine-code (llc) cache outcomes (default pipeline).
    llc_cache_hits: int = 0
    llc_cache_misses: int = 0
    #: True when the whole linked image came from the cache (nothing was
    #: recompiled, not even the frontend).
    image_cache_hit: bool = False
    #: Wall seconds per phase, in execution order.
    phase_wall: Dict[str, float] = field(default_factory=dict)
    #: Free-form notes (e.g. "parallel frontend fell back to serial").
    notes: List[str] = field(default_factory=list)
    #: Structured recovery actions (retries, serial re-runs, quarantines).
    degradations: List[DegradationEvent] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase; nested/repeated uses accumulate.

        The clock is :func:`repro.obs.trace.now` — the same monotonic
        source the tracer stamps spans with.  When a tracer is active the
        phase *is* a span and ``phase_wall`` takes that span's duration
        verbatim, so the report and the trace can never drift.
        """
        tracer = obs_trace.current_tracer()
        if not tracer.enabled:
            start = obs_trace.now()
            try:
                yield
            finally:
                elapsed = obs_trace.now() - start
                self.phase_wall[name] = (self.phase_wall.get(name, 0.0)
                                         + elapsed)
            return
        span = tracer.start_span(name, kind="phase")
        try:
            yield
        finally:
            tracer.end_span(span)
            self.phase_wall[name] = (self.phase_wall.get(name, 0.0)
                                     + span.duration)

    @property
    def total_wall(self) -> float:
        return sum(self.phase_wall.values())

    @property
    def merge_stats(self) -> Dict[str, int]:
        """The merge pass's report (empty when ``merge_mode`` is "off"):
        functions_merged / thunks_created / bytes_saved / ..."""
        return self.pass_reports.get(MERGE_PASSES.get(self.merge_mode), {})

    @property
    def stripped_functions(self) -> int:
        """Functions removed by link-time stripping (0 when it is off)."""
        return self.pass_reports.get("strip", {}).get("functions_removed", 0)

    @property
    def stripped_bytes(self) -> int:
        """Bytes removed by link-time stripping (0 when it is off)."""
        return self.pass_reports.get("strip", {}).get("bytes_removed", 0)

    @property
    def strip_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-module strip outcomes: module -> {"functions": n, "bytes":
        b} (only modules that lost at least one function appear)."""
        return self.pass_reports.get("strip", {}).get("per_module", {})

    def note(self, message: str) -> None:
        self.notes.append(message)

    def degrade(self, kind: str, phase: str = "", detail: str = "",
                chunk: int = -1, attempt: int = 0) -> DegradationEvent:
        """Record (and return) a structured degradation event.

        When a tracer is active the event also lands on the trace as an
        instant annotation at the current nesting (so a degraded build's
        timeline shows *where* the ladder stepped down), and bumps the
        ``build.degradations`` counter.
        """
        event = DegradationEvent(kind=kind, phase=phase, detail=detail,
                                 chunk=chunk, attempt=attempt)
        self.degradations.append(event)
        obs_trace.event(f"degraded:{kind}", kind="degradation", phase=phase,
                        detail=detail, chunk=chunk, attempt=attempt)
        obs_trace.metrics().inc("build.degradations")
        obs_trace.metrics().inc(f"build.degradations.{kind}")
        return event

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dump of every field, complete enough for the daemon
        to journal a job's report and ship it over the wire, and for the
        client to re-render :meth:`summary_lines` verbatim (the same
        ``degraded:`` lines the one-shot CLI prints)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BuildReport":
        """Rebuild a report from :meth:`as_dict` output (a payload from an
        older or newer daemon may lack a field, which takes its default,
        or carry one this report lacks, which is dropped)."""
        report = cls(**_known_fields(cls, data))
        report.degradations = [DegradationEvent.from_dict(event)
                               for event in report.degradations]
        return report

    def summary_lines(self) -> List[str]:
        """Human-readable report (CLI `build` output)."""
        lines = []
        if self.cache_enabled:
            if self.image_cache_hit:
                cache = "image cache hit (no recompilation)"
            else:
                cache = (f"cache {self.cache_hits} hits / "
                         f"{self.cache_misses} misses, "
                         f"{self.cache_stores} stored")
        else:
            cache = "cache off"
        lines.append(f"frontend:  {self.num_modules} modules, "
                     f"{self.workers} worker(s), {cache}")
        if self.cache_enabled and (self.fn_cache_hits or self.fn_cache_misses):
            lines.append(f"functions: {self.fn_cache_hits} cached / "
                         f"{self.functions_recompiled} recompiled")
        if self.cache_enabled and (self.llc_cache_hits
                                   or self.llc_cache_misses):
            lines.append(f"llc cache: {self.llc_cache_hits} hits / "
                         f"{self.llc_cache_misses} misses")
        if self.target:
            lines.append(f"target:    {self.target}")
        if self.merge_mode != "off":
            merged = self.merge_stats.get("functions_merged", 0)
            detail = f"{self.merge_mode}, {merged} function(s) merged"
            exact = self.merge_stats.get("exact_merged")
            if exact is not None:
                detail += (f" ({exact} exact, "
                           f"{self.merge_stats.get('parameterized_merged', 0)}"
                           f" parameterized, "
                           f"{self.merge_stats.get('thunks_created', 0)}"
                           f" thunks)")
            saved = self.merge_stats.get("bytes_saved")
            if saved:
                detail += f", ~{saved}B saved"
            lines.append(f"merge:     {detail}")
        if self.strip_mode != "off":
            lines.append(f"strip:     {self.strip_mode}, "
                         f"{self.stripped_functions} function(s) / "
                         f"{self.stripped_bytes}B removed at link "
                         f"({len(self.strip_stats)} module(s))")
        if self.phase_wall:
            parts = ", ".join(f"{name} {secs * 1000:.0f}ms"
                              for name, secs in self.phase_wall.items())
            lines.append(f"wall:      {parts} "
                         f"(total {self.total_wall * 1000:.0f}ms)")
        if "verify" in self.phase_wall:
            lines.append("verify:    image verified")
        for event in self.degradations:
            lines.append(f"degraded:  {event.render()}")
        for note in self.notes:
            lines.append(f"note:      {note}")
        return lines
