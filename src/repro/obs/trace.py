"""Nested-span tracer: the pipeline's single source of timing truth.

Design constraints (DESIGN.md §8):

* **One clock.**  Every duration anywhere in the toolchain — a
  :class:`~repro.pipeline.report.BuildReport` phase, an LIR pass, an
  outlining round, a forked worker chunk — is measured with :func:`now`
  (``time.perf_counter``, i.e. ``CLOCK_MONOTONIC``).  Forked children
  share the parent's clock base on every platform with ``fork``, so
  worker spans land on the parent timeline without translation.

* **Off by default, near-zero overhead.**  The ambient tracer is a
  :class:`NullTracer` singleton whose ``span`` returns one reusable
  no-op context manager and whose metrics registry discards writes; an
  untraced build does no allocation and takes no locks on any hot path.
  Builds must be bit-identical with tracing on and off (enforced by
  ``tests/unit/test_trace_overhead.py``).

* **Deterministic content.**  Span names, attributes, nesting, and
  ordering are a pure function of the build; only ``start``/``end``
  vary run to run.  :meth:`Span.structure` is the comparison surface —
  it excludes timestamps by construction.

* **Process-safe aggregation.**  A forked worker records into its own
  :class:`Tracer`; the finished spans (plain picklable dataclasses)
  travel back with the chunk result and are grafted onto the parent via
  :meth:`Tracer.adopt`, in chunk order, so two runs of the same build
  produce the same tree no matter how the pool scheduled them.

The ambient tracer travels in a :class:`contextvars.ContextVar`, so
concurrent builds in different threads cannot observe each other.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry, NULL_METRICS

AttrValue = Union[str, int, float, bool]


def now() -> float:
    """The pipeline-wide monotonic clock (seconds, arbitrary epoch)."""
    return time.perf_counter()


@dataclass
class Span:
    """One timed region.  Picklable: crosses the worker result pipe."""

    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, AttrValue] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    #: Display track: 0 = orchestrating process, N>0 = worker chunk N-1.
    track: int = 0
    #: Zero-duration marker (degradation events, annotations).
    instant: bool = False

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def annotate(self, **attrs: AttrValue) -> "Span":
        self.attrs.update(attrs)
        return self

    def structure(self) -> Tuple:
        """Timestamp-free shape: the deterministic comparison surface."""
        return (self.name, tuple(sorted(self.attrs.items())), self.instant,
                tuple(child.structure() for child in self.children))

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """Shared no-op stand-in for a Span when tracing is off."""

    __slots__ = ()
    name = ""
    duration = 0.0

    def annotate(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of nested spans plus a metrics registry."""

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self.epoch = now()

    # -- span lifecycle ----------------------------------------------------

    def start_span(self, name: str, **attrs: AttrValue) -> Span:
        span = Span(name=name, start=now(), attrs=dict(attrs))
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.end = now()
        # Tolerate mismatched nesting from exception unwinding: pop through.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    @contextmanager
    def span(self, name: str, **attrs: AttrValue) -> Iterator[Span]:
        sp = self.start_span(name, **attrs)
        try:
            yield sp
        finally:
            self.end_span(sp)

    def event(self, name: str, **attrs: AttrValue) -> Span:
        """Record an instant (zero-duration) marker at the current nesting."""
        ts = now()
        span = Span(name=name, start=ts, end=ts, attrs=dict(attrs),
                    instant=True)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        return span

    # -- cross-process aggregation ----------------------------------------

    def adopt(self, spans: List[Span], track: int = 0) -> None:
        """Graft finished spans (from a forked worker) at the current
        nesting level, relabelling their display track."""
        for span in spans:
            for node in span.walk():
                node.track = track
        target = self._stack[-1].children if self._stack else self.roots
        target.extend(spans)

    # -- views -------------------------------------------------------------

    def all_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def structure(self) -> Tuple:
        """Timestamp-free shape of the whole trace."""
        return tuple(root.structure() for root in self.roots)


class NullTracer:
    """The default tracer: every operation is a no-op."""

    enabled = False
    roots: List[Span] = []
    metrics = NULL_METRICS

    def start_span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, spans, track: int = 0) -> None:
        pass

    def all_spans(self):
        return iter(())

    def structure(self) -> Tuple:
        return ()


NULL_TRACER = NullTracer()

_CURRENT: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (a shared no-op unless a build activated one)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[
        Union[Tracer, NullTracer]]:
    """Make ``tracer`` ambient for the dynamic extent of the block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


def span(name: str, **attrs: AttrValue):
    """Open a span on the ambient tracer (no-op context manager when off)."""
    return current_tracer().span(name, **attrs)


def event(name: str, **attrs: AttrValue):
    """Record an instant marker on the ambient tracer."""
    return current_tracer().event(name, **attrs)


def metrics() -> MetricsRegistry:
    """The ambient metrics registry (a write-discarding one when off)."""
    return current_tracer().metrics
