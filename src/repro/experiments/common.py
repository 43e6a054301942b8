"""Shared experiment infrastructure: app presets and build helpers.

Experiments default to the ``small`` scale so the whole harness runs on a
laptop in minutes; ``medium`` exercises app-scale behaviour more faithfully
(more modules, longer mining).  The paper's absolute sizes (a 100+ MB
binary) are out of reach of a Python-interpreted toolchain; every
experiment reports *relative* quantities, which is where the paper's claims
live.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import api
from repro.obs import Tracer
from repro.pipeline import BuildConfig, BuildResult
from repro.workloads.appgen import AppSpec, generate_app

#: Scale presets for the synthetic app.
SCALES: Dict[str, AppSpec] = {
    "tiny": AppSpec(base_features=4, num_vendors=2, base_handlers=3),
    "small": AppSpec(base_features=8, num_vendors=3, base_handlers=4),
    "medium": AppSpec(base_features=16, num_vendors=4, base_handlers=5),
    "large": AppSpec(base_features=28, num_vendors=5, base_handlers=6),
}

#: The paper's shipping configuration.
PAPER_ROUNDS = 5


def app_spec(scale: str = "small", week: int = 0) -> AppSpec:
    return SCALES[scale].at_week(week)


def build_app(spec: AppSpec, config: Optional[BuildConfig] = None) -> BuildResult:
    """Generate + build the synthetic app under one configuration."""
    sources = generate_app(spec)
    return api.build(sources, config or BuildConfig())


def traced_build(spec: AppSpec,
                 config: Optional[BuildConfig] = None) -> Tuple[BuildResult,
                                                                Tracer]:
    """Build under a fresh :class:`~repro.obs.Tracer` via the facade.

    This is the experiments' *only* timing source: with a tracer active,
    ``BuildResult.report.phase_wall`` is copied verbatim from the span
    durations (one shared monotonic clock), so a figure script reports
    exactly the numbers the pipeline recorded — no ad-hoc stopwatches.
    """
    tracer = Tracer()
    result = api.build(generate_app(spec), config or BuildConfig(),
                       tracer=tracer)
    return result, tracer


def phase_seconds(result: BuildResult) -> Dict[str, float]:
    """Measured wall seconds per phase, as the pipeline recorded them."""
    return dict(result.report.phase_wall)


def baseline_config() -> BuildConfig:
    """The default iOS pipeline: per-module -Osize with one outlining round
    (Swift 5.2 enables the MachineOutliner per module at -Osize)."""
    return BuildConfig(pipeline="default", outline_rounds=1)


def optimized_config(rounds: int = PAPER_ROUNDS,
                     data_layout: str = "module-order") -> BuildConfig:
    """The paper's whole-program pipeline with repeated outlining."""
    return BuildConfig(pipeline="wholeprogram", outline_rounds=rounds,
                       data_layout=data_layout)


def pct_saving(before: int, after: int) -> float:
    return 100.0 * (1.0 - after / before) if before else 0.0


def format_table(headers, rows) -> str:
    """Plain-text table for experiment reports."""
    cols = [str(h) for h in headers]
    text_rows = [[str(c) for c in row] for row in rows]
    widths = [len(c) for c in cols]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(cols), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)
