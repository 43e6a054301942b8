"""Figure 13 + Table III: production span performance, optimized/baseline.

Runs every core span cold on a device x OS grid for the baseline (default
pipeline) and optimized (whole-program, repeated outlining, module-order
data layout) builds.  Cell value = optimized cycles / baseline cycles:
> 1.0 is a regression (red in the paper), < 1.0 an improvement (blue).

The paper's claims: cold, footprint-heavy spans mildly improve (geomean
-3.4%), the shortest span may mildly regress, and nothing regresses with
statistical significance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.common import (
    app_spec,
    baseline_config,
    build_app,
    format_table,
    optimized_config,
)
from repro.sim.timing import DEVICE_GRID
from repro.workloads.spans import OS_GRID, select_spans, span_grid


@dataclass
class SpanCell:
    span: str
    device: str
    os_version: str
    ratio: float
    baseline_cycles: int
    optimized_cycles: int


@dataclass
class SpansResult:
    cells: List[SpanCell]
    spans: List[str]
    #: % of dynamic instructions inside outlined functions (paper: ~3%).
    dynamic_outlined_pct: float = 0.0

    @property
    def geomean_ratio(self) -> float:
        logs = [math.log(c.ratio) for c in self.cells if c.ratio > 0]
        return math.exp(sum(logs) / len(logs)) if logs else 1.0

    def span_means(self) -> List[Tuple[str, float, int, int]]:
        """Per-span mean ratio and mean cycles (the Table III view)."""
        out = []
        for span in self.spans:
            cells = [c for c in self.cells if c.span == span]
            mean_ratio = math.exp(
                sum(math.log(c.ratio) for c in cells) / len(cells))
            base = sum(c.baseline_cycles for c in cells) // len(cells)
            opt = sum(c.optimized_cycles for c in cells) // len(cells)
            out.append((span, mean_ratio, base, opt))
        return out

    @property
    def pct_improved_cells(self) -> float:
        improved = sum(1 for c in self.cells if c.ratio < 1.0)
        return 100.0 * improved / len(self.cells) if self.cells else 0.0


def run(scale: str = "small", week: int = 0, rounds: int = 5,
        num_spans: int = 9, devices=DEVICE_GRID,
        os_versions=OS_GRID) -> SpansResult:
    spec = app_spec(scale, week=week)
    base_build = build_app(spec, baseline_config())
    opt_build = build_app(spec, optimized_config(rounds))
    spans = select_spans(spec, count=num_spans)
    base_grid = span_grid(base_build, spans, devices, os_versions)
    opt_grid = span_grid(opt_build, spans, devices, os_versions)
    cells = []
    for key, base_m in base_grid.items():
        opt_m = opt_grid[key]
        cells.append(SpanCell(
            span=key[0], device=key[1], os_version=key[2],
            ratio=opt_m.cycles / base_m.cycles if base_m.cycles else 1.0,
            baseline_cycles=base_m.cycles, optimized_cycles=opt_m.cycles))
    result = SpansResult(cells=cells, spans=spans)
    # "About 3% of dynamic instructions execute outlined instructions":
    # measure the dynamic-outlined fraction on one representative span.
    from repro.sim.cpu import run_binary

    probe = run_binary(opt_build.image, registry=opt_build.registry,
                       entry_symbol=spans[-1], check_leaks=False)
    result.dynamic_outlined_pct = (
        100.0 * probe.outlined_steps / max(1, probe.steps))
    return result


def format_report(result: SpansResult) -> str:
    rows = [
        (span.split("::")[0], f"{ratio:.3f}", base, opt)
        for span, ratio, base, opt in result.span_means()
    ]
    table = format_table(
        ["span", "P50 ratio (opt/base)", "baseline cycles",
         "optimized cycles"], rows)
    gm = result.geomean_ratio
    return (
        "Figure 13 / Table III: core-span performance\n"
        f"{table}\n"
        f"geomean ratio over all cells: {gm:.3f} "
        f"({100 * (1 - gm):+.1f}% change)   [paper: 3.4% gain]\n"
        f"cells improved: {result.pct_improved_cells:.0f}%   "
        "[paper: 'more blue cells']\n"
        f"dynamic instructions in outlined functions: "
        f"{result.dynamic_outlined_pct:.1f}%   [paper: ~3%]"
    )
