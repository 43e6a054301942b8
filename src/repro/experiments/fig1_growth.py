"""Figure 1 + §VII-D: lifelong code-size growth, baseline vs optimized.

Builds the synthetic app at a series of weekly snapshots under (a) the
default iOS pipeline (per-module, one outlining round) and (b) the
whole-program pipeline with repeated outlining, fits linear trend lines to
both series, and reports the slope ratio — the paper's "~2x reduction in
code-size growth rate" headline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.regression import LinearFit, linear_fit
from repro.experiments.common import (
    app_spec,
    baseline_config,
    build_app,
    format_table,
    optimized_config,
    pct_saving,
)


@dataclass
class GrowthPoint:
    week: int
    baseline_text: int
    optimized_text: int


@dataclass
class GrowthResult:
    points: List[GrowthPoint]
    baseline_fit: LinearFit
    optimized_fit: LinearFit

    @property
    def slope_ratio(self) -> float:
        if self.optimized_fit.slope == 0:
            return float("inf")
        return self.baseline_fit.slope / self.optimized_fit.slope

    @property
    def final_saving_pct(self) -> float:
        last = self.points[-1]
        return pct_saving(last.baseline_text, last.optimized_text)


def run(scale: str = "small", weeks: Sequence[int] = (0, 8, 16, 24, 32, 40),
        rounds: int = 5) -> GrowthResult:
    points: List[GrowthPoint] = []
    for week in weeks:
        spec = app_spec(scale, week=week)
        base = build_app(spec, baseline_config())
        opt = build_app(spec, optimized_config(rounds))
        points.append(GrowthPoint(week=week,
                                  baseline_text=base.sizes.text_bytes,
                                  optimized_text=opt.sizes.text_bytes))
    xs = [p.week for p in points]
    return GrowthResult(
        points=points,
        baseline_fit=linear_fit(xs, [p.baseline_text for p in points]),
        optimized_fit=linear_fit(xs, [p.optimized_text for p in points]),
    )


def format_report(result: GrowthResult) -> str:
    rows = [
        (p.week, p.baseline_text, p.optimized_text,
         f"{pct_saving(p.baseline_text, p.optimized_text):.1f}%")
        for p in result.points
    ]
    table = format_table(
        ["week", "baseline code B", "optimized code B", "saving"], rows)
    return (
        "Figure 1: code size growth over time\n"
        f"{table}\n"
        f"baseline  trend: {result.baseline_fit.equation('week')}\n"
        f"optimized trend: {result.optimized_fit.equation('week')}\n"
        f"slope ratio (growth-rate reduction): "
        f"{result.slope_ratio:.2f}x   [paper: ~2x]\n"
        f"final-week saving: {result.final_saving_pct:.1f}%   [paper: 23%]"
    )
