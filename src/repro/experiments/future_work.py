"""§VIII future-work ablations.

The paper closes with three directions; this experiment quantifies each on
the synthetic app:

1. **Semantic equivalence of machine sequences** — headroom of matching up
   to register renaming (optimistic upper bound; see analysis.semantic).
2. **Inlining interaction** — the -Osize trivial inliner duplicates code
   that whole-program outlining then re-deduplicates: sizes for the four
   {inliner} x {outliner} combinations.
3. **Layout of outlined code** — placing each outlined function near its
   dominant caller vs appending them all at the end (span cycle delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.semantic import SemanticHeadroom, measure_headroom
from repro.experiments.common import (
    app_spec,
    build_app,
    format_table,
    optimized_config,
)
from repro.pipeline import BuildConfig
from repro.sim.timing import DEVICE_GRID
from repro.workloads.spans import OS_GRID, measure_span, select_spans


@dataclass
class FutureWorkResult:
    headroom: SemanticHeadroom
    #: (inliner on?, rounds) -> text bytes
    inline_grid: Dict[Tuple[bool, int], int]
    #: span -> (appended cycles, near-callers cycles)
    layout_rows: List[Tuple[str, int, int]]

    @property
    def layout_geomean_ratio(self) -> float:
        ratios = [near / appended for _, appended, near in self.layout_rows
                  if appended]
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    @property
    def inlining_recovered_by_outlining(self) -> bool:
        """Inlining grows unoutlined code; outlining claws most of it back."""
        grow = self.inline_grid[(True, 0)] - self.inline_grid[(False, 0)]
        residual = self.inline_grid[(True, 5)] - self.inline_grid[(False, 5)]
        return residual < grow


def run(scale: str = "small", week: int = 0, rounds: int = 5,
        num_spans: int = 4) -> FutureWorkResult:
    spec = app_spec(scale, week=week)

    # 1. Semantic headroom on the unoutlined whole program.
    base = build_app(spec, BuildConfig(pipeline="wholeprogram",
                                       outline_rounds=0))
    functions = [fn for m in base.machine_modules for fn in m.functions]
    headroom = measure_headroom(functions)

    # 2. Inliner x outliner grid.
    inline_grid: Dict[Tuple[bool, int], int] = {}
    for inline in (False, True):
        for r in (0, rounds):
            build = build_app(spec, BuildConfig(
                pipeline="wholeprogram", outline_rounds=r,
                enable_inliner=inline))
            inline_grid[(inline, r)] = build.sizes.text_bytes

    # 3. Outlined-code layout.
    appended = build_app(spec, optimized_config(rounds))
    near = build_app(spec, BuildConfig(pipeline="wholeprogram",
                                       outline_rounds=rounds,
                                       layout="near-callers"))
    spans = select_spans(spec, count=num_spans)
    device, os_version = DEVICE_GRID[2], OS_GRID[2]
    layout_rows = []
    for span in spans:
        a = measure_span(appended, span, device, os_version)
        b = measure_span(near, span, device, os_version)
        layout_rows.append((span.split("::")[0], a.cycles, b.cycles))

    return FutureWorkResult(headroom=headroom, inline_grid=inline_grid,
                            layout_rows=layout_rows)


def format_report(result: FutureWorkResult) -> str:
    h = result.headroom
    lines = [
        "Section VIII: future-work ablations",
        "",
        "(1) semantic equivalence headroom (register-renaming upper bound):",
        f"    exact-match outlinable benefit:    {h.exact_benefit_bytes} B",
        f"    register-abstracted upper bound:   {h.abstract_benefit_bytes} B",
        f"    headroom: +{h.headroom_pct:.1f}% over syntactic matching",
        "",
        "(2) inlining x outlining interaction (code bytes):",
    ]
    rows = []
    for inline in (False, True):
        row = ["-Osize inliner " + ("on" if inline else "off")]
        for r in sorted({k[1] for k in result.inline_grid}):
            row.append(result.inline_grid[(inline, r)])
        rows.append(tuple(row))
    round_cols = sorted({k[1] for k in result.inline_grid})
    lines.append(format_table(
        ["configuration"] + [f"rounds={r}" for r in round_cols], rows))
    lines.append(f"    outlining re-deduplicates inlined copies: "
                 f"{result.inlining_recovered_by_outlining}")
    lines.append("")
    lines.append("(3) outlined-code layout (span cycles):")
    lines.append(format_table(
        ["span", "appended", "near-callers"], result.layout_rows))
    gm = result.layout_geomean_ratio
    lines.append(f"    near-callers / appended geomean: {gm:.3f} "
                 f"({100 * (1 - gm):+.1f}%)")
    return "\n".join(lines)
