"""Figure 12: binary and code size vs rounds of outlining, per-module vs
whole-program.

The three claims under reproduction:

1. whole-program repeated outlining significantly beats intra-module;
2. gains diminish with rounds and plateau (paper: most by round 3, flat
   after 5);
3. binary size tracks code size (minus fixed data/metadata).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import app_spec, build_app, format_table, pct_saving
from repro.pipeline import BuildConfig


@dataclass
class RoundsPoint:
    pipeline: str
    rounds: int
    text_bytes: int
    binary_bytes: int


@dataclass
class RoundsResult:
    points: List[RoundsPoint]

    def series(self, pipeline: str) -> List[RoundsPoint]:
        return [p for p in self.points if p.pipeline == pipeline]

    def saving(self, pipeline: str, rounds: int) -> float:
        base = self.series(pipeline)[0]
        for p in self.series(pipeline):
            if p.rounds == rounds:
                return pct_saving(base.text_bytes, p.text_bytes)
        raise KeyError(rounds)

    @property
    def wholeprogram_beats_intra(self) -> bool:
        wp = min(p.text_bytes for p in self.series("wholeprogram"))
        intra = min(p.text_bytes for p in self.series("default"))
        return wp < intra

    @property
    def plateaus(self) -> bool:
        wp = self.series("wholeprogram")
        if len(wp) < 3:
            return True
        return wp[-1].text_bytes == wp[-2].text_bytes


def run(scale: str = "small", week: int = 0,
        rounds_grid: Sequence[int] = (0, 1, 2, 3, 4, 5, 6)) -> RoundsResult:
    spec = app_spec(scale, week=week)
    points: List[RoundsPoint] = []
    for pipeline in ("default", "wholeprogram"):
        for rounds in rounds_grid:
            build = build_app(spec, BuildConfig(pipeline=pipeline,
                                                outline_rounds=rounds))
            points.append(RoundsPoint(
                pipeline=pipeline, rounds=rounds,
                text_bytes=build.sizes.text_bytes,
                binary_bytes=build.sizes.binary_bytes))
    return RoundsResult(points=points)


def format_report(result: RoundsResult) -> str:
    rows = []
    for p in result.points:
        base = result.series(p.pipeline)[0]
        rows.append((p.pipeline, p.rounds, p.text_bytes, p.binary_bytes,
                     f"{pct_saving(base.text_bytes, p.text_bytes):.1f}%"))
    table = format_table(
        ["pipeline", "rounds", "code B", "binary B", "code saving"], rows)
    wp_final = result.saving("wholeprogram", max(
        p.rounds for p in result.series("wholeprogram")))
    return (
        "Figure 12: size vs rounds of machine outlining\n"
        f"{table}\n"
        f"whole-program beats intra-module: "
        f"{result.wholeprogram_beats_intra}   [paper: yes, by 13.7%]\n"
        f"gains plateau at high rounds: {result.plateaus}   "
        "[paper: no benefit beyond five rounds]\n"
        f"final whole-program code saving: {wp_final:.1f}%   [paper: 22.8%]"
    )
