"""Figure 5 + Listings 1-8: pattern frequency census and power-law fit.

Mines every profitable repeated pattern in the baseline (no-outlining)
whole-program build, ranks patterns by repetition count, and fits
``y = a * x^b`` on the log-log rank/frequency data.  Also surfaces the
most-repeated patterns (the paper's Listings 1-8, dominated by
retain/release and calling-convention sequences) and the %, of candidates
ending in a call or return (paper: 67%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.patterns import mine_build_patterns, top_patterns
from repro.analysis.powerlaw import PowerLawFit, fit_power_law, rank_frequency
from repro.experiments.common import app_spec, build_app, format_table
from repro.outliner.stats import PatternStat, pattern_census
from repro.pipeline import BuildConfig


@dataclass
class PowerLawResult:
    stats: List[PatternStat]
    fit: PowerLawFit
    census: dict
    top: List[PatternStat]


def run(scale: str = "small", week: int = 0) -> PowerLawResult:
    build = build_app(app_spec(scale, week=week),
                      BuildConfig(pipeline="wholeprogram", outline_rounds=0))
    stats = mine_build_patterns(build)
    ranks, freqs = rank_frequency([s.num_candidates for s in stats])
    fit = fit_power_law(ranks, freqs)
    return PowerLawResult(stats=stats, fit=fit, census=pattern_census(stats),
                          top=top_patterns(stats, count=8))


def format_report(result: PowerLawResult) -> str:
    lines = [
        "Figure 5: pattern repetition frequency (rank order)",
        f"patterns: {result.census['num_patterns']}, "
        f"candidates: {result.census['num_candidates']}, "
        f"longest pattern: {result.census['max_length']} instructions",
        f"power-law fit: {result.fit.equation()}   [paper: R^2 = 0.994]",
        f"candidates ending in call/return: "
        f"{result.census['pct_call_or_ret_candidates']:.1f}%   [paper: 67%]",
        "",
        "Most-repeated profitable patterns (cf. Listings 1-8):",
    ]
    rows = []
    for stat in result.top:
        rows.append((stat.pattern_id, stat.num_candidates, stat.length,
                     stat.outline_class.value,
                     " ; ".join(stat.rendered[:3])))
    lines.append(format_table(
        ["rank", "repeats", "len", "class", "instructions"], rows))
    return "\n".join(lines)
