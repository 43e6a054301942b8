"""Binary-level pattern mining entry points (Section IV study)."""

from __future__ import annotations

from typing import List, Sequence

from repro.isa.instructions import MachineFunction
from repro.outliner.stats import PatternStat, collect_patterns, pattern_census
from repro.pipeline.build import BuildResult

__all__ = ["mine_build_patterns", "top_patterns", "PatternStat",
           "pattern_census"]


def mine_build_patterns(build: BuildResult,
                        min_len: int = 2,
                        require_profitable: bool = True) -> List[PatternStat]:
    """Mine repeated machine patterns across a finished build."""
    functions: List[MachineFunction] = []
    for module in build.machine_modules:
        functions.extend(module.functions)
    return collect_patterns(functions, min_len=min_len,
                            require_profitable=require_profitable)


def top_patterns(stats: Sequence[PatternStat], count: int = 8,
                 runtime_calls_only: bool = False) -> List[PatternStat]:
    """The most frequent patterns (the paper's Listings 1-8 view)."""
    out = []
    for stat in stats:
        if runtime_calls_only and not any(
                "swift_" in line or "objc_" in line for line in stat.rendered):
            continue
        out.append(stat)
        if len(out) >= count:
            break
    return out
