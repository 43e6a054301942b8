"""Statistics-collection pass (Section IV).

The paper inserts a pass after machine-code generation that "logs the
patterns of machine instructions ... with their frequency of repetitions
(high-to-low) including the corresponding function names".  This module is
that pass: it mines every profitable repeated pattern without mutating the
program, producing the raw data behind Figures 5-8 and Listings 1-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import MachineFunction
from repro.outliner.candidates import (
    InstructionMapper,
    prune_overlaps,
)
from repro.outliner.cost_model import OutlineClass, cost_of
from repro.outliner.suffix_tree import SuffixTree
from repro.target import get_target
from repro.target.spec import TargetSpec


@dataclass
class PatternStat:
    """One unique repeated pattern with its occurrence census."""

    #: Rank (1 = most frequent); assigned by collect_patterns.
    pattern_id: int
    length: int
    num_candidates: int
    outline_class: OutlineClass
    benefit_bytes: int
    rendered: Tuple[str, ...]
    #: Names of functions containing occurrences (first few).
    functions: Tuple[str, ...] = ()
    #: Encoded size of one occurrence under the mining target's widths.
    seq_bytes: int = 0


def collect_patterns(functions: Sequence[MachineFunction],
                     min_len: int = 2,
                     require_profitable: bool = True,
                     max_function_names: int = 4,
                     target: Optional[TargetSpec] = None) -> List[PatternStat]:
    """Mine repeated patterns across *functions* (read-only).

    Patterns are returned sorted by occurrence count (descending), then by
    length (descending) — the rank order of Figure 5's x-axis.
    """
    spec = get_target(target)
    mapper = InstructionMapper()
    program = mapper.map_functions(list(functions))
    if not program.ids:
        return []
    tree = SuffixTree(program.ids)
    raw: List[Tuple[int, int, List[int]]] = []
    for rs in tree.repeated_substrings(min_len=min_len):
        s0 = rs.starts[0]
        if any(program.ids[s0 + i] < 0 for i in range(rs.length)):
            continue
        starts = prune_overlaps(rs.starts, rs.length)
        if len(starts) < 2:
            continue
        raw.append((rs.length, s0, starts))

    stats: List[PatternStat] = []
    for length, s0, starts in raw:
        seq = program.instr_seq(s0, length)
        cost = cost_of(seq, spec)
        benefit = cost.benefit(len(starts))
        if require_profitable and benefit < 1:
            continue
        names = [program.blocks[program.block_of[s]][0].name
                 for s in starts[:max_function_names]]
        stats.append(PatternStat(
            pattern_id=0, length=length, num_candidates=len(starts),
            outline_class=cost.outline_class, benefit_bytes=benefit,
            rendered=tuple(i.render() for i in seq),
            functions=tuple(names), seq_bytes=cost.seq_bytes))
    stats.sort(key=lambda p: (-p.num_candidates, -p.length, p.rendered))
    for i, stat in enumerate(stats):
        stat.pattern_id = i + 1
    return stats


def pattern_census(stats: Sequence[PatternStat]) -> Dict[str, float]:
    """Aggregate numbers quoted in Section IV."""
    if not stats:
        return {"num_patterns": 0, "num_candidates": 0,
                "pct_call_or_ret_candidates": 0.0, "max_length": 0}
    total_candidates = sum(s.num_candidates for s in stats)
    call_ret = sum(
        s.num_candidates for s in stats
        if s.outline_class in (OutlineClass.THUNK, OutlineClass.TAIL_CALL))
    return {
        "num_patterns": len(stats),
        "num_candidates": total_candidates,
        "pct_call_or_ret_candidates": 100.0 * call_ret / total_candidates,
        "max_length": max(s.length for s in stats),
    }
