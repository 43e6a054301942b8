"""Machine-IR liveness analysis.

Computes per-block live-in/live-out sets over virtual (and physical)
registers, plus linearised live intervals for the linear-scan allocator and
the outliner's legality checks.  Positions are instruction indices in block
layout order, two slots per instruction (use at 2i, def at 2i+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import MachineFunction
from repro.isa.registers import is_virtual


@dataclass
class BlockLiveness:
    live_in: Set[str] = field(default_factory=set)
    live_out: Set[str] = field(default_factory=set)


def block_liveness(mf: MachineFunction,
                   track_physical: bool = False) -> Dict[str, BlockLiveness]:
    """Iterative backwards dataflow over register names."""
    info = {blk.label: BlockLiveness() for blk in mf.blocks}
    succs: Dict[str, List[str]] = {}
    for i, blk in enumerate(mf.blocks):
        out = list(blk.successors())
        if blk.falls_through() and i + 1 < len(mf.blocks):
            out.append(mf.blocks[i + 1].label)
        succs[blk.label] = out

    gen: Dict[str, Set[str]] = {}
    kill: Dict[str, Set[str]] = {}
    for blk in mf.blocks:
        g: Set[str] = set()
        k: Set[str] = set()
        for instr in blk.instrs:
            for reg in instr.uses():
                if _tracked(reg, track_physical) and reg not in k:
                    g.add(reg)
            for reg in instr.defs():
                if _tracked(reg, track_physical):
                    k.add(reg)
        gen[blk.label] = g
        kill[blk.label] = k

    changed = True
    while changed:
        changed = False
        for blk in reversed(mf.blocks):
            label = blk.label
            out: Set[str] = set()
            for succ in succs[label]:
                out |= info[succ].live_in
            new_in = gen[label] | (out - kill[label])
            if out != info[label].live_out or new_in != info[label].live_in:
                info[label].live_out = out
                info[label].live_in = new_in
                changed = True
    return info


def _tracked(reg: str, track_physical: bool) -> bool:
    if is_virtual(reg):
        return True
    return track_physical


@dataclass
class Interval:
    """Conservative single-segment live interval for one virtual register."""

    reg: str
    start: int
    end: int
    is_float: bool
    crosses_call: bool = False
    spill_slot: Optional[int] = None
    assigned: Optional[str] = None


@dataclass
class LivenessResult:
    intervals: List[Interval]
    #: positions of call instructions (BL/BLR) in linearised order.
    call_positions: List[int]
    #: physical register -> positions where it is explicitly used/defined.
    phys_positions: Dict[str, List[int]]
    #: linear position of each (block index, instr index).
    position_of: Dict[Tuple[int, int], int]
    num_positions: int


def compute_intervals(mf: MachineFunction) -> LivenessResult:
    block_info = block_liveness(mf)
    position_of: Dict[Tuple[int, int], int] = {}
    pos = 0
    block_bounds: Dict[str, Tuple[int, int]] = {}
    for bi, blk in enumerate(mf.blocks):
        start = pos
        for ii, _ in enumerate(blk.instrs):
            position_of[(bi, ii)] = pos
            pos += 2
        block_bounds[blk.label] = (start, max(start, pos - 1))

    starts: Dict[str, int] = {}
    ends: Dict[str, int] = {}
    floats: Dict[str, bool] = {}
    call_positions: List[int] = []
    phys_positions: Dict[str, List[int]] = {}

    def note(reg: str, p: int) -> None:
        if is_virtual(reg):
            if reg not in starts or p < starts[reg]:
                starts[reg] = p
            if reg not in ends or p > ends[reg]:
                ends[reg] = p
            floats[reg] = reg.startswith("fv")
        elif reg not in ("sp", "xzr", "nzcv"):
            phys_positions.setdefault(reg, []).append(p)

    for bi, blk in enumerate(mf.blocks):
        for ii, instr in enumerate(blk.instrs):
            p = position_of[(bi, ii)]
            if instr.is_call:
                call_positions.append(p)
            for reg in instr.uses():
                note(reg, p)
            for reg in instr.defs():
                note(reg, p + 1)

    # Extend intervals across blocks where the vreg is live-in/out.
    for blk in mf.blocks:
        lo, hi = block_bounds[blk.label]
        for reg in block_info[blk.label].live_in:
            if is_virtual(reg):
                note(reg, lo)
        for reg in block_info[blk.label].live_out:
            if is_virtual(reg):
                note(reg, hi)

    intervals: List[Interval] = []
    call_set = sorted(call_positions)
    for reg, start in starts.items():
        end = ends[reg]
        crosses = any(start < cp < end for cp in call_set)
        intervals.append(Interval(reg=reg, start=start, end=end,
                                  is_float=floats[reg], crosses_call=crosses))
    intervals.sort(key=lambda iv: (iv.start, iv.end))
    return LivenessResult(intervals=intervals, call_positions=call_set,
                          phys_positions=phys_positions,
                          position_of=position_of, num_positions=pos)
