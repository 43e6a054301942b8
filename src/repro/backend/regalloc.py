"""Linear-scan register allocation.

Standard Poletto/Sarkar linear scan over the conservative intervals from
:mod:`repro.backend.liveness`, with:

* fixed-position blocking for physical registers named by the instruction
  stream (argument moves, return moves, error-register traffic);
* call-crossing intervals restricted to callee-saved registers — which is
  exactly what makes frame lowering emit the STP/LDP pair sequences of the
  paper's Listings 7-8;
* spilling to numbered slots, rewritten through the reserved scratch
  registers (x15/x16/x17, d16/d17).

The allocator's register *assignment choices* are one of the paper's named
sources of repeated-but-slightly-different machine sequences (Listings 1-2
differ only in source register), so determinism matters: pools are iterated
in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import RegAllocError
from repro.backend.liveness import Interval, compute_intervals
from repro.isa.instructions import MachineFunction, MachineInstr, Opcode
from repro.isa.registers import is_virtual
from repro.target import get_target
from repro.target.spec import CallingConvention, TargetSpec


def _pools(cc: CallingConvention) -> Tuple[Tuple[str, ...], ...]:
    """(gpr, fpr, gpr_callee_saved, fpr_callee_saved) allocation pools.

    Pool orderings: caller-saved first for cheap short intervals, then
    callee-saved.  Call-crossing intervals use the callee-saved-only pool.
    """
    cs_gprs = set(cc.callee_saved_gprs)
    cs_fprs = set(cc.callee_saved_fprs)
    gpr = tuple(r for r in cc.allocatable_gprs if r not in cs_gprs) \
        + tuple(r for r in cc.allocatable_gprs if r in cs_gprs)
    fpr = tuple(r for r in cc.allocatable_fprs if r not in cs_fprs) \
        + tuple(r for r in cc.allocatable_fprs if r in cs_fprs)
    gpr_cs = tuple(r for r in cc.allocatable_gprs if r in cs_gprs)
    fpr_cs = tuple(r for r in cc.allocatable_fprs if r in cs_fprs)
    return gpr, fpr, gpr_cs, fpr_cs


@dataclass
class AllocationResult:
    assignment: Dict[str, str]
    spill_slots: Dict[str, int]
    num_spill_slots: int
    used_callee_saved: List[str]


def allocate_function(mf: MachineFunction,
                      spec: Optional[TargetSpec] = None) -> AllocationResult:
    """Allocate registers in *mf*, rewriting it in place."""
    spec = get_target(spec)
    cc = spec.cc
    gpr_pool, fpr_pool, gpr_cs_pool, fpr_cs_pool = _pools(cc)
    liveness = compute_intervals(mf)
    intervals = liveness.intervals
    phys_positions = {
        reg: sorted(set(positions))
        for reg, positions in liveness.phys_positions.items()
    }

    assignment: Dict[str, str] = {}
    spill_slots: Dict[str, int] = {}
    active: List[Interval] = []
    next_slot = 0

    def phys_blocked(reg: str, interval: Interval) -> bool:
        for pos in phys_positions.get(reg, ()):
            # A def position p+1 belonging to the interval's own first
            # instruction is fine; conservative containment check instead.
            if interval.start < pos < interval.end:
                return True
        return False

    for interval in intervals:
        # Expire finished intervals.
        active = [iv for iv in active if iv.end >= interval.start]
        in_use = {iv.assigned for iv in active if iv.assigned}
        if interval.crosses_call:
            pool = fpr_cs_pool if interval.is_float else gpr_cs_pool
        else:
            pool = fpr_pool if interval.is_float else gpr_pool
        chosen: Optional[str] = None
        for reg in pool:
            if reg in in_use:
                continue
            if phys_blocked(reg, interval):
                continue
            chosen = reg
            break
        if chosen is None:
            interval.spill_slot = next_slot
            spill_slots[interval.reg] = next_slot
            next_slot += 1
            continue
        interval.assigned = chosen
        assignment[interval.reg] = chosen
        active.append(interval)

    _rewrite(mf, assignment, spill_slots, cc)
    used_cs = sorted(
        {reg for reg in assignment.values() if cc.is_callee_saved(reg)},
        key=_reg_sort_key,
    )
    mf.num_spill_slots = next_slot
    return AllocationResult(assignment=assignment, spill_slots=spill_slots,
                            num_spill_slots=next_slot,
                            used_callee_saved=used_cs)


def _reg_sort_key(reg: str) -> Tuple[int, int]:
    return (0 if reg.startswith("x") else 1, int(reg[1:]))


def _rewrite(mf: MachineFunction, assignment: Dict[str, str],
             spill_slots: Dict[str, int], cc: CallingConvention) -> None:
    """Substitute assignments and expand spill loads/stores via scratch."""
    for blk in mf.blocks:
        new_instrs: List[MachineInstr] = []
        for instr in blk.instrs:
            uses = [r for r in instr.uses() if is_virtual(r)]
            defs = [r for r in instr.defs() if is_virtual(r)]
            spilled_uses = [r for r in dict.fromkeys(uses)
                            if r in spill_slots]
            spilled_defs = [r for r in dict.fromkeys(defs)
                            if r in spill_slots]
            mapping: Dict[str, str] = {}
            for reg in dict.fromkeys(uses + defs):
                if reg in assignment:
                    mapping[reg] = assignment[reg]
            # Assign scratch registers to spilled vregs.
            gpr_scratch = iter(cc.scratch_gprs)
            fpr_scratch = iter(cc.scratch_fprs)
            for reg in spilled_uses + [r for r in spilled_defs
                                       if r not in spilled_uses]:
                try:
                    scratch = (next(fpr_scratch) if reg.startswith("fv")
                               else next(gpr_scratch))
                except StopIteration:
                    raise RegAllocError(
                        f"{mf.name}: out of scratch registers for "
                        f"{instr.render()}") from None
                mapping[reg] = scratch
            # Reloads before the instruction.
            for reg in spilled_uses:
                slot = spill_slots[reg]
                opc = Opcode.LDRDui if reg.startswith("fv") else Opcode.LDRXui
                new_instrs.append(
                    MachineInstr(opc, (mapping[reg], "sp", slot * 8)))
            new_instrs.append(_substitute(instr, mapping))
            # Spills after the instruction.
            for reg in spilled_defs:
                slot = spill_slots[reg]
                opc = Opcode.STRDui if reg.startswith("fv") else Opcode.STRXui
                new_instrs.append(
                    MachineInstr(opc, (mapping[reg], "sp", slot * 8)))
        blk.instrs = new_instrs
    _drop_identity_moves(mf)


def _substitute(instr: MachineInstr, mapping: Dict[str, str]) -> MachineInstr:
    if not mapping:
        return instr
    operands = tuple(
        mapping.get(op, op) if isinstance(op, str) else op
        for op in instr.operands
    )
    return MachineInstr(instr.opcode, operands, instr.implicit_uses,
                        instr.implicit_defs)


def _drop_identity_moves(mf: MachineFunction) -> None:
    for blk in mf.blocks:
        blk.instrs = [
            mi for mi in blk.instrs
            if not (
                mi.opcode is Opcode.ORRXrs
                and mi.operands[1] == "xzr"
                and mi.operands[0] == mi.operands[2]
            ) and not (
                mi.opcode is Opcode.FMOVDr
                and mi.operands[0] == mi.operands[1]
            )
        ]
