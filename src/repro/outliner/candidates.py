"""Instruction mapping and outlining legality.

Mirrors LLVM's ``InstructionMapper`` + ``getOutliningType``:

* legal instructions intern to small positive integers — identical
  instructions (opcode + all operands, including call-site implicit
  registers) map to the same integer;
* illegal instructions and block boundaries get unique negative integers so
  no repeated substring can cross them;
* ``RET`` is *legal-terminator*: it may appear only as the last element of a
  candidate (enabling the tail-call outlining class).

Illegal: branches and other terminators, anything that explicitly names the
link register (frame save/restore pairs), and anything that writes the
stack pointer.  SP-*reading* instructions (spill reloads) are legal but
restrict the candidate to classes that do not move SP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    MachineBlock,
    MachineFunction,
    MachineInstr,
    Opcode,
)
from repro.isa.registers import LR, SP


def is_legal_to_outline(instr: MachineInstr) -> bool:
    if instr.opcode is Opcode.RET:
        return True
    if instr.is_terminator:
        return False
    if instr.touches_lr():
        return False
    # Any SP access is illegal: outlined bodies may run under a shifted SP
    # (the default class pushes LR), so SP-relative spill slots would read
    # the wrong frame.  LLVM permits some of these with offset fixups; we
    # take the conservative rule.
    if instr.reads_sp() or instr.writes_sp():
        return False
    return True


@dataclass
class MappedLocation:
    """Where one mapped element lives."""

    fn: MachineFunction
    block: MachineBlock
    index: int  # index within block.instrs


@dataclass
class MappedProgram:
    """Flattened program: integer string + location of every element."""

    ids: List[int] = field(default_factory=list)
    locations: List[Optional[MappedLocation]] = field(default_factory=list)
    instrs: List[Optional[MachineInstr]] = field(default_factory=list)
    #: functions in which LR is live throughout (no frame, or outlined):
    #: only tail-call-class candidates may be taken from them.
    lr_live_functions: frozenset = frozenset()

    def instr_seq(self, start: int, length: int) -> List[MachineInstr]:
        return [self.instrs[i] for i in range(start, start + length)]


def function_saves_lr(fn: MachineFunction) -> bool:
    """True if the prologue spills x29/x30 (LR dead in the body)."""
    for instr in fn.blocks[0].instrs if fn.blocks else ():
        if instr.opcode is Opcode.STPXpre and LR in instr.operands[:2]:
            return True
    return False


class InstructionMapper:
    """Builds the flat integer string for one outlining round."""

    def __init__(self) -> None:
        self._intern: Dict[Tuple, int] = {}
        self._next_legal = 1
        self._next_unique = -2  # -1 reserved for the suffix-tree terminator

    def _legal_id(self, instr: MachineInstr) -> int:
        key = instr.key()
        if key not in self._intern:
            self._intern[key] = self._next_legal
            self._next_legal += 1
        return self._intern[key]

    def _unique_id(self) -> int:
        uid = self._next_unique
        self._next_unique -= 1
        return uid

    def map_functions(self,
                      functions: Sequence[MachineFunction]) -> MappedProgram:
        program = MappedProgram()
        lr_live = set()
        for fn in functions:
            if fn.is_outlined or not function_saves_lr(fn):
                lr_live.add(fn.name)
            for block in fn.blocks:
                for index, instr in enumerate(block.instrs):
                    if is_legal_to_outline(instr):
                        program.ids.append(self._legal_id(instr))
                    else:
                        program.ids.append(self._unique_id())
                    program.locations.append(MappedLocation(fn, block, index))
                    program.instrs.append(instr)
                # Block boundary separator.
                program.ids.append(self._unique_id())
                program.locations.append(None)
                program.instrs.append(None)
        program.lr_live_functions = frozenset(lr_live)
        return program


def sequence_uses_sp(instrs: Iterable[MachineInstr]) -> bool:
    return any(SP in i.uses() or SP in i.defs() for i in instrs)


def prune_overlaps(starts: List[int], length: int) -> List[int]:
    """Greedy left-to-right non-overlapping occurrence selection."""
    out: List[int] = []
    last_end = -1
    for start in sorted(starts):
        if start > last_end:
            out.append(start)
            last_end = start + length - 1
    return out
