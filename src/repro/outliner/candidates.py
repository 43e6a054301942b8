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
from typing import Dict, Iterable, List, Sequence, Tuple

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
class MappedProgram:
    """Flattened program: the integer string and a per-block location table.

    Positions run block by block in program order, with one block-end
    separator after each block.  ``blocks`` holds one ``(function, block,
    first position)`` entry per block and ``block_of`` maps every position
    (separators included) to its block's entry, so the table costs one
    entry per block and one list slot per position, not one object per
    position.  :meth:`locate` and :meth:`instr_seq` read the blocks
    themselves: a round reads its program before it rewrites any block.
    """

    ids: List[int] = field(default_factory=list)
    blocks: List[Tuple[MachineFunction, MachineBlock, int]] = field(
        default_factory=list)
    block_of: List[int] = field(default_factory=list)
    #: functions in which LR is live throughout (no frame, or outlined):
    #: only tail-call-class candidates may be taken from them.
    lr_live_functions: frozenset = frozenset()

    def locate(self, pos: int) -> Tuple[MachineFunction, MachineBlock, int]:
        """``(function, block, index within block.instrs)`` of *pos*."""
        fn, block, first = self.blocks[self.block_of[pos]]
        return fn, block, pos - first

    def instr_seq(self, start: int, length: int) -> List[MachineInstr]:
        """The *length* instructions from *start*, all in one block."""
        _fn, block, first = self.blocks[self.block_of[start]]
        return block.instrs[start - first:start - first + length]


def function_saves_lr(fn: MachineFunction) -> bool:
    """True if the prologue spills x29/x30 (LR dead in the body)."""
    for instr in fn.blocks[0].instrs if fn.blocks else ():
        if instr.opcode is Opcode.STPXpre and LR in instr.operands[:2]:
            return True
    return False


class InstructionMapper:
    """Builds the flat integer string of a program, once per round.

    Each instruction *object* is classified once per mapper: its legality
    and its legal id are facts of one immutable object, so an interned
    module (one object per distinct instruction) pays for them once per
    distinct instruction, not once per index.  One mapper serves every
    round of a repeated-outlining call, so an object is classified once
    per call, not once per round.
    """

    def __init__(self) -> None:
        self._intern: Dict[Tuple, int] = {}
        #: id(instr) -> (instr, legal id or 0).  An entry holds its object,
        #: so no other object can take that id while the mapper lives.
        self._objects: Dict[int, Tuple[MachineInstr, int]] = {}
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

    def map_block(self, instrs: Sequence[MachineInstr]) -> List[int]:
        """One id per instruction: its legal id, or a fresh unique id.

        Illegal instructions draw a unique id per index, in index order,
        whether or not their object was seen before.
        """
        objects = self._objects
        ids = []
        for instr in instrs:
            entry = objects.get(id(instr))
            if entry is None:
                legal = (self._legal_id(instr) if is_legal_to_outline(instr)
                         else 0)
                objects[id(instr)] = (instr, legal)
            else:
                legal = entry[1]
            ids.append(legal or self._unique_id())
        return ids

    def map_functions(self,
                      functions: Sequence[MachineFunction]) -> MappedProgram:
        program = MappedProgram()
        ids, blocks, block_of = program.ids, program.blocks, program.block_of
        lr_live = set()
        for fn in functions:
            if fn.is_outlined or not function_saves_lr(fn):
                lr_live.add(fn.name)
            for block in fn.blocks:
                block_of.extend([len(blocks)] * (len(block.instrs) + 1))
                blocks.append((fn, block, len(ids)))
                ids.extend(self.map_block(block.instrs))
                # Block boundary separator.
                ids.append(self._unique_id())
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
