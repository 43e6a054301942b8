"""Semantic-equivalence headroom study (the paper's future work #1).

The shipping outliner matches instruction sequences *syntactically*: two
sequences that differ only in register assignment (the paper's Listings 1
vs 2) never merge.  This module estimates the headroom of a hypothetical
outliner that matches sequences up to register renaming, by re-mining the
binary with *register-abstracted* instruction identities.

The resulting number is an **optimistic upper bound**: it abstracts every
register operand independently (no cross-instruction renaming-consistency
check) and prices the rename fix-ups at zero.  A real semantic outliner
would land between the exact and abstract figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.isa.instructions import MachineFunction, MachineInstr
from repro.isa.registers import reg_class
from repro.outliner.candidates import InstructionMapper, prune_overlaps
from repro.outliner.cost_model import cost_of
from repro.outliner.suffix_tree import SuffixTree
from repro.target.spec import TargetSpec


class _AbstractingMapper(InstructionMapper):
    """Interns instructions with register operands reduced to classes."""

    def _legal_id(self, instr: MachineInstr) -> int:
        key = _abstract_key(instr)
        if key not in self._intern:
            self._intern[key] = self._next_legal
            self._next_legal += 1
        return self._intern[key]


def _abstract_key(instr: MachineInstr) -> Tuple:
    operands = tuple(
        ("reg", reg_class(op).value) if isinstance(op, str) else op
        for op in instr.operands
    )
    return (instr.opcode, operands, len(instr.implicit_uses),
            len(instr.implicit_defs))


@dataclass
class SemanticHeadroom:
    exact_benefit_bytes: int
    abstract_benefit_bytes: int

    @property
    def extra_benefit_bytes(self) -> int:
        return max(0, self.abstract_benefit_bytes
                   - self.exact_benefit_bytes)

    @property
    def headroom_pct(self) -> float:
        if self.exact_benefit_bytes == 0:
            return 0.0
        return 100.0 * self.extra_benefit_bytes / self.exact_benefit_bytes


def _total_benefit(functions: Sequence[MachineFunction],
                   mapper: InstructionMapper,
                   target: Optional[TargetSpec] = None) -> int:
    program = mapper.map_functions(list(functions))
    if not program.ids:
        return 0
    tree = SuffixTree(program.ids)
    total = 0
    for rs in tree.repeated_substrings(min_len=2):
        s0 = rs.starts[0]
        if any(program.ids[s0 + i] < 0 for i in range(rs.length)):
            continue
        starts = prune_overlaps(rs.starts, rs.length)
        if len(starts) < 2:
            continue
        benefit = cost_of(program.instr_seq(s0, rs.length), target).benefit(
            len(starts))
        if benefit >= 1:
            total += benefit
    return total


def measure_headroom(functions: Sequence[MachineFunction],
                     target: Optional[TargetSpec] = None) -> SemanticHeadroom:
    """Compare exact-match mining against register-abstracted mining.

    Benefits are priced under *target* (default: the session target).
    """
    return SemanticHeadroom(
        exact_benefit_bytes=_total_benefit(functions, InstructionMapper(),
                                           target),
        abstract_benefit_bytes=_total_benefit(functions, _AbstractingMapper(),
                                              target),
    )
