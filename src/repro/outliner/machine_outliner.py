"""The MachineOutliner: one greedy outlining round.

Faithful to LLVM's pass structure (§II-C):

1. map every instruction to an integer (illegal -> unique ints);
2. build a suffix tree over the whole program's integer string;
3. each internal node = a repeated pattern; prune overlapping occurrences,
   classify (tail-call / thunk / no-LR-save / default) and price it;
4. greedily take patterns in order of immediate byte benefit, skipping
   occurrences that overlap already-outlined regions ("if a lengthier
   sequence beta has substring alpha, the alpha part of beta will be
   outlined, but the rest of beta is discarded from further consideration");
5. materialise an ``OUTLINED_FUNCTION_<N>`` per chosen pattern and replace
   each occurrence with the class's call sequence.

The greedy step-4 myopia is exactly what repeated outlining
(:mod:`repro.outliner.repeated`) recovers (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    MachineBlock,
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
)
from repro.outliner.candidates import (
    InstructionMapper,
    MappedProgram,
    prune_overlaps,
    sequence_uses_sp,
)
from repro.outliner.cost_model import CandidateCost, OutlineClass, cost_of
from repro.outliner.suffix_tree import SuffixTree
from repro.target import get_target
from repro.target.spec import TargetSpec

OUTLINED_PREFIX = "OUTLINED_FUNCTION_"


@dataclass
class OutlinedPattern:
    """Record of one materialised outlined function."""

    name: str
    length: int
    num_occurrences: int
    outline_class: OutlineClass
    benefit_bytes: int
    round_no: int
    rendered: Tuple[str, ...] = ()


@dataclass
class RoundStats:
    round_no: int
    sequences_outlined: int = 0
    functions_created: int = 0
    outlined_fn_bytes: int = 0
    bytes_saved: int = 0
    #: Profitable candidate patterns the greedy step chose among (before
    #: overlap pruning against already-taken regions).
    candidates_considered: int = 0
    patterns: List[OutlinedPattern] = field(default_factory=list)


@dataclass
class _Action:
    block: MachineBlock
    start: int
    length: int
    replacement: List[MachineInstr]


def _make_outlined_function(name: str, seq: Sequence[MachineInstr],
                            cls: OutlineClass, round_no: int,
                            spec: TargetSpec) -> MachineFunction:
    lr, sp = spec.regs.lr, spec.regs.sp
    body = list(seq)  # instructions are immutable, so shared, not copied
    if cls is OutlineClass.THUNK:
        last = body[-1]
        body[-1] = MachineInstr(Opcode.B, last.operands, last.implicit_uses,
                                last.implicit_defs)
    elif cls is OutlineClass.NO_LR_SAVE:
        body.append(MachineInstr(Opcode.RET))
    elif cls is OutlineClass.DEFAULT:
        # The body contains calls that clobber LR: save the return address
        # in the outlined function's own micro-frame.
        body = (
            [MachineInstr(Opcode.STRXpre, (lr, sp, -16))]
            + body
            + [MachineInstr(Opcode.LDRXpost, (lr, sp, 16)),
               MachineInstr(Opcode.RET)]
        )
    fn = MachineFunction(name=name, is_outlined=True, outline_round=round_no,
                         source_module="<outlined>")
    fn.new_block("entry").instrs.extend(body)
    return fn


def _call_site_replacement(name: str, cls: OutlineClass) -> List[MachineInstr]:
    if cls is OutlineClass.TAIL_CALL:
        return [MachineInstr(Opcode.B, (Sym(name),))]
    return [MachineInstr(Opcode.BL, (Sym(name),))]


#: (benefit, length, first-start, pruned starts, instr sequence, cost).
_Candidate = Tuple[int, int, int, List[int], List[MachineInstr], CandidateCost]


def _fresh_candidates(tree: SuffixTree, program: MappedProgram,
                      spec: TargetSpec, min_benefit: int) -> List[_Candidate]:
    candidates = []
    for rs in tree.repeated_substrings(min_len=2):
        s0 = rs.starts[0]
        if any(program.ids[s0 + i] < 0 for i in range(rs.length)):
            continue  # contains an illegal instruction or block boundary
        seq = program.instr_seq(s0, rs.length)
        cost = cost_of(seq, spec)
        if (cost.outline_class is OutlineClass.DEFAULT
                and sequence_uses_sp(seq)):
            continue  # SP shifts by the LR save at default-class call sites
        starts = rs.starts
        if cost.outline_class is not OutlineClass.TAIL_CALL:
            lr_live = program.lr_live_functions
            blocks, block_of = program.blocks, program.block_of
            starts = [s for s in starts
                      if blocks[block_of[s]][0].name not in lr_live]
        starts = prune_overlaps(starts, rs.length)
        if len(starts) < 2:
            continue
        benefit = cost.benefit(len(starts))
        if benefit < min_benefit:
            continue
        candidates.append((benefit, rs.length, s0, starts, seq, cost))
    return candidates


def run_one_round(functions: List[MachineFunction], name_counter: Iterator[int],
                  round_no: int = 1, min_benefit: int = 1,
                  name_prefix: str = "",
                  target: Optional[TargetSpec] = None,
                  mapper: Optional[InstructionMapper] = None) -> RoundStats:
    """Run one outlining round over *functions* (mutated in place).

    New outlined functions are appended to *functions*.  ``name_prefix``
    namespaces outlined symbols (per-module builds would otherwise emit
    clashing OUTLINED_FUNCTION_N clones in every object file — the very
    duplication the paper's whole-program pipeline eliminates).

    Each round maps the program afresh and builds a new suffix tree over
    it.  *mapper* is the caller's :class:`InstructionMapper`, shared by
    every round of one repeated-outlining call so that each instruction
    object is classified once per call (a fresh one when not given); the
    greedy order below is total and independent of how ids are numbered,
    so the outcome is the same either way.
    """
    spec = get_target(target)
    stats = RoundStats(round_no=round_no)
    if mapper is None:
        mapper = InstructionMapper()
    program = mapper.map_functions(functions)
    if not program.ids:
        return stats
    tree = SuffixTree(program.ids)
    candidates = _fresh_candidates(tree, program, spec, min_benefit)

    # Greedy: maximum immediate benefit first; deterministic tie-breaks.
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))
    stats.candidates_considered = len(candidates)

    taken = bytearray(len(program.ids))
    actions: List[_Action] = []
    new_functions: List[MachineFunction] = []
    for _benefit, length, _s0, starts, seq, cost in candidates:
        free = [s for s in starts if not any(taken[s:s + length])]
        if len(free) < 2:
            continue
        benefit = cost.benefit(len(free))
        if benefit < min_benefit:
            continue
        name = f"{name_prefix}{OUTLINED_PREFIX}{next(name_counter)}"
        outlined = _make_outlined_function(name, seq, cost.outline_class,
                                           round_no, spec)
        new_functions.append(outlined)
        replacement_template = _call_site_replacement(name, cost.outline_class)
        for s in free:
            _fn, block, start = program.locate(s)
            actions.append(_Action(
                block=block, start=start, length=length,
                replacement=replacement_template))
            for i in range(s, s + length):
                taken[i] = 1
        stats.functions_created += 1
        stats.sequences_outlined += len(free)
        stats.outlined_fn_bytes += spec.function_body_bytes(outlined)
        stats.bytes_saved += benefit
        stats.patterns.append(OutlinedPattern(
            name=name, length=length, num_occurrences=len(free),
            outline_class=cost.outline_class, benefit_bytes=benefit,
            round_no=round_no,
            rendered=tuple(i.render() for i in seq)))

    # Apply per block, highest start first (indices stay valid).
    by_block = {}
    for action in actions:
        by_block.setdefault(id(action.block), []).append(action)
    for block_actions in by_block.values():
        block_actions.sort(key=lambda a: -a.start)
        for action in block_actions:
            block = action.block
            block.instrs[action.start:action.start + action.length] = (
                action.replacement)

    functions.extend(new_functions)
    return stats
