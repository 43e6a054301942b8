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

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    MachineBlock,
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
)
from repro.outliner.candidates import (
    InstructionMapper,
    MappedLocation,
    MappedProgram,
    function_saves_lr,
    is_legal_to_outline,
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


@dataclass
class _Segment:
    """One block's (latest) appearance in the index's history text."""

    fn: MachineFunction
    block: MachineBlock
    start: int  # history offset of the block's first instruction id
    length: int  # instruction count (the segment sentinel sits at the end)


class OutlineIndex:
    """Persistent outlining state reused across rounds.

    Rebuilding the instruction mapper and suffix tree from scratch every
    round is the dominant cost of repeated outlining.  Ukkonen's algorithm
    is *online*, so the tree can instead absorb only what changed: the
    index keeps one append-only history text for the whole program, in
    which every basic block appears as a segment (its instruction ids plus
    a unique sentinel, so no match crosses a block), and a block rewritten
    by an outlining round is simply appended *again* — the superseded
    segment's positions are marked dead in a ``live`` bitmap rather than
    removed from the tree.  Queries then ask the history tree for repeated
    substrings that still have >= 2 live, right-branching occurrences,
    which is exactly the internal-node set of a fresh tree over the
    current program.

    Candidate *positions* are translated into the virtual coordinates of
    that fresh text (blocks in program order, one sentinel after each), so
    benefits, overlap pruning, and greedy tie-breaks are bit-identical to
    the from-scratch path; a differential test and the determinism harness
    hold the two paths to the same output.
    """

    #: Compact (rebuild from live blocks only) when the live text falls
    #: below this fraction of the history: queries walk the whole history
    #: tree, so a mostly-dead one costs more than a from-scratch build.
    #: Heavy rounds (the first few, which rewrite most blocks) therefore
    #: compact — costing what a fresh rebuild costs — while sparse rounds
    #: (the tail, and warm rebuilds) reuse the tree and skip re-mapping
    #: and re-indexing the untouched bulk of the program.
    COMPACT_THRESHOLD = 0.5

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.mapper = InstructionMapper()
        self.tree = SuffixTree()
        self.live = bytearray()
        self.segments: List[_Segment] = []
        self._seg_starts: List[int] = []  # segments[i].start, ascending
        self._seg_of_block: Dict[int, int] = {}  # id(block) -> segment index
        self._known_functions = 0
        self._live_count = 0
        self._dirty: List[Tuple[MachineFunction, MachineBlock]] = []
        self._dirty_seen: set = set()

    def _kill_segment(self, seg_index: int) -> None:
        seg = self.segments[seg_index]
        live = self.live
        for pos in range(seg.start, seg.start + seg.length + 1):
            if live[pos]:
                live[pos] = 0
                self._live_count -= 1

    def note_rewritten(self, fn: MachineFunction, block: MachineBlock) -> None:
        """Mark a block whose instructions changed since the last round."""
        if id(block) in self._dirty_seen:
            return
        self._dirty_seen.add(id(block))
        self._dirty.append((fn, block))
        old = self._seg_of_block.get(id(block))
        if old is not None:
            self._kill_segment(old)

    def _append_segment(self, fn: MachineFunction,
                        block: MachineBlock) -> None:
        old = self._seg_of_block.get(id(block))
        if old is not None:
            self._kill_segment(old)
        mapper = self.mapper
        ids = [mapper._legal_id(i) if is_legal_to_outline(i)
               else mapper._unique_id() for i in block.instrs]
        ids.append(mapper._unique_id())
        start = len(self.tree.seq)
        self.tree.extend(ids)
        self.live.extend(b"\x01" * len(ids))
        self._live_count += len(ids)
        self._seg_of_block[id(block)] = len(self.segments)
        self.segments.append(_Segment(fn, block, start, len(ids) - 1))
        self._seg_starts.append(start)

    def refresh(self, functions: Sequence[MachineFunction]) -> None:
        """Absorb rewritten blocks and newly appended functions."""
        history = len(self.tree.seq)
        if history and self._live_count < history * self.COMPACT_THRESHOLD:
            self._reset()
        for fn, block in self._dirty:
            self._append_segment(fn, block)
        self._dirty.clear()
        self._dirty_seen.clear()
        for fn in functions[self._known_functions:]:
            for block in fn.blocks:
                self._append_segment(fn, block)
        self._known_functions = len(functions)


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
            starts = [
                s for s in starts
                if program.locations[s].fn.name not in lr_live
            ]
        starts = prune_overlaps(starts, rs.length)
        if len(starts) < 2:
            continue
        benefit = cost.benefit(len(starts))
        if benefit < min_benefit:
            continue
        candidates.append((benefit, rs.length, s0, starts, seq, cost))
    return candidates


def _indexed_candidates(
        index: OutlineIndex, functions: Sequence[MachineFunction],
        spec: TargetSpec, min_benefit: int,
) -> Tuple[List[_Candidate], Optional[Callable[[int], MappedLocation]], int]:
    """Candidates from the persistent index, in fresh-text coordinates.

    Returns ``(candidates, locate, total_positions)`` where *locate* maps
    a virtual position back to its (function, block, index) and
    *total_positions* is the length of the virtual fresh text.
    """
    segments = index.segments
    history = len(index.tree.seq)
    # History position -> virtual fresh-text position / owning segment,
    # filled only for positions of currently-live segments.
    vpos: List[int] = [-1] * history
    vseg: List[int] = [-1] * history
    vstarts: List[int] = []
    vsegs: List[int] = []
    total = 0
    for fn in functions:
        for block in fn.blocks:
            si = index._seg_of_block[id(block)]
            seg = segments[si]
            vstarts.append(total)
            vsegs.append(si)
            for k in range(seg.length + 1):
                vpos[seg.start + k] = total + k
                vseg[seg.start + k] = si
            total += seg.length + 1
    if total == 0:
        return [], None, 0

    def locate(v: int) -> MappedLocation:
        k = bisect.bisect_right(vstarts, v) - 1
        seg = segments[vsegs[k]]
        return MappedLocation(seg.fn, seg.block, v - vstarts[k])

    lr_live = frozenset(fn.name for fn in functions
                        if fn.is_outlined or not function_saves_lr(fn))
    seq = index.tree.seq
    candidates = []
    for rs in index.tree.live_repeated_substrings(index.live, min_len=2):
        length = rs.length
        occs = []
        for s in rs.starts:
            v = vpos[s]
            if v < 0:
                continue  # block not reachable from *functions*
            occs.append((v, vseg[s], s))
        if len(occs) < 2:
            continue
        occs.sort()
        v0, si0, s0 = occs[0]
        if any(seq[s0 + i] < 0 for i in range(length)):
            continue  # contains an illegal instruction or a sentinel
        seg0 = segments[si0]
        off0 = s0 - seg0.start
        instr_seq = seg0.block.instrs[off0:off0 + length]
        cost = cost_of(instr_seq, spec)
        if (cost.outline_class is OutlineClass.DEFAULT
                and sequence_uses_sp(instr_seq)):
            continue
        if cost.outline_class is not OutlineClass.TAIL_CALL:
            starts = [v for v, si, _s in occs
                      if segments[si].fn.name not in lr_live]
        else:
            starts = [v for v, _si, _s in occs]
        starts = prune_overlaps(starts, length)
        if len(starts) < 2:
            continue
        benefit = cost.benefit(len(starts))
        if benefit < min_benefit:
            continue
        candidates.append((benefit, length, v0, starts, instr_seq, cost))
    return candidates, locate, total


def run_one_round(functions: List[MachineFunction], name_counter: Iterator[int],
                  round_no: int = 1, min_benefit: int = 1,
                  name_prefix: str = "",
                  target: Optional[TargetSpec] = None,
                  index: Optional[OutlineIndex] = None) -> RoundStats:
    """Run one outlining round over *functions* (mutated in place).

    New outlined functions are appended to *functions*.  ``name_prefix``
    namespaces outlined symbols (per-module builds would otherwise emit
    clashing OUTLINED_FUNCTION_N clones in every object file — the very
    duplication the paper's whole-program pipeline eliminates).

    With *index* (an :class:`OutlineIndex` owned by the caller across
    rounds) the round reuses the persistent mapper and suffix tree instead
    of rebuilding them, producing bit-identical results.
    """
    spec = get_target(target)
    stats = RoundStats(round_no=round_no)
    if index is None:
        mapper = InstructionMapper()
        program = mapper.map_functions(functions)
        if not program.ids:
            return stats
        tree = SuffixTree(program.ids)
        candidates = _fresh_candidates(tree, program, spec, min_benefit)
        locate = program.locations.__getitem__
        total_positions = len(program.ids)
    else:
        index.refresh(functions)
        candidates, locate, total_positions = _indexed_candidates(
            index, functions, spec, min_benefit)
        if total_positions == 0:
            return stats

    # Greedy: maximum immediate benefit first; deterministic tie-breaks.
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))
    stats.candidates_considered = len(candidates)

    taken = bytearray(total_positions)
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
            loc = locate(s)
            actions.append(_Action(
                block=loc.block, start=loc.index, length=length,
                replacement=replacement_template))
            if index is not None:
                index.note_rewritten(loc.fn, loc.block)
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
