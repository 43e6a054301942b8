"""mem2reg: promote Allocas to SSA values with phi nodes.

Every Alloca emitted by IRGen is promotable (its address is only ever used
directly by Load/Store and never escapes), so after this pass no allocas
remain and the function is in SSA form.  Standard algorithm: phi placement
at iterated dominance frontiers, then renaming along the dominator tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lir import ir
from repro.lir.cfg import compute_dominators, dominance_frontiers, reachable_blocks


def promote_allocas(fn: ir.LIRFunction) -> int:
    """Promote all allocas in *fn*; returns the number promoted."""
    _drop_unreachable_blocks(fn)
    allocas = [
        instr for blk in fn.blocks for instr in blk.instrs
        if isinstance(instr, ir.Alloca)
    ]
    if not allocas:
        return 0
    alloca_ids = {a.result for a in allocas}
    float_of = {a.result: a.is_float for a in allocas}

    # Blocks that store to each alloca.
    def_blocks: Dict[int, Set[str]] = {a.result: set() for a in allocas}
    for blk in fn.blocks:
        for instr in blk.instrs:
            if isinstance(instr, ir.Store) and instr.ptr in alloca_ids:
                def_blocks[instr.ptr].add(blk.label)

    frontiers = dominance_frontiers(fn)
    idom = compute_dominators(fn)

    # Phi placement (iterated dominance frontier).
    phi_for: Dict[Tuple[str, int], ir.Phi] = {}
    for var, defs in def_blocks.items():
        work = list(defs)
        placed: Set[str] = set()
        while work:
            blk_label = work.pop()
            for front in frontiers.get(blk_label, ()):
                if front in placed:
                    continue
                placed.add(front)
                phi = ir.Phi(result=fn.new_value(), incomings=[],
                             is_float=float_of[var])
                fn.block(front).instrs.insert(0, phi)
                phi_for[(front, var)] = phi
                if front not in defs:
                    work.append(front)

    # Renaming along the dominator tree.
    children: Dict[str, List[str]] = {label: [] for label in idom}
    for label, parent in idom.items():
        if parent is not None:
            children[parent].append(label)

    preds = fn.predecessors()
    stack: Dict[int, List[ir.Operand]] = {var: [] for var in alloca_ids}

    def current(var: int) -> ir.Operand:
        if stack[var]:
            return stack[var][-1]
        # Use of an uninitialised slot: IRGen always stores before loading,
        # so this only appears on dead paths; zero is a safe placeholder.
        return ir.Const(0.0, is_float=True) if float_of[var] else ir.Const(0)

    phi_var = {id(phi): var for (blk, var), phi in phi_for.items()}

    # replacement maps promoted load results to SSA operands; it grows as we
    # rename, and later uses are rewritten through it (def dominates use).
    replacement: Dict[int, ir.Operand] = {}

    # Preorder walk of the dominator tree on an explicit stack.  Recursion
    # would need the process-wide recursion limit raised for deep trees
    # (shared with every other thread), and a recursive closure refers to
    # itself: a reference cycle per promoted function.  An entry is a block
    # to rename or, on leaving a block's subtree, the variables it pushed.
    walk: List[object] = [fn.entry.label]
    while walk:
        item = walk.pop()
        if isinstance(item, list):
            for var in reversed(item):
                stack[var].pop()
            continue
        label = item
        pushed: List[int] = []
        blk = fn.block(label)
        new_instrs: List[ir.LIRInstr] = []
        for instr in blk.instrs:
            if isinstance(instr, ir.Alloca) and instr.result in alloca_ids:
                continue
            if isinstance(instr, ir.Phi) and id(instr) in phi_var:
                var = phi_var[id(instr)]
                stack[var].append(instr.result)
                pushed.append(var)
                new_instrs.append(instr)
                continue
            if isinstance(instr, ir.Load) and instr.ptr in alloca_ids:
                replacement[instr.result] = current(instr.ptr)
                continue
            if isinstance(instr, ir.Store) and instr.ptr in alloca_ids:
                value = instr.value
                if ir.is_value(value) and value in replacement:
                    value = replacement[value]
                stack[instr.ptr].append(value)
                pushed.append(instr.ptr)
                continue
            instr.replace_operands(replacement)
            new_instrs.append(instr)
        blk.instrs = new_instrs
        for succ in blk.successors():
            for var in alloca_ids:
                phi = phi_for.get((succ, var))
                if phi is not None:
                    phi.incomings.append((label, current(var)))
        walk.append(pushed)
        walk.extend(reversed(children.get(label, [])))

    # A second sweep: fix any operands renamed after their use was visited
    # (cannot happen along dominator order, but phi incomings from back
    # edges were appended with then-current defs, which is correct; loads
    # replaced later are already handled).  Sweep for safety.
    for blk in fn.blocks:
        for instr in blk.instrs:
            instr.replace_operands(replacement)
    return len(allocas)


def _drop_unreachable_blocks(fn: ir.LIRFunction) -> None:
    keep = set(reachable_blocks(fn))
    if len(keep) == len(fn.blocks):
        return
    fn.blocks = [blk for blk in fn.blocks if blk.label in keep]
    # Remove phi incomings from deleted predecessors.
    for blk in fn.blocks:
        for phi in blk.phis():
            phi.incomings = [(lbl, op) for lbl, op in phi.incomings
                             if lbl in keep]


def run_on_module(module: ir.LIRModule) -> int:
    return sum(promote_allocas(fn) for fn in module.functions)
