"""CFG simplification: remove unreachable blocks, thread trivial jumps, and
merge single-predecessor/single-successor block pairs.

Runs after mem2reg, so it must keep phi incoming labels consistent.
"""

from __future__ import annotations

from repro.lir import ir
from repro.lir.cfg import reachable_blocks


def run_on_function(fn: ir.LIRFunction) -> int:
    changed_total = 0
    while True:
        changed = 0
        changed += _remove_unreachable(fn)
        changed += _thread_empty_blocks(fn)
        changed += _merge_linear_pairs(fn)
        changed_total += changed
        if not changed:
            return changed_total


def _remove_unreachable(fn: ir.LIRFunction) -> int:
    keep = set(reachable_blocks(fn))
    dropped = [blk.label for blk in fn.blocks if blk.label not in keep]
    if not dropped:
        return 0
    fn.blocks = [blk for blk in fn.blocks if blk.label in keep]
    for blk in fn.blocks:
        for phi in blk.phis():
            phi.incomings = [(lbl, op) for lbl, op in phi.incomings
                             if lbl in keep]
    return len(dropped)


def _thread_empty_blocks(fn: ir.LIRFunction) -> int:
    """Forward one Br-only block per call (the fixpoint loop iterates).

    Handling one block at a time with fresh predecessor information keeps
    phi incoming labels consistent even across forwarding chains.
    """
    preds = fn.predecessors()
    for blk in fn.blocks[1:]:
        if not (len(blk.instrs) == 1 and isinstance(blk.instrs[0], ir.Br)):
            continue
        target_label = blk.instrs[0].target
        if target_label == blk.label:
            continue
        blk_preds = preds.get(blk.label, [])
        if not blk_preds:
            continue
        target = fn.block(target_label)
        if target.phis():
            # After retargeting, target's preds gain blk's preds in place of
            # blk.  Bail out if that would create duplicate-pred phi edges
            # with conflicting values.
            target_pred_set = set(preds.get(target_label, []))
            if any(p in target_pred_set for p in blk_preds):
                continue
            for phi in target.phis():
                new_in = []
                for lbl, op in phi.incomings:
                    if lbl == blk.label:
                        for p in blk_preds:
                            new_in.append((p, op))
                    else:
                        new_in.append((lbl, op))
                phi.incomings = new_in
        # Retarget every predecessor terminator.
        for pred_label in blk_preds:
            term = fn.block(pred_label).terminator
            if isinstance(term, ir.Br) and term.target == blk.label:
                term.target = target_label
            elif isinstance(term, ir.CondBr):
                if term.true_target == blk.label:
                    term.true_target = target_label
                if term.false_target == blk.label:
                    term.false_target = target_label
        _remove_unreachable(fn)
        return 1
    return 0


def _merge_linear_pairs(fn: ir.LIRFunction) -> int:
    """Merge B into A when A ends in Br B and B has exactly one predecessor."""
    changed = 0
    preds = fn.predecessors()
    merged = set()
    for blk in list(fn.blocks):
        if blk.label in merged:
            continue
        term = blk.terminator
        if not isinstance(term, ir.Br):
            continue
        target_label = term.target
        if target_label == blk.label or target_label == fn.entry.label:
            continue
        if len(preds.get(target_label, [])) != 1:
            continue
        target = fn.block(target_label)
        if target.phis():
            # Single-pred phis fold to copies.
            new_head = []
            for instr in target.instrs:
                if isinstance(instr, ir.Phi):
                    value: ir.Operand = ir.Const(0)
                    for lbl, op in instr.incomings:
                        if lbl == blk.label:
                            value = op
                            break
                    else:
                        if instr.incomings:
                            value = instr.incomings[0][1]
                    new_head.append(
                        ir.Copy(result=instr.result, value=value,
                                is_float=instr.is_float))
                else:
                    break
            target.instrs = new_head + target.instrs[len(new_head):]
            target.instrs = [i for i in target.instrs
                             if not isinstance(i, ir.Phi)]
        blk.instrs = blk.instrs[:-1] + target.instrs
        # Successor phis referring to the merged block must now name blk.
        for succ_label in target.successors():
            try:
                succ = fn.block(succ_label)
            except Exception:
                continue
            for phi in succ.phis():
                phi.incomings = [
                    (blk.label if lbl == target_label else lbl, op)
                    for lbl, op in phi.incomings
                ]
        fn.blocks = [b for b in fn.blocks if b.label != target_label]
        merged.add(target_label)
        changed += 1
        preds = fn.predecessors()
    return changed


def run_on_module(module: ir.LIRModule) -> int:
    return sum(run_on_function(fn) for fn in module.functions)
