"""LIR structural verifier.

Checks the invariants the backend relies on; used heavily by tests:

* every block ends in exactly one terminator, with no terminator mid-block;
* branch targets exist;
* phi incomings exactly cover the block's CFG predecessors;
* in SSA form (post-mem2reg, pre-phielim) every value has a single def and
  defs dominate uses.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import VerifierError
from repro.lir import ir
from repro.lir.cfg import compute_dominators, dominates, reachable_blocks


def verify_function(fn: ir.LIRFunction, check_ssa: bool = True) -> None:
    labels = {blk.label for blk in fn.blocks}
    if len(labels) != len(fn.blocks):
        raise VerifierError(f"{fn.symbol}: duplicate block labels")
    if not fn.blocks:
        raise VerifierError(f"{fn.symbol}: no blocks")
    for blk in fn.blocks:
        if not blk.instrs:
            raise VerifierError(f"{fn.symbol}:{blk.label}: empty block")
        for i, instr in enumerate(blk.instrs):
            is_last = i == len(blk.instrs) - 1
            if isinstance(instr, ir.TermInstr) != is_last:
                raise VerifierError(
                    f"{fn.symbol}:{blk.label}: terminator placement error at "
                    f"instruction {i} ({type(instr).__name__})")
        for succ in blk.successors():
            if succ not in labels:
                raise VerifierError(
                    f"{fn.symbol}:{blk.label}: branch to unknown block "
                    f"{succ!r}")
    _verify_phis(fn)
    if check_ssa:
        _verify_ssa(fn)


def _verify_phis(fn: ir.LIRFunction) -> None:
    preds = fn.predecessors()
    reachable = set(reachable_blocks(fn))
    for blk in fn.blocks:
        if blk.label not in reachable:
            continue
        seen_non_phi = False
        for instr in blk.instrs:
            if isinstance(instr, ir.Phi):
                if seen_non_phi:
                    raise VerifierError(
                        f"{fn.symbol}:{blk.label}: phi after non-phi")
                expected = {p for p in preds[blk.label] if p in reachable}
                got = {lbl for lbl, _ in instr.incomings}
                if got != expected:
                    raise VerifierError(
                        f"{fn.symbol}:{blk.label}: phi incomings {sorted(got)} "
                        f"!= predecessors {sorted(expected)}")
            else:
                seen_non_phi = True


def _verify_ssa(fn: ir.LIRFunction) -> None:
    def_block: Dict[int, str] = {}
    for p in fn.params:
        def_block[p] = fn.entry.label
    def_order: Dict[int, int] = {p: -1 for p in fn.params}
    for blk in fn.blocks:
        for i, instr in enumerate(blk.instrs):
            if instr.result is None:
                continue
            if instr.result in def_block:
                raise VerifierError(
                    f"{fn.symbol}: value %{instr.result} defined twice")
            def_block[instr.result] = blk.label
            def_order[instr.result] = i
    idom = compute_dominators(fn)
    reachable = set(idom)
    for blk in fn.blocks:
        if blk.label not in reachable:
            continue
        for i, instr in enumerate(blk.instrs):
            if isinstance(instr, ir.Phi):
                for pred_label, op in instr.incomings:
                    if not ir.is_value(op):
                        continue
                    if op not in def_block:
                        raise VerifierError(
                            f"{fn.symbol}:{blk.label}: phi uses undefined "
                            f"%{op}")
                    dblk = def_block[op]
                    if dblk in reachable and not dominates(idom, dblk,
                                                           pred_label):
                        raise VerifierError(
                            f"{fn.symbol}:{blk.label}: phi incoming %{op} "
                            f"from {pred_label} not dominated by def in "
                            f"{dblk}")
                continue
            for op in instr.operands():
                if not ir.is_value(op):
                    continue
                if op not in def_block:
                    raise VerifierError(
                        f"{fn.symbol}:{blk.label}: use of undefined %{op}")
                dblk = def_block[op]
                if dblk not in reachable:
                    continue
                if dblk == blk.label:
                    if def_order[op] >= i:
                        raise VerifierError(
                            f"{fn.symbol}:{blk.label}: %{op} used before "
                            f"its definition in the same block")
                elif not dominates(idom, dblk, blk.label):
                    raise VerifierError(
                        f"{fn.symbol}:{blk.label}: use of %{op} not "
                        f"dominated by its def in {dblk}")


def verify_module(module: ir.LIRModule, check_ssa: bool = True) -> None:
    symbols: Set[str] = set()
    for fn in module.functions:
        if fn.symbol in symbols:
            raise VerifierError(f"duplicate function symbol {fn.symbol!r}")
        symbols.add(fn.symbol)
        verify_function(fn, check_ssa=check_ssa)
    gsyms: Set[str] = set()
    for gbl in module.globals:
        if gbl.symbol in gsyms:
            raise VerifierError(f"duplicate global symbol {gbl.symbol!r}")
        gsyms.add(gbl.symbol)
