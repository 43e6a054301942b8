"""Machine-level identical-code folding (the "merge after outline" arm).

LIR-level merging (:mod:`repro.lir.passes.optmerge`) necessarily runs
*before* llc, so it can never see the duplicates the outliner leaves
behind.  This module folds machine functions after outlining, in two
modes that mirror the LIR pass's split:

* ``exact`` — one-shot folding of bit-identical bodies (labels normalised
  to block indices, self-calls normalised so ``f calls f`` and ``g calls
  g`` can fold);
* ``optimistic`` — partition refinement over call-target *equivalence
  classes*: all functions start in one class, and the partition is
  refined until two functions share a class iff their bodies are
  identical up to callees in equal classes.  This is the coarsest
  congruence, so mutually-recursive clone groups fold where exact
  comparison sees differing symbols — the classic "optimistic" ICF from
  linker folding and LLVM's MergeFunctions.

Safety rules match the linker's safe-ICF mode: the entry function and any
function whose symbol is referenced outside a direct-call position
(address-taken: ``ADRP``/page-offset literals, stored function pointers)
are never *dropped* — they may still serve as fold representatives.
Folding only deletes bodies and retargets direct calls; it never changes
pointer identity.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    Cond,
    Label,
    MachineFunction,
    MachineModule,
    Sym,
    float_bits,
)

#: Marker classes for callee normalisation inside body keys.
_SELF = ("self",)


def _address_taken(module: MachineModule) -> set:
    """Function symbols referenced outside a direct-call position."""
    names = {fn.name for fn in module.functions}
    taken = set()
    for fn in module.functions:
        for instr in fn.instructions():
            callee = instr.callee()
            for op in instr.operands:
                if (isinstance(op, Sym) and op.name in names
                        and op.name != callee):
                    taken.add(op.name)
    return taken


def _op_key(op) -> Tuple:
    if isinstance(op, Sym):
        return ("sym", op.name)
    if isinstance(op, Label):
        return ("lbl", op.name)
    if isinstance(op, Cond):
        return ("cc", op.value)
    if isinstance(op, float):
        # Bit pattern, not value: -0.0 and 0.0 encode differently.
        return ("imm-f", float_bits(op))
    if isinstance(op, bool):
        return ("imm-b", op)
    if isinstance(op, (int, str)):
        return ("imm" if isinstance(op, int) else "reg", op)
    return ("?", repr(op))


def body_key(fn: MachineFunction,
             callee_class: Optional[Dict[str, int]] = None) -> Tuple:
    """Canonical form of a machine function body.

    Labels become block indices; a direct call to *fn* itself becomes a
    self marker; other direct-call targets are represented by their
    equivalence class when *callee_class* is given (optimistic mode) and
    verbatim otherwise (exact mode).  Everything else — opcodes, register
    names, immediates, implicit operand lists, frame metadata, the
    outlined flag — is included verbatim.
    """
    label_index = {blk.label: i for i, blk in enumerate(fn.blocks)}
    rows: List[Tuple] = []
    for blk in fn.blocks:
        rows.append(("#block", label_index[blk.label]))
        for instr in blk.instrs:
            callee = instr.callee()
            ops: List[Tuple] = []
            for op in instr.operands:
                if isinstance(op, Sym) and op.name == callee:
                    if callee_class is not None and callee in callee_class:
                        # Optimistic: the class map covers self-calls too
                        # (fn is its own class member), so it subsumes the
                        # self marker and folds strictly more.
                        ops.append(("cls", callee_class[callee]))
                    elif callee == fn.name:
                        ops.append(_SELF)
                    else:
                        ops.append(("sym", op.name))
                elif isinstance(op, Label):
                    ops.append(("lbl", label_index.get(op.name, -1)))
                else:
                    ops.append(_op_key(op))
            rows.append((instr.opcode, tuple(ops), instr.implicit_uses,
                         instr.implicit_defs))
    return (fn.is_outlined, fn.frame_bytes, fn.num_spill_slots, tuple(rows))


def _equivalence_classes(module: MachineModule) -> Tuple[Dict[str, int], int]:
    """Coarsest partition where same class => identical up to callees in
    equal classes.  Starts with every function potentially equal and
    refines to a fixpoint; folding the previous class id into each key
    makes every iteration a strict refinement, so it terminates in at
    most ``len(functions)`` rounds."""
    functions = module.functions
    cls: Dict[str, int] = {fn.name: 0 for fn in functions}
    iterations = 0
    while True:
        iterations += 1
        id_of: Dict[Tuple, int] = {}
        new_cls: Dict[str, int] = {}
        for fn in functions:
            key = (cls[fn.name], body_key(fn, callee_class=cls))
            if key not in id_of:
                id_of[key] = len(id_of)
            new_cls[fn.name] = id_of[key]
        if new_cls == cls:
            return cls, iterations
        cls = new_cls


def fold_module(module: MachineModule, mode: str = "exact",
                entry_symbol: Optional[str] = None) -> Dict[str, int]:
    """Fold identical functions in *module* in place; returns stats."""
    if mode not in ("exact", "optimistic"):
        raise ValueError(f"unknown machine-merge mode {mode!r}")
    taken = _address_taken(module)
    iterations = 1
    if mode == "optimistic":
        cls, iterations = _equivalence_classes(module)
        groups: Dict[int, List[MachineFunction]] = {}
        for fn in module.functions:
            groups.setdefault(cls[fn.name], []).append(fn)
        grouped = list(groups.values())
    else:
        by_key: Dict[Tuple, List[MachineFunction]] = {}
        for fn in module.functions:
            by_key.setdefault(body_key(fn), []).append(fn)
        grouped = list(by_key.values())

    remap: Dict[str, str] = {}
    removed_instrs = 0
    for members in grouped:
        if len(members) < 2:
            continue
        undroppable = [fn for fn in members
                       if fn.name == entry_symbol or fn.name in taken]
        rep = undroppable[0] if undroppable else members[0]
        for fn in members:
            if fn is rep or fn.name == entry_symbol or fn.name in taken:
                continue
            remap[fn.name] = rep.name
            removed_instrs += fn.num_instrs

    if remap:
        module.functions = [fn for fn in module.functions
                            if fn.name not in remap]
        for fn in module.functions:
            for blk in fn.blocks:
                for i, instr in enumerate(blk.instrs):
                    callee = instr.callee()
                    if callee in remap:
                        # Instructions are shared and immutable: the
                        # rewrite replaces this index only.
                        operands = tuple(
                            Sym(remap[callee]) if (isinstance(op, Sym)
                                                   and op.name == callee)
                            else op
                            for op in instr.operands)
                        blk.instrs[i] = dataclasses.replace(
                            instr, operands=operands)
    return {"functions_folded": len(remap),
            "instrs_removed": removed_instrs,
            "refinement_iterations": iterations}
