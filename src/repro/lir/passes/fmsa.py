"""FMSA-style function merging (Table I baseline).

"Function merging by sequence alignment" merges *similar* (not identical)
functions.  This implementation covers the dominant case: functions whose
bodies are identical up to integer/float immediates.  Each group is merged
into one parameterised function; the differing immediates become extra
arguments supplied by (rewritten) callers.

Like the paper observed, this buys a couple of percent at real compile-time
cost; sub-instruction repeats remain invisible to it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lir import ir
from repro.lir.passes.mergefunctions import _address_taken, const_token

#: Extra const parameters must fit the register-argument budget.
MAX_EXTRA_PARAMS = 4
MAX_TOTAL_PARAMS = 8


def shape_key_and_consts(fn: ir.LIRFunction) -> Tuple[Tuple, List[ir.Const]]:
    """Canonical form with immediates abstracted out."""
    value_ids: Dict[int, int] = {}

    def vid(value: int) -> int:
        if value not in value_ids:
            value_ids[value] = len(value_ids)
        return value_ids[value]

    block_index = {blk.label: i for i, blk in enumerate(fn.blocks)}
    consts: List[ir.Const] = []

    def canon_op(op: ir.Operand):
        if ir.is_value(op):
            return ("v", vid(op))
        if isinstance(op, ir.Const):
            consts.append(op)
            return ("C", len(consts) - 1, op.is_float)
        if isinstance(op, ir.GlobalRef):
            return ("g", op.symbol)
        if isinstance(op, ir.FuncRef):
            return ("f", op.symbol)
        return ("?", repr(op))

    for p in fn.params:
        vid(p)
    body = []
    for blk in fn.blocks:
        row = [block_index[blk.label]]
        for instr in blk.instrs:
            entry = [type(instr).__name__]
            if instr.result is not None:
                entry.append(("def", vid(instr.result)))
            for name, value in sorted(vars(instr).items()):
                if name == "result":
                    continue
                if name in ("ptr", "value", "lhs", "rhs", "cond", "base",
                            "offset", "callee_value"):
                    entry.append((name, None if value is None
                                  else canon_op(value)))
                elif name == "args":
                    entry.append(("args", tuple(canon_op(a) for a in value)))
                elif name == "incomings":
                    entry.append(("inc", tuple(
                        (block_index.get(lbl, -1), canon_op(op))
                        for lbl, op in value)))
                elif name in ("target", "true_target", "false_target"):
                    entry.append((name, block_index.get(value, -1)))
                else:
                    entry.append((name, value))
            row.append(tuple(entry))
        body.append(tuple(row))
    key = (len(fn.params), tuple(fn.param_is_float), fn.throws,
           fn.has_return_value, fn.ret_is_float, tuple(body))
    return key, consts


def _rewrite_consts_as_params(fn: ir.LIRFunction,
                              diff_positions: List[int]) -> List[ir.Value]:
    """Replace the const at each diff position with a fresh parameter."""
    new_params: List[ir.Value] = []
    position_to_param: Dict[int, ir.Value] = {}
    for pos in diff_positions:
        value = fn.new_value()
        position_to_param[pos] = value
        new_params.append(value)

    counter = [0]

    def rewrite_op(op: ir.Operand) -> ir.Operand:
        if isinstance(op, ir.Const):
            pos = counter[0]
            counter[0] += 1
            if pos in position_to_param:
                return position_to_param[pos]
        return op

    for blk in fn.blocks:
        for instr in blk.instrs:
            for name in ("ptr", "value", "lhs", "rhs", "cond", "base",
                         "offset", "callee_value"):
                if hasattr(instr, name):
                    value = getattr(instr, name)
                    if value is not None:
                        setattr(instr, name, rewrite_op(value))
            if hasattr(instr, "args"):
                instr.args = [rewrite_op(a) for a in instr.args]
            if hasattr(instr, "incomings"):
                instr.incomings = [(lbl, rewrite_op(op))
                                   for lbl, op in instr.incomings]
    return new_params


def run_on_module(module: ir.LIRModule) -> Dict[str, int]:
    taken = _address_taken(module)
    groups: Dict[Tuple, List[Tuple[ir.LIRFunction, List[ir.Const]]]] = {}
    for fn in module.functions:
        if fn.symbol == module.entry_symbol or fn.symbol in taken:
            continue
        key, consts = shape_key_and_consts(fn)
        groups.setdefault(key, []).append((fn, consts))

    alias: Dict[str, Tuple[str, List[ir.Const]]] = {}
    merged_count = 0
    removed_instrs = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        rep_fn, rep_consts = members[0]
        nconsts = len(rep_consts)
        if any(len(c) != nconsts for _, c in members):
            continue  # float/int shape mismatch guard
        # const_token, not (value, is_float): Python equality would fold
        # 0.0/-0.0 and True/1 into "identical", silently dropping a real
        # difference instead of parameterising it.
        diff = [
            i for i in range(nconsts)
            if len({const_token(c[i]) for _, c in members}) > 1
        ]
        if not diff:
            continue  # identical: MergeFunctions territory
        if len(diff) > MAX_EXTRA_PARAMS:
            continue
        if len(rep_fn.params) + len(diff) > MAX_TOTAL_PARAMS:
            continue
        if any(rep_consts[i].is_float for i in diff):
            continue  # keep extra params integer-class for simplicity
        new_params = _rewrite_consts_as_params(rep_fn, diff)
        rep_fn.params.extend(new_params)
        rep_fn.param_is_float.extend(False for _ in new_params)
        for member_fn, member_consts in members:
            extra = [member_consts[i] for i in diff]
            alias[member_fn.symbol] = (rep_fn.symbol, extra)
            if member_fn is not rep_fn:
                removed_instrs += member_fn.num_instrs
        merged_count += len(members) - 1

    if alias:
        keep_reps = {target for target, _ in alias.values()}
        module.functions = [
            fn for fn in module.functions
            if fn.symbol not in alias or fn.symbol in keep_reps
        ]
        for fn in module.functions:
            for instr in fn.instructions():
                if isinstance(instr, ir.Call) and instr.callee in alias:
                    target, extra = alias[instr.callee]
                    instr.callee = target
                    instr.args = list(instr.args) + list(extra)
                    instr.arg_is_float = tuple(instr.arg_is_float) + tuple(
                        False for _ in extra)
    return {"functions_merged": merged_count,
            "instrs_removed": removed_instrs}
