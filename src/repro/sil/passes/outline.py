"""SIL outlining (the Table I baseline, §III).

Swift's SILOptimizer "Outlining" pass creates function calls in lieu of
inlined instruction sequences for certain well-defined patterns — copies,
assignments, and reference counting.  We model its most common win: the
``retain + apply`` pair our +1 argument convention stamps at every
reference-passing call site.  Sites calling the same callee with the same
arity are redirected through one shared bare helper that performs the
retain and forwards the call (and its result).

As in the paper, the effect on final code size is small (a fraction of a
percent) because the machine outliner would have caught these repeats —
and much more — anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend.types import DOUBLE
from repro.sil import sil

#: Minimum occurrences before a helper pays for itself.
MIN_OCCURRENCES = 4


def run_on_module(module: sil.SILModule,
                  signatures: Optional[Dict[str, sil.SILFunction]] = None
                  ) -> Dict[str, int]:
    """Returns metrics: sites outlined, helpers created.

    *signatures* (default: the module's own functions) types the
    callees; it needs only their parameter and return types, so an
    imported callee may be a body-less stub.  Each helper created is
    added to it.
    """
    if signatures is None:
        signatures = {fn.symbol: fn for fn in module.functions}
    # Pass 1: census of (callee, nargs, has_result) retain+apply shapes.
    census: Dict[Tuple[str, int, bool], int] = {}
    for fn in module.functions:
        if fn.is_bare:
            continue
        for blk in fn.blocks:
            for i in range(len(blk.instrs) - 1):
                shape = _match(blk.instrs, i, signatures)
                if shape is not None:
                    census[shape] = census.get(shape, 0) + 1

    helpers: Dict[Tuple[str, int, bool], str] = {}
    sites = 0
    for shape, count in sorted(census.items()):
        if count < MIN_OCCURRENCES:
            continue
        helpers[shape] = _make_helper(module, shape, signatures)

    # Pass 2: rewrite sites.
    helper_symbols = set(helpers.values())
    for fn in module.functions:
        if fn.is_bare or fn.symbol in helper_symbols:
            continue
        for blk in fn.blocks:
            i = 0
            while i < len(blk.instrs) - 1:
                shape = _match(blk.instrs, i, signatures)
                helper = helpers.get(shape) if shape is not None else None
                if helper is not None:
                    apply_instr: sil.Apply = blk.instrs[i + 1]  # type: ignore
                    blk.instrs[i:i + 2] = [
                        sil.Apply(result=apply_instr.result, callee=helper,
                                  args=apply_instr.args)
                    ]
                    sites += 1
                i += 1
    return {"helpers_created": len(helpers), "sites_outlined": sites}


def _match(instrs: List[sil.SILInstr], i: int,
           signatures: Dict[str, sil.SILFunction]):
    """Match ``retain v; apply @f(v, ...)`` with known, all-integer-class
    argument registers (float args would change the helper's convention)."""
    first = instrs[i]
    second = instrs[i + 1]
    if not isinstance(first, sil.Retain) or not isinstance(second, sil.Apply):
        return None
    if not second.callee or second.callee not in signatures:
        return None
    if not second.args or second.args[0] != first.value:
        return None
    callee = signatures[second.callee]
    if any(t == DOUBLE for t in callee.param_types):
        return None
    if callee.ret_type == DOUBLE:
        return None
    return (second.callee, len(second.args), second.result is not None)


def _make_helper(module: sil.SILModule, shape,
                 signatures: Dict[str, sil.SILFunction]) -> str:
    callee_symbol, nargs, has_result = shape
    callee = signatures[callee_symbol]
    symbol = f"{module.name}::sil_outlined${len(module.functions)}"
    helper = sil.SILFunction(symbol=symbol, is_bare=True,
                             ret_type=callee.ret_type if has_result else None,
                             source_module=module.name)
    params = [helper.new_temp() for _ in range(nargs)]
    helper.param_temps = params
    # Parameter types matter for IRGen's register-class assignment.
    helper.param_types = list(callee.param_types[:nargs])
    while len(helper.param_types) < nargs:
        helper.param_types.append(None)  # type: ignore[arg-type]
    entry = helper.new_block("entry")
    entry.instrs.append(sil.Retain(value=params[0]))
    result = helper.new_temp() if has_result else None
    entry.instrs.append(sil.Apply(result=result, callee=callee_symbol,
                                  args=tuple(params)))
    entry.instrs.append(sil.Return(value=result))
    module.functions.append(helper)
    signatures[symbol] = helper
    return symbol
