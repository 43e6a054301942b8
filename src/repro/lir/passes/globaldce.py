"""Global DCE: strip functions unreachable from the entry point.

Models the dead-code-removal infrastructure Uber already ran before this
paper's work (§II-B); app builds keep only what main can reach, directly or
through an address-taken closure.

Two reachability passes live here, one per representation:

* :func:`run_on_module` — the early LIR pass (``BuildConfig.global_dce``)
  over the llvm-link-merged module, whole-program pipeline only;
* :func:`strip_program` — link-time whole-program stripping
  (``BuildConfig.strip = "program"``) over the *machine* modules, right
  before the system link.  It works in both pipeline shapes and sees the
  final code — outlined bodies, merged thunks — so it also removes
  machine functions orphaned by later passes, which the LIR pass can
  never see.

Safety argument for the machine-level pass: every way control can reach a
function body in this ISA names its symbol in an instruction operand —
direct calls (``BL @f``), tail calls (``B @f``), and address
materialisation (``ADRP``/``ADDlo`` pairs, the only lowering of
``FuncAddr``; indirect calls ``BLR`` always go through one).  Data
globals hold only ints/floats/strings, never code addresses.  So the
closure of "symbols named by reachable instructions" over-approximates
reachability, and removing everything outside it cannot change any
execution from the entry point.  Throwing functions need no special
case: they are only entered via their call sites, which are edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Set

from repro.lir import ir


def _reachable(root: str,
               successors: Callable[[str], Iterable[str]]) -> Set[str]:
    """*root* and every name reachable from it through *successors* (the
    one worklist closure both passes share)."""
    reachable: Set[str] = set()
    work = [root]
    while work:
        name = work.pop()
        if name not in reachable:
            reachable.add(name)
            work.extend(successors(name))
    return reachable


def run_on_module(module: ir.LIRModule) -> int:
    """Returns the number of functions removed."""
    by_symbol: Dict[str, ir.LIRFunction] = {
        fn.symbol: fn for fn in module.functions
    }
    if module.entry_symbol not in by_symbol:
        return 0

    def successors(symbol: str) -> Iterable[str]:
        for instr in by_symbol[symbol].instructions():
            if isinstance(instr, ir.Call) and instr.callee in by_symbol:
                yield instr.callee
            elif isinstance(instr, ir.FuncAddr) and instr.symbol in by_symbol:
                yield instr.symbol

    reachable = _reachable(module.entry_symbol, successors)
    kept = [fn for fn in module.functions if fn.symbol in reachable]
    removed = len(module.functions) - len(kept)
    module.functions = kept
    return removed


# --- link-time whole-program stripping (machine level) -----------------------


@dataclass
class StripStats:
    """What :func:`strip_program` removed."""

    #: Total functions / padded __text bytes removed across all modules.
    functions_removed: int = 0
    bytes_removed: int = 0
    #: module name -> {"functions": n, "bytes": b} for modules that lost
    #: at least one function.
    per_module: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Names of the removed functions (deterministic order; tests and the
    #: CLI report read this).
    removed: List[str] = field(default_factory=list)


def strip_program(machine_modules, entry_symbol, spec) -> StripStats:
    """Remove machine functions unreachable from *entry_symbol*.

    Mutates *machine_modules* in place and returns a :class:`StripStats`.
    Reachability walks every instruction operand of every reached
    function: any :class:`~repro.isa.instructions.Sym` naming a function
    is an edge (covers ``BL``, tail-call ``B``, and ``ADRP``/``ADDlo``
    address-taken references — see the module docstring for why this is
    complete).  Runtime symbols are not machine functions and simply
    never match.  A program with no (or an unknown) entry symbol is left
    untouched — a library build has no root to strip from.

    *spec* is a :class:`~repro.target.spec.TargetSpec`; removed bytes are
    priced with :meth:`~repro.target.spec.TargetSpec.function_text_bytes`
    (alignment-padded), the same arithmetic the linker lays out.
    """
    from repro.isa.instructions import Sym

    stats = StripStats()
    by_name = {}
    for module in machine_modules:
        for fn in module.functions:
            by_name[fn.name] = fn
    if entry_symbol not in by_name:
        return stats
    reachable = _reachable(entry_symbol, lambda name: (
        op.name for instr in by_name[name].instructions()
        for op in instr.operands
        if isinstance(op, Sym) and op.name in by_name))
    for module in machine_modules:
        dead = [fn for fn in module.functions if fn.name not in reachable]
        if not dead:
            continue
        removed_bytes = sum(spec.function_text_bytes(fn) for fn in dead)
        stats.per_module[module.name] = {
            "functions": len(dead), "bytes": removed_bytes}
        stats.functions_removed += len(dead)
        stats.bytes_removed += removed_bytes
        stats.removed.extend(fn.name for fn in dead)
        module.functions = [fn for fn in module.functions
                            if fn.name in reachable]
    return stats
