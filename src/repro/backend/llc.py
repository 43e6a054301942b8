"""llc driver: LIR module -> machine module.

Pipeline per function: phi elimination (out-of-SSA) -> instruction
selection -> linear-scan register allocation -> frame lowering.  Optionally
runs N rounds of whole-module machine outlining afterwards — the paper's
``-outline-repeat-count=N`` flag on llc.  The module it returns holds one
shared instruction object per distinct instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.backend.frame import lower_frame
from repro.backend.isel import select_function
from repro.backend.regalloc import allocate_function
from repro.isa.instructions import (
    MachineFunction,
    MachineGlobal,
    MachineModule,
    intern_instrs,
)
from repro.lir import ir
from repro.lir.passes import phielim
from repro.obs import trace
from repro.target import get_target
from repro.target.spec import TargetSpec


@dataclass
class LLCOptions:
    #: Rounds of machine outlining (0 disables; the paper ships 5).
    outline_rounds: int = 0
    #: Namespace for outlined symbols (per-module builds must use the module
    #: name so the system linker does not see clashing clones).
    outlined_name_prefix: str = ""
    #: Target name or spec (None = session default target).
    target: Optional[object] = None


@dataclass
class LLCResult:
    module: MachineModule
    #: One OutlineRoundStats per executed round (empty when disabled).
    outline_stats: List["object"] = field(default_factory=list)


def compile_function(fn: ir.LIRFunction,
                     spec: Optional[TargetSpec] = None) -> MachineFunction:
    """Lower one LIR function to machine code (no outlining)."""
    spec = get_target(spec)
    phielim.run_on_function(fn)
    mf = select_function(fn, spec)
    alloc = allocate_function(mf, spec)
    lower_frame(mf, alloc, spec)
    return mf


def lower_globals(module: ir.LIRModule) -> List[MachineGlobal]:
    out: List[MachineGlobal] = []
    for gbl in module.globals:
        out.append(_lower_global(gbl))
    return out


def _lower_global(gbl: ir.LIRGlobal) -> MachineGlobal:
    # The binary-image builder materialises object headers; here we keep the
    # logical initialiser and let link assign layout.
    init = gbl.init
    if isinstance(init, str):
        values: object = init
    elif isinstance(init, list):
        values = list(init)
    else:
        values = [init]
    return MachineGlobal(name=gbl.symbol, values=values,  # type: ignore[arg-type]
                         origin_module=gbl.origin_module,
                         is_const=gbl.is_const, is_object=gbl.is_object,
                         elem_is_float=gbl.elem_is_float)


def run_llc(module: ir.LIRModule,
            options: Optional[LLCOptions] = None) -> LLCResult:
    """Compile a full LIR module, with optional repeated machine outlining."""
    options = options or LLCOptions()
    spec = get_target(options.target)  # type: ignore[arg-type]
    with trace.span("llc-module", kind="llc", module=module.name,
                    num_functions=len(module.functions),
                    target=spec.name):
        machine = MachineModule(name=module.name)
        for fn in module.functions:
            machine.functions.append(compile_function(fn, spec))
        machine.globals = lower_globals(module)
        stats: List[object] = []
        if options.outline_rounds > 0:
            from repro.outliner.repeated import repeated_outline

            stats = repeated_outline(machine, rounds=options.outline_rounds,
                                     name_prefix=options.outlined_name_prefix,
                                     target=spec)
        # One object per distinct instruction, so the module's llc cache
        # entry and a worker's result pickle each distinct one once.
        intern_instrs(machine.functions)
        trace.metrics().inc("llc.modules")
        trace.metrics().inc("llc.functions", len(machine.functions))
    return LLCResult(module=machine, outline_stats=stats)
