"""SIL: the Swift-Intermediate-Language analog.

SIL sits between the AST and LIR exactly as in Figure 3 of the paper:
SILGen lowers the checked AST here, SIL passes (including the baseline
"SIL Outlining" of Table I) transform it, and IRGen lowers it to LIR.

Design notes:

* Register machine with unlimited typed temps (``%N``); *not* SSA — mutable
  locals live in ``alloc_stack`` slots and captured locals in heap boxes,
  mirroring real SIL before LLVM's mem2reg.
* ARC is explicit: SILGen inserts ``retain``/``release``; these later lower
  to the ``swift_retain``/``swift_release`` runtime calls whose machine
  patterns dominate the paper's Listings 1-6.
* ``try_apply`` is a block terminator with normal/error successors, like
  real SIL; the error code lands in a dedicated temp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SILError
from repro.frontend.types import Type


Temp = int  # SIL value id


# --- Instructions ------------------------------------------------------------


@dataclass
class SILInstr:
    """Base class; ``result`` is the defined temp or None."""

    result: Optional[Temp] = None

    def operands(self) -> Tuple[Temp, ...]:
        """Temps read by this instruction (used by passes)."""
        return ()


@dataclass
class ConstInt(SILInstr):
    value: int = 0


@dataclass
class ConstFloat(SILInstr):
    value: float = 0.0


@dataclass
class ConstString(SILInstr):
    value: str = ""


@dataclass
class ConstNil(SILInstr):
    pass


@dataclass
class AllocStack(SILInstr):
    """A function-local mutable slot; result is its address."""

    ty: Optional[Type] = None
    name: str = ""  # debug name


@dataclass
class Load(SILInstr):
    addr: Temp = -1
    ty: Optional[Type] = None

    def operands(self):
        return (self.addr,)


@dataclass
class Store(SILInstr):
    value: Temp = -1
    addr: Temp = -1

    def operands(self):
        return (self.value, self.addr)


@dataclass
class AllocBox(SILInstr):
    """Heap box for a closure-captured variable; result is the box ref."""

    ty: Optional[Type] = None
    elem_is_ref: bool = False
    name: str = ""


@dataclass
class BoxGet(SILInstr):
    box: Temp = -1
    ty: Optional[Type] = None

    def operands(self):
        return (self.box,)


@dataclass
class BoxSet(SILInstr):
    """Store a +1 value into a box; the runtime releases old ref contents."""

    box: Temp = -1
    value: Temp = -1
    is_ref: bool = False

    def operands(self):
        return (self.box, self.value)


@dataclass
class AllocRef(SILInstr):
    """Allocate a class instance (rc=1); fields zero-initialised."""

    class_symbol: str = ""
    type_id: int = 0
    num_fields: int = 0


@dataclass
class FieldLoad(SILInstr):
    obj: Temp = -1
    index: int = 0
    ty: Optional[Type] = None

    def operands(self):
        return (self.obj,)


@dataclass
class FieldStore(SILInstr):
    """Store into a field, consuming a +1 value; releases the old ref value."""

    obj: Temp = -1
    index: int = 0
    value: Temp = -1
    is_ref: bool = False

    def operands(self):
        return (self.obj, self.value)


@dataclass
class ArrayNew(SILInstr):
    """Allocate an array of ``count`` elements, all set to ``initial``."""

    count: Temp = -1
    initial: Temp = -1
    elem_is_ref: bool = False
    elem_is_float: bool = False

    def operands(self):
        return (self.count, self.initial)


@dataclass
class ArrayGet(SILInstr):
    """Bounds-checked element read (borrowed for ref elements)."""

    array: Temp = -1
    index: Temp = -1
    ty: Optional[Type] = None

    def operands(self):
        return (self.array, self.index)


@dataclass
class ArraySet(SILInstr):
    """Bounds-checked element write consuming a +1 value for ref elements."""

    array: Temp = -1
    index: Temp = -1
    value: Temp = -1
    is_ref: bool = False

    def operands(self):
        return (self.array, self.index, self.value)


@dataclass
class ArrayCount(SILInstr):
    array: Temp = -1

    def operands(self):
        return (self.array,)


@dataclass
class ArrayAppend(SILInstr):
    """Append a +1 value (runtime grows the buffer)."""

    array: Temp = -1
    value: Temp = -1
    is_ref: bool = False

    def operands(self):
        return (self.array, self.value)


@dataclass
class ArrayRemoveLast(SILInstr):
    """Pop the last element; the result is owned (+1) for ref elements."""

    array: Temp = -1
    ty: Optional[Type] = None

    def operands(self):
        return (self.array,)


@dataclass
class StringLen(SILInstr):
    value: Temp = -1

    def operands(self):
        return (self.value,)


@dataclass
class StringIndex(SILInstr):
    value: Temp = -1
    index: Temp = -1

    def operands(self):
        return (self.value, self.index)


@dataclass
class Retain(SILInstr):
    value: Temp = -1

    def operands(self):
        return (self.value,)


@dataclass
class Release(SILInstr):
    value: Temp = -1

    def operands(self):
        return (self.value,)


@dataclass
class BinOp(SILInstr):
    op: str = ""            # + - * / % & | ^ << >>
    lhs: Temp = -1
    rhs: Temp = -1
    is_float: bool = False

    def operands(self):
        return (self.lhs, self.rhs)


@dataclass
class CmpOp(SILInstr):
    op: str = ""            # == != < <= > >=
    lhs: Temp = -1
    rhs: Temp = -1
    operand_is_float: bool = False

    def operands(self):
        return (self.lhs, self.rhs)


@dataclass
class NegOp(SILInstr):
    value: Temp = -1
    is_float: bool = False

    def operands(self):
        return (self.value,)


@dataclass
class NotOp(SILInstr):
    value: Temp = -1

    def operands(self):
        return (self.value,)


@dataclass
class Convert(SILInstr):
    kind: str = ""          # int_to_double | double_to_int
    value: Temp = -1

    def operands(self):
        return (self.value,)


@dataclass
class Apply(SILInstr):
    """Direct call to a non-throwing function."""

    callee: str = ""
    args: Tuple[Temp, ...] = ()

    def operands(self):
        return tuple(self.args)


@dataclass
class ApplyBuiltin(SILInstr):
    builtin: str = ""
    args: Tuple[Temp, ...] = ()

    def operands(self):
        return tuple(self.args)


@dataclass
class MakeClosure(SILInstr):
    """Allocate a closure object over ``captures`` (boxes, retained)."""

    fn_symbol: str = ""
    captures: Tuple[Temp, ...] = ()

    def operands(self):
        return tuple(self.captures)


@dataclass
class ApplyClosure(SILInstr):
    """Invoke a non-throwing closure value."""

    closure: Temp = -1
    args: Tuple[Temp, ...] = ()

    def operands(self):
        return (self.closure,) + tuple(self.args)


@dataclass
class GlobalLoad(SILInstr):
    symbol: str = ""
    ty: Optional[Type] = None
    #: Ref-typed const globals are statically allocated objects: the value
    #: *is* the symbol address (no load).
    is_object: bool = False


@dataclass
class GlobalStore(SILInstr):
    symbol: str = ""
    value: Temp = -1

    def operands(self):
        return (self.value,)


# --- Terminators ------------------------------------------------------------


@dataclass
class Terminator(SILInstr):
    pass


@dataclass
class Br(Terminator):
    target: str = ""


@dataclass
class CondBr(Terminator):
    cond: Temp = -1
    true_target: str = ""
    false_target: str = ""

    def operands(self):
        return (self.cond,)


@dataclass
class Return(Terminator):
    value: Optional[Temp] = None

    def operands(self):
        return (self.value,) if self.value is not None else ()


@dataclass
class Throw(Terminator):
    code: Temp = -1

    def operands(self):
        return (self.code,)


@dataclass
class TryApply(Terminator):
    """Call a throwing function; branch to normal/error successor.

    ``result`` holds the return value in the normal block; ``error_result``
    holds the error code in the error block.
    """

    callee: str = ""
    args: Tuple[Temp, ...] = ()
    normal_target: str = ""
    error_target: str = ""
    error_result: Temp = -1
    #: Indirect form: call through a closure value instead of a symbol.
    closure: Optional[Temp] = None

    def operands(self):
        base = tuple(self.args)
        if self.closure is not None:
            base = (self.closure,) + base
        return base


@dataclass
class Unreachable(Terminator):
    reason: str = "unreachable"


# --- Containers --------------------------------------------------------------


@dataclass
class SILBlock:
    label: str
    instrs: List[SILInstr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instrs and isinstance(self.instrs[-1], Terminator):
            return self.instrs[-1]
        return None

    def successors(self) -> List[str]:
        term = self.terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            return [term.true_target, term.false_target]
        if isinstance(term, TryApply):
            return [term.normal_target, term.error_target]
        return []


@dataclass
class SILFunction:
    """One SIL function.

    ``param_temps`` are the temps holding the incoming arguments (in order);
    closure bodies receive the context object as an extra final parameter.
    ``is_bare`` marks compiler-generated helpers (thunks, SIL-outlined
    functions) that skip the +1 parameter-release convention.
    """

    symbol: str
    param_temps: List[Temp] = field(default_factory=list)
    param_types: List[Type] = field(default_factory=list)
    ret_type: Optional[Type] = None
    throws: bool = False
    blocks: List[SILBlock] = field(default_factory=list)
    is_bare: bool = False
    source_module: str = ""
    next_temp: Temp = 0

    def new_temp(self) -> Temp:
        temp = self.next_temp
        self.next_temp += 1
        return temp

    def block(self, label: str) -> SILBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise SILError(f"no block {label!r} in {self.symbol}")

    def new_block(self, label: str) -> SILBlock:
        if any(b.label == label for b in self.blocks):
            raise SILError(f"duplicate block {label!r} in {self.symbol}")
        blk = SILBlock(label)
        self.blocks.append(blk)
        return blk

    @property
    def num_instrs(self) -> int:
        return sum(len(b.instrs) for b in self.blocks)

    def render(self) -> str:
        lines = [f"sil @{self.symbol} ({len(self.param_temps)} params)"
                 f"{' throws' if self.throws else ''}:"]
        for blk in self.blocks:
            lines.append(f"{blk.label}:")
            for instr in blk.instrs:
                res = f"%{instr.result} = " if instr.result is not None else ""
                args = {
                    k: v for k, v in vars(instr).items() if k != "result"
                }
                lines.append(f"    {res}{type(instr).__name__} {args}")
        return "\n".join(lines)


@dataclass
class SILGlobal:
    """A module-level constant global lowered from a GlobalDecl."""

    symbol: str
    ty: Type
    const_value: object  # int | float | str | list
    is_let: bool = True
    origin_module: str = ""


@dataclass
class SILModule:
    name: str
    functions: List[SILFunction] = field(default_factory=list)
    globals: List[SILGlobal] = field(default_factory=list)
    #: Program entry symbol if this module defines ``main``.
    entry_symbol: Optional[str] = None

    def function(self, symbol: str) -> SILFunction:
        for fn in self.functions:
            if fn.symbol == symbol:
                return fn
        raise SILError(f"no function {symbol!r} in SIL module {self.name}")

    @property
    def num_instrs(self) -> int:
        return sum(fn.num_instrs for fn in self.functions)
