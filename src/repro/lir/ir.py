"""LIR: the LLVM-IR analog.

A typed, CFG-based register IR.  IRGen emits it in "alloca form" (mutable
locals behind ``Alloca``/``Load``/``Store``); ``mem2reg`` raises it to SSA
with phi nodes; the backend's phi-elimination lowers it back out of SSA,
producing the copy sequences the paper attributes to LLVM's out-of-SSA
translation (Listing 11).

Value classes are just ``"i"`` (64-bit integer / pointer) and ``"f"``
(64-bit float); every Swiftlet value is one machine word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import LIRError

Value = int  # per-function virtual value id


@dataclass(frozen=True)
class Const:
    """Immediate operand."""

    value: Union[int, float]
    is_float: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"c{self.value}"


@dataclass(frozen=True)
class GlobalRef:
    """Address of a data global."""

    symbol: str

    def __repr__(self) -> str:  # pragma: no cover
        return f"@{self.symbol}"


@dataclass(frozen=True)
class FuncRef:
    """Address of a function (for closures / indirect calls)."""

    symbol: str

    def __repr__(self) -> str:  # pragma: no cover
        return f"&{self.symbol}"


Operand = Union[Value, Const, GlobalRef, FuncRef]


def is_value(op: Operand) -> bool:
    return isinstance(op, int) and not isinstance(op, bool)


# --- Instructions -------------------------------------------------------------


@dataclass
class LIRInstr:
    result: Optional[Value] = None

    def operands(self) -> Tuple[Operand, ...]:
        return ()

    def replace_operands(self, mapping: Dict[Value, Operand]) -> None:
        """Rewrite value operands through *mapping* (in place)."""

    @property
    def has_side_effects(self) -> bool:
        return False


def _map_op(op: Operand, mapping: Dict[Value, Operand]) -> Operand:
    if is_value(op) and op in mapping:
        return mapping[op]
    return op


@dataclass
class Alloca(LIRInstr):
    """One 8-byte stack slot; only ever used by Load/Store (promotable)."""

    name: str = ""
    is_float: bool = False


@dataclass
class Load(LIRInstr):
    ptr: Operand = -1
    is_float: bool = False

    def operands(self):
        return (self.ptr,)

    def replace_operands(self, mapping):
        self.ptr = _map_op(self.ptr, mapping)


@dataclass
class Store(LIRInstr):
    value: Operand = -1
    ptr: Operand = -1
    is_float: bool = False

    def operands(self):
        return (self.value, self.ptr)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)
        self.ptr = _map_op(self.ptr, mapping)

    @property
    def has_side_effects(self):
        return True


@dataclass
class BinOp(LIRInstr):
    op: str = ""  # + - * / % & | ^ << >>
    lhs: Operand = -1
    rhs: Operand = -1
    is_float: bool = False

    def operands(self):
        return (self.lhs, self.rhs)

    def replace_operands(self, mapping):
        self.lhs = _map_op(self.lhs, mapping)
        self.rhs = _map_op(self.rhs, mapping)

    @property
    def has_side_effects(self):
        # Integer division/modulo can trap on zero.
        return self.op in ("/", "%") and not self.is_float


@dataclass
class Cmp(LIRInstr):
    pred: str = ""  # == != < <= > >=
    lhs: Operand = -1
    rhs: Operand = -1
    operand_is_float: bool = False

    def operands(self):
        return (self.lhs, self.rhs)

    def replace_operands(self, mapping):
        self.lhs = _map_op(self.lhs, mapping)
        self.rhs = _map_op(self.rhs, mapping)


@dataclass
class Neg(LIRInstr):
    value: Operand = -1
    is_float: bool = False

    def operands(self):
        return (self.value,)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)


@dataclass
class Not(LIRInstr):
    """Boolean not (input is 0/1)."""

    value: Operand = -1

    def operands(self):
        return (self.value,)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)


@dataclass
class Convert(LIRInstr):
    kind: str = ""  # int_to_double | double_to_int
    value: Operand = -1

    def operands(self):
        return (self.value,)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)


@dataclass
class PtrAdd(LIRInstr):
    base: Operand = -1
    offset: Operand = -1  # byte offset

    def operands(self):
        return (self.base, self.offset)

    def replace_operands(self, mapping):
        self.base = _map_op(self.base, mapping)
        self.offset = _map_op(self.offset, mapping)


@dataclass
class GlobalAddr(LIRInstr):
    symbol: str = ""


@dataclass
class FuncAddr(LIRInstr):
    symbol: str = ""


@dataclass
class Call(LIRInstr):
    """Direct (``callee`` is a symbol) or indirect (``callee_value``) call.

    ``throws`` marks the Swift error convention: the callee writes the error
    register (0 = success, code+1 on throw); the caller reads it back with
    :class:`ReadError`.
    """

    callee: str = ""
    callee_value: Optional[Operand] = None
    args: List[Operand] = field(default_factory=list)
    throws: bool = False
    ret_is_float: bool = False
    arg_is_float: Tuple[bool, ...] = ()

    def operands(self):
        ops = tuple(self.args)
        if self.callee_value is not None:
            ops = (self.callee_value,) + ops
        return ops

    def replace_operands(self, mapping):
        self.args = [_map_op(a, mapping) for a in self.args]
        if self.callee_value is not None:
            self.callee_value = _map_op(self.callee_value, mapping)

    @property
    def has_side_effects(self):
        return True


@dataclass
class ReadError(LIRInstr):
    """Read the error register after a throwing call (raw, 0 = success)."""

    @property
    def has_side_effects(self):
        return True  # ordering against calls matters


@dataclass
class SetError(LIRInstr):
    """Write the error register (callee side)."""

    value: Operand = -1

    def operands(self):
        return (self.value,)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)

    @property
    def has_side_effects(self):
        return True


@dataclass
class Phi(LIRInstr):
    """SSA phi: ``incomings`` maps predecessor label -> operand."""

    incomings: List[Tuple[str, Operand]] = field(default_factory=list)
    is_float: bool = False

    def operands(self):
        return tuple(op for _, op in self.incomings)

    def replace_operands(self, mapping):
        self.incomings = [(lbl, _map_op(op, mapping))
                          for lbl, op in self.incomings]


@dataclass
class Copy(LIRInstr):
    """Register copy introduced by out-of-SSA translation."""

    value: Operand = -1
    is_float: bool = False

    def operands(self):
        return (self.value,)

    def replace_operands(self, mapping):
        self.value = _map_op(self.value, mapping)


# --- Terminators ---------------------------------------------------------------


@dataclass
class TermInstr(LIRInstr):
    @property
    def has_side_effects(self):
        return True


@dataclass
class Br(TermInstr):
    target: str = ""


@dataclass
class CondBr(TermInstr):
    cond: Operand = -1
    true_target: str = ""
    false_target: str = ""

    def operands(self):
        return (self.cond,)

    def replace_operands(self, mapping):
        self.cond = _map_op(self.cond, mapping)


@dataclass
class Ret(TermInstr):
    value: Optional[Operand] = None
    is_float: bool = False

    def operands(self):
        return (self.value,) if self.value is not None else ()

    def replace_operands(self, mapping):
        if self.value is not None:
            self.value = _map_op(self.value, mapping)


@dataclass
class Trap(TermInstr):
    reason: str = "trap"


@dataclass
class Unreachable(TermInstr):
    pass


# --- Containers -----------------------------------------------------------------


@dataclass
class LIRBlock:
    label: str
    instrs: List[LIRInstr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[TermInstr]:
        if self.instrs and isinstance(self.instrs[-1], TermInstr):
            return self.instrs[-1]
        return None

    def successors(self) -> List[str]:
        term = self.terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            return [term.true_target, term.false_target]
        return []

    def phis(self) -> List[Phi]:
        out = []
        for instr in self.instrs:
            if isinstance(instr, Phi):
                out.append(instr)
            else:
                break
        return out


@dataclass
class LIRFunction:
    symbol: str
    params: List[Value] = field(default_factory=list)
    param_is_float: List[bool] = field(default_factory=list)
    ret_is_float: bool = False
    has_return_value: bool = False
    throws: bool = False
    blocks: List[LIRBlock] = field(default_factory=list)
    source_module: str = ""
    next_value: Value = 0

    def new_value(self) -> Value:
        value = self.next_value
        self.next_value += 1
        return value

    def block(self, label: str) -> LIRBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise LIRError(f"no block {label!r} in {self.symbol}")

    def new_block(self, label: str) -> LIRBlock:
        if any(b.label == label for b in self.blocks):
            raise LIRError(f"duplicate block {label!r} in {self.symbol}")
        blk = LIRBlock(label)
        self.blocks.append(blk)
        return blk

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {blk.label: [] for blk in self.blocks}
        for blk in self.blocks:
            for succ in blk.successors():
                preds[succ].append(blk.label)
        return preds

    @property
    def entry(self) -> LIRBlock:
        return self.blocks[0]

    @property
    def num_instrs(self) -> int:
        return sum(len(b.instrs) for b in self.blocks)

    def instructions(self) -> Iterable[LIRInstr]:
        for blk in self.blocks:
            yield from blk.instrs

    def render(self) -> str:
        lines = [f"define @{self.symbol}({', '.join(f'%{p}' for p in self.params)})"
                 f"{' throws' if self.throws else ''} "
                 f"[module {self.source_module or '?'}]"]
        for blk in self.blocks:
            lines.append(f"{blk.label}:")
            for instr in blk.instrs:
                res = f"%{instr.result} = " if instr.result is not None else ""
                kind = type(instr).__name__
                fields_ = {k: v for k, v in vars(instr).items() if k != "result"}
                lines.append(f"    {res}{kind} {fields_}")
        return "\n".join(lines)


@dataclass
class LIRGlobal:
    """A data-section global.

    ``is_object``: the symbol names a statically allocated heap-shaped object
    (const array / string literal); otherwise it is a raw 8-byte slot.
    ``origin_module`` drives the data-layout-preserving link mode (§VI-3).
    """

    symbol: str
    init: object  # int | float | str | list
    is_object: bool = False
    elem_is_float: bool = False
    origin_module: str = ""
    is_const: bool = True


@dataclass
class LIRModule:
    name: str
    functions: List[LIRFunction] = field(default_factory=list)
    globals: List[LIRGlobal] = field(default_factory=list)
    #: Module metadata flags; the GC metadata entry reproduces the Section
    #: VI-2 llvm-link conflict.  Keys -> arbitrary values.
    metadata: Dict[str, object] = field(default_factory=dict)
    entry_symbol: Optional[str] = None

    def function(self, symbol: str) -> LIRFunction:
        for fn in self.functions:
            if fn.symbol == symbol:
                return fn
        raise LIRError(f"no function {symbol!r} in LIR module {self.name}")

    @property
    def num_instrs(self) -> int:
        return sum(fn.num_instrs for fn in self.functions)
