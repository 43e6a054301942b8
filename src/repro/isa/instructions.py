"""Machine-IR for the AArch64-like target.

This module defines the post-instruction-selection representation that the
register allocator, frame lowering, the MachineOutliner, the linker, and the
interpreter all operate on.  It deliberately mirrors LLVM MIR:

* fixed-width 4-byte instructions (AArch64 property the paper leans on for
  its byte accounting);
* explicit operands (destination first) plus *implicit* operand lists used
  at call sites, exactly like LLVM's implicit-use/def annotations;
* immutable instructions with one exact identity, :meth:`MachineInstr.key`
  (opcode, operands and implicit operand lists, with a float compared by
  its bit pattern), the analog of ``MachineInstr::isIdenticalTo`` used by
  LLVM's outliner mapper.  Equal instructions can therefore be one shared
  object (:func:`intern_instrs`).

The opcode names follow AArch64 MIR spellings (``ORRXrs``, ``STPXpre`` ...)
so that mined patterns read like the paper's Listings 1-8.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.isa.registers import LR, SP, XZR

INSTR_BYTES = 4  # fixed-width encoding

# --- Operand kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Sym:
    """A reference to a linker-visible symbol (function or global)."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"@{self.name}"


@dataclass(frozen=True)
class Label:
    """A function-local basic-block label."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"%{self.name}"


class Cond(Enum):
    """Condition codes consumed by ``Bcc`` and ``CSETXi``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    HS = "hs"  # unsigned >= (used by inline array bounds checks)
    LO = "lo"  # unsigned <

    # Members are singletons compared by identity: hash them the same way,
    # in C, instead of through Enum's Python-level hash of the name.
    __hash__ = object.__hash__

    def negate(self) -> "Cond":
        return _NEGATE[self]


_NEGATE = {
    Cond.EQ: Cond.NE,
    Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE,
    Cond.GE: Cond.LT,
    Cond.GT: Cond.LE,
    Cond.LE: Cond.GT,
    Cond.HS: Cond.LO,
    Cond.LO: Cond.HS,
}

Operand = Union[str, int, float, Sym, Label, Cond]

NZCV = "nzcv"  # pseudo-register for the condition flags


class Opcode(Enum):
    """Supported machine opcodes (an AArch64 subset)."""

    # Integer moves / constants
    MOVZXi = "MOVZXi"      # dst, imm16, shift       dst = imm << shift
    MOVKXi = "MOVKXi"      # dst, imm16, shift       dst[shift+15:shift] = imm
    MOVNXi = "MOVNXi"      # dst, imm16, shift       dst = ~(imm << shift)
    ORRXrs = "ORRXrs"      # dst, a, b               dst = a | b  (MOV when a == xzr)

    # Integer arithmetic / logic
    ADDXri = "ADDXri"      # dst, src, imm
    ADDXrr = "ADDXrr"      # dst, a, b
    SUBXri = "SUBXri"      # dst, src, imm
    SUBXrr = "SUBXrr"      # dst, a, b
    SUBSXri = "SUBSXri"    # dst, src, imm           also sets nzcv
    SUBSXrr = "SUBSXrr"    # dst, a, b               also sets nzcv
    MADDXrrr = "MADDXrrr"  # dst, a, b, acc          dst = a*b + acc
    MSUBXrrr = "MSUBXrrr"  # dst, a, b, acc          dst = acc - a*b
    SDIVXrr = "SDIVXrr"    # dst, a, b
    ANDXrr = "ANDXrr"      # dst, a, b
    EORXrr = "EORXrr"      # dst, a, b
    LSLVXrr = "LSLVXrr"    # dst, a, b
    LSRVXrr = "LSRVXrr"    # dst, a, b
    ASRVXrr = "ASRVXrr"    # dst, a, b
    CSETXi = "CSETXi"      # dst, cond               reads nzcv

    # Address materialisation (global symbols take the classic 2-instr pair)
    ADRP = "ADRP"          # dst, sym                dst = page(sym)
    ADDlo = "ADDlo"        # dst, src, sym           dst = src + pageoff(sym)

    # Integer memory
    LDRXui = "LDRXui"      # dst, base, imm          load 8 bytes [base+imm]
    STRXui = "STRXui"      # src, base, imm
    LDRXroX = "LDRXroX"    # dst, base, idx          load 8 bytes [base + idx*8]
    STRXroX = "STRXroX"    # src, base, idx
    LDPXi = "LDPXi"        # r1, r2, base, imm
    STPXi = "STPXi"        # r1, r2, base, imm
    STPXpre = "STPXpre"    # r1, r2, base, imm       pre-index writeback (push pair)
    LDPXpost = "LDPXpost"  # r1, r2, base, imm       post-index writeback (pop pair)
    STRXpre = "STRXpre"    # r, base, imm            pre-index writeback (push one)
    LDRXpost = "LDRXpost"  # r, base, imm            post-index writeback (pop one)

    # Floating point
    FMOVDr = "FMOVDr"      # dst, src
    FMOVDi = "FMOVDi"      # dst, imm(float)
    FADDDrr = "FADDDrr"
    FSUBDrr = "FSUBDrr"
    FMULDrr = "FMULDrr"
    FDIVDrr = "FDIVDrr"
    FSQRTDr = "FSQRTDr"    # dst, src
    FNEGDr = "FNEGDr"      # dst, src
    FCMPDrr = "FCMPDrr"    # a, b                    sets nzcv
    SCVTFDX = "SCVTFDX"    # dstD, srcX              int -> double
    FCVTZSXD = "FCVTZSXD"  # dstX, srcD              double -> int (truncating)
    LDRDui = "LDRDui"      # dst, base, imm
    STRDui = "STRDui"      # src, base, imm
    LDRDroX = "LDRDroX"    # dst, base, idx          [base + idx*8]
    STRDroX = "STRDroX"    # src, base, idx

    # Control flow
    B = "B"                # label-or-sym            unconditional (sym = tail call)
    Bcc = "Bcc"            # cond, label
    CBZX = "CBZX"          # reg, label
    CBNZX = "CBNZX"        # reg, label
    BL = "BL"              # sym                     call, defines lr
    BLR = "BLR"            # reg                     indirect call, defines lr
    RET = "RET"            # implicit use of lr
    BRK = "BRK"            # imm                     trap
    NOP = "NOP"

    # Hashed by identity, like Cond: every keyed table of opcodes or of
    # instruction keys probes without a Python-level call.
    __hash__ = object.__hash__


# (def operand indices, use operand indices) for explicit operands.
_DEF_USE: Dict[Opcode, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {
    Opcode.MOVZXi: ((0,), ()),
    Opcode.MOVKXi: ((0,), (0,)),
    Opcode.MOVNXi: ((0,), ()),
    Opcode.ORRXrs: ((0,), (1, 2)),
    Opcode.ADDXri: ((0,), (1,)),
    Opcode.ADDXrr: ((0,), (1, 2)),
    Opcode.SUBXri: ((0,), (1,)),
    Opcode.SUBXrr: ((0,), (1, 2)),
    Opcode.SUBSXri: ((0,), (1,)),
    Opcode.SUBSXrr: ((0,), (1, 2)),
    Opcode.MADDXrrr: ((0,), (1, 2, 3)),
    Opcode.MSUBXrrr: ((0,), (1, 2, 3)),
    Opcode.SDIVXrr: ((0,), (1, 2)),
    Opcode.ANDXrr: ((0,), (1, 2)),
    Opcode.EORXrr: ((0,), (1, 2)),
    Opcode.LSLVXrr: ((0,), (1, 2)),
    Opcode.LSRVXrr: ((0,), (1, 2)),
    Opcode.ASRVXrr: ((0,), (1, 2)),
    Opcode.CSETXi: ((0,), ()),
    Opcode.ADRP: ((0,), ()),
    Opcode.ADDlo: ((0,), (1,)),
    Opcode.LDRXui: ((0,), (1,)),
    Opcode.STRXui: ((), (0, 1)),
    Opcode.LDRXroX: ((0,), (1, 2)),
    Opcode.STRXroX: ((), (0, 1, 2)),
    Opcode.LDPXi: ((0, 1), (2,)),
    Opcode.STPXi: ((), (0, 1, 2)),
    Opcode.STPXpre: ((2,), (0, 1, 2)),
    Opcode.LDPXpost: ((0, 1, 2), (2,)),
    Opcode.STRXpre: ((1,), (0, 1)),
    Opcode.LDRXpost: ((0, 1), (1,)),
    Opcode.FMOVDr: ((0,), (1,)),
    Opcode.FMOVDi: ((0,), ()),
    Opcode.FADDDrr: ((0,), (1, 2)),
    Opcode.FSUBDrr: ((0,), (1, 2)),
    Opcode.FMULDrr: ((0,), (1, 2)),
    Opcode.FDIVDrr: ((0,), (1, 2)),
    Opcode.FSQRTDr: ((0,), (1,)),
    Opcode.FNEGDr: ((0,), (1,)),
    Opcode.FCMPDrr: ((), (0, 1)),
    Opcode.SCVTFDX: ((0,), (1,)),
    Opcode.FCVTZSXD: ((0,), (1,)),
    Opcode.LDRDui: ((0,), (1,)),
    Opcode.STRDui: ((), (0, 1)),
    Opcode.LDRDroX: ((0,), (1, 2)),
    Opcode.STRDroX: ((), (0, 1, 2)),
    Opcode.B: ((), ()),
    Opcode.Bcc: ((), ()),
    Opcode.CBZX: ((), (0,)),
    Opcode.CBNZX: ((), (0,)),
    Opcode.BL: ((), ()),
    Opcode.BLR: ((), (0,)),
    Opcode.RET: ((), ()),
    Opcode.BRK: ((), ()),
    Opcode.NOP: ((), ()),
}

_SETS_FLAGS = {Opcode.SUBSXri, Opcode.SUBSXrr, Opcode.FCMPDrr}
_READS_FLAGS = {Opcode.CSETXi, Opcode.Bcc}
_TERMINATORS = {Opcode.B, Opcode.Bcc, Opcode.CBZX, Opcode.CBNZX, Opcode.RET, Opcode.BRK}
_CALLS = {Opcode.BL, Opcode.BLR}


def float_bits(value: float) -> bytes:
    """A float's IEEE-754 bit pattern: ``-0.0`` and ``0.0`` differ."""
    return struct.pack(">d", value)


def _exact_operand(op: Operand) -> object:
    if op.__class__ is float:
        return ("f", float_bits(op))
    if op.__class__ is bool:
        return ("b", op)
    return op


@dataclass(frozen=True, eq=False)
class MachineInstr:
    """A single machine instruction, immutable.

    ``implicit_uses`` / ``implicit_defs`` carry the call-site register
    conventions (argument registers used, return register defined) in the
    same way LLVM MIR annotates calls; they participate in liveness and in
    outlining pattern identity.

    Equal instructions may be one shared object (an interned module or
    image holds one object per distinct :meth:`key`), which is why no
    field can be assigned: a rewrite builds a new instruction with
    :func:`dataclasses.replace` and stores it at the one index it changes.
    """

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    implicit_uses: Tuple[str, ...] = ()
    implicit_defs: Tuple[str, ...] = ()

    # -- identity -------------------------------------------------------

    def key(self) -> Tuple:
        """Exact identity: equal keys mean the same instruction.

        A float operand compares by its bit pattern and a bool is tagged,
        so ``-0.0`` and ``0.0`` differ and ``1``, ``1.0`` and ``True``
        never compare equal, which plain tuple equality would fold.
        """
        ops = self.operands
        for op in ops:
            cls = op.__class__
            if cls is float or cls is bool:
                ops = tuple(map(_exact_operand, ops))
                break
        return (self.opcode, ops, self.implicit_uses, self.implicit_defs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MachineInstr:
            return NotImplemented
        return self is other or self.key() == other.key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self.key())

    def __getstate__(self) -> Dict[str, object]:
        # The four fields only: the register facts cached below are derived,
        # so no pickle or copy carries them.
        return {"opcode": self.opcode, "operands": self.operands,
                "implicit_uses": self.implicit_uses,
                "implicit_defs": self.implicit_defs}

    # -- operand classification ------------------------------------------

    # Register facts, computed by the first defs() or uses() call and then
    # stored on the instance.  They are not fields (unannotated), so they
    # are never compared, hashed or pickled.  An instruction is immutable,
    # so they never go stale; most are never asked, so construction does
    # not compute them.
    _defs = None
    _uses = None

    def defs(self) -> Tuple[str, ...]:
        """Registers (incl. nzcv) written by this instruction."""
        defs = self._defs
        if defs is None:
            defs = self._register_facts()[0]
        return defs

    def uses(self) -> Tuple[str, ...]:
        """Registers (incl. nzcv) read by this instruction."""
        uses = self._uses
        if uses is None:
            uses = self._register_facts()[1]
        return uses

    def _register_facts(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        opcode, operands = self.opcode, self.operands
        def_idxs, use_idxs = _DEF_USE[opcode]
        defs = [operands[i] for i in def_idxs if isinstance(operands[i], str)]
        defs.extend(self.implicit_defs)
        if opcode in _SETS_FLAGS:
            defs.append(NZCV)
        if opcode in _CALLS:
            defs.append(LR)
        uses = [operands[i] for i in use_idxs if isinstance(operands[i], str)]
        uses.extend(self.implicit_uses)
        if opcode in _READS_FLAGS:
            uses.append(NZCV)
        if opcode is Opcode.RET:
            uses.append(LR)
        facts = (tuple(r for r in defs if r != XZR),
                 tuple(r for r in uses if r != XZR))
        object.__setattr__(self, "_defs", facts[0])
        object.__setattr__(self, "_uses", facts[1])
        return facts

    # -- predicates -------------------------------------------------------

    @property
    def is_call(self) -> bool:
        return self.opcode in _CALLS

    @property
    def is_terminator(self) -> bool:
        return self.opcode in _TERMINATORS or self.is_tail_call

    @property
    def is_return(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_tail_call(self) -> bool:
        return self.opcode is Opcode.B and self.operands and isinstance(self.operands[0], Sym)

    def reads_sp(self) -> bool:
        return SP in self.uses()

    def writes_sp(self) -> bool:
        return SP in self.defs()

    def touches_lr(self) -> bool:
        """True if the instruction explicitly names the link register.

        Calls implicitly define LR; this predicate is about *explicit* LR
        operands (e.g. a prologue ``STPXpre x29, x30, ...``), which make a
        sequence illegal to outline.
        """
        explicit = [op for op in self.operands if isinstance(op, str)]
        return LR in explicit

    def branch_target(self) -> Optional[str]:
        """Name of the local label this instruction branches to, if any."""
        for op in self.operands:
            if isinstance(op, Label):
                return op.name
        return None

    def callee(self) -> Optional[str]:
        """Symbol name of the direct callee for BL / tail-call B."""
        if self.opcode is Opcode.BL or self.is_tail_call:
            op = self.operands[0]
            if isinstance(op, Sym):
                return op.name
        return None

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """Assembly-like textual form (for logs and pattern reports)."""
        def fmt(op: Operand) -> str:
            if isinstance(op, str):
                return f"${op}"
            if isinstance(op, Sym):
                return f"@{op.name}"
            if isinstance(op, Label):
                return f"%{op.name}"
            if isinstance(op, Cond):
                return op.value
            return repr(op)

        ops = ", ".join(fmt(op) for op in self.operands)
        return f"{self.opcode.value} {ops}".rstrip()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MI {self.render()}>"


@dataclass
class MachineBlock:
    """A basic block: straight-line instructions ending in terminator(s)."""

    label: str
    instrs: List[MachineInstr] = field(default_factory=list)

    def append(self, instr: MachineInstr) -> None:
        self.instrs.append(instr)

    def successors(self) -> List[str]:
        """Labels of blocks this block can branch to (fallthrough excluded)."""
        out = []
        for instr in self.instrs:
            target = instr.branch_target()
            if target is not None:
                out.append(target)
        return out

    def falls_through(self) -> bool:
        """True if control can reach the next block in layout order."""
        if not self.instrs:
            return True
        last = self.instrs[-1]
        if last.opcode in (Opcode.B, Opcode.RET, Opcode.BRK) or last.is_tail_call:
            return False
        return True


@dataclass
class MachineFunction:
    """A machine function: ordered blocks plus frame/linkage metadata."""

    name: str
    blocks: List[MachineBlock] = field(default_factory=list)
    source_module: str = ""
    is_outlined: bool = False
    outline_round: int = 0
    num_spill_slots: int = 0
    #: Frame size in bytes reserved below the fp/lr pair (filled by frame lowering).
    frame_bytes: int = 0

    def block(self, label: str) -> MachineBlock:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block {label!r} in {self.name}")

    def new_block(self, label: str) -> MachineBlock:
        blk = MachineBlock(label)
        self.blocks.append(blk)
        return blk

    def instructions(self) -> Iterable[MachineInstr]:
        for blk in self.blocks:
            yield from blk.instrs

    @property
    def num_instrs(self) -> int:
        return sum(len(blk.instrs) for blk in self.blocks)

    def render(self) -> str:
        lines = [f"define @{self.name} (module {self.source_module or '?'}):"]
        for blk in self.blocks:
            lines.append(f"{blk.label}:")
            lines.extend(f"    {i.render()}" for i in blk.instrs)
        return "\n".join(lines)


@dataclass
class MachineGlobal:
    """A data-section global carried through to the final binary.

    ``values`` is the logical initialiser: a list of words (scalar slot or
    array payload) or a ``str`` (string object).  ``is_object`` marks
    statically allocated heap-shaped objects (const arrays / string
    literals), which get an immortal object header in the data section.
    ``origin_module`` records which source module defined it, which is what
    the data-layout-preserving llvm-link mode keys on (Section VI-3).
    """

    name: str
    values: Union[List[Union[int, float]], str]
    origin_module: str = ""
    is_const: bool = False
    is_object: bool = False
    elem_is_float: bool = False


@dataclass
class MachineModule:
    """A compiled object file: functions plus data globals."""

    name: str
    functions: List[MachineFunction] = field(default_factory=list)
    globals: List[MachineGlobal] = field(default_factory=list)

    def function(self, name: str) -> MachineFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in module {self.name}")

    @property
    def num_instrs(self) -> int:
        return sum(fn.num_instrs for fn in self.functions)


def intern_instrs(functions: Iterable[MachineFunction]) -> None:
    """Point every instruction of *functions* at one shared object per
    distinct :meth:`MachineInstr.key`.

    The table lives for this call only: a table kept for the process would
    grow for the life of a build daemon.  ``pickle`` writes a shared object
    once, so an interned module is also a smaller cache entry.
    """
    table: Dict[Tuple, MachineInstr] = {}
    for fn in functions:
        for blk in fn.blocks:
            blk.instrs[:] = [table.setdefault(instr.key(), instr)
                             for instr in blk.instrs]


def mov_rr(dst: str, src: str) -> MachineInstr:
    """The canonical AArch64 register move: ``ORRXrs dst, xzr, src``."""
    return MachineInstr(Opcode.ORRXrs, (dst, XZR, src))


def is_mov_rr(instr: MachineInstr) -> bool:
    return instr.opcode is Opcode.ORRXrs and instr.operands[1] == XZR


def materialize_constant(dst: str, value: int) -> List[MachineInstr]:
    """Materialise a 64-bit constant with MOVZ/MOVK/MOVN chunks.

    Mirrors AArch64 constant islands: small constants take one instruction;
    wide ones take up to four.  This is one of the mundane sources of
    repeated short sequences the paper observes.
    """
    value &= (1 << 64) - 1
    # Prefer MOVN for values that are mostly ones (small negatives).
    inverted = value ^ ((1 << 64) - 1)
    if _count_nonzero_halfwords(inverted) < _count_nonzero_halfwords(value):
        out = []
        first = True
        for shift in range(0, 64, 16):
            chunk = (inverted >> shift) & 0xFFFF
            if chunk == 0 and not (first and shift == 48):
                continue
            if first:
                out.append(MachineInstr(Opcode.MOVNXi, (dst, chunk, shift)))
                first = False
            else:
                out.append(
                    MachineInstr(Opcode.MOVKXi, (dst, (value >> shift) & 0xFFFF, shift))
                )
        if not out:
            out.append(MachineInstr(Opcode.MOVNXi, (dst, 0, 0)))
        return out

    out = []
    first = True
    for shift in range(0, 64, 16):
        chunk = (value >> shift) & 0xFFFF
        if chunk == 0 and not first:
            continue
        if chunk == 0 and first and shift < 48:
            continue
        if first:
            out.append(MachineInstr(Opcode.MOVZXi, (dst, chunk, shift)))
            first = False
        else:
            out.append(MachineInstr(Opcode.MOVKXi, (dst, chunk, shift)))
    if not out:
        out.append(MachineInstr(Opcode.MOVZXi, (dst, 0, 0)))
    return out


def _count_nonzero_halfwords(value: int) -> int:
    return sum(1 for shift in range(0, 64, 16) if (value >> shift) & 0xFFFF)
