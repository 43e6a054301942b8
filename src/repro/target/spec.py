"""`TargetSpec`: everything the pipeline needs to know about one target.

The paper leans on an AArch64 property — "the saving is computed based on
the number of instructions, which is fixed-width in AArch64" — and the
original reproduction baked that assumption into every layer.  This module
is the single place those facts now live:

* the **register file** and **calling convention** the backend emits
  against (argument/return/error/callee-saved/scratch registers);
* the **instruction width model** — fixed-width (AArch64-style) or
  compressed (Thumb-2-style, per-instruction 2/4 bytes) — which every
  byte-size computation (outliner cost model, linker layout, verifier,
  simulator fetch) must consult instead of multiplying by 4;
* the **outlining overheads** (call/tail-call/return/LR-frame bytes),
  derived from the width model on the exact instructions the outliner
  materialises, so the cost model can never disagree with the linker;
* **function alignment** and per-function **metadata bytes** (symbol table
  entry + compact unwind info).

Specs are frozen and hashable; :meth:`TargetSpec.fingerprint` folds every
size-relevant field into the build-cache keys so a target switch can never
hit a stale cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Tuple

from repro.errors import BackendError
from repro.isa.instructions import (
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
)


@dataclass(frozen=True)
class RegisterFile:
    """The physical registers a target exposes to the backend."""

    gprs: Tuple[str, ...]
    fprs: Tuple[str, ...]
    sp: str
    zero: str
    fp: str
    lr: str


@dataclass(frozen=True)
class CallingConvention:
    """Argument/return/error/saved/scratch register assignments."""

    arg_gprs: Tuple[str, ...]
    arg_fprs: Tuple[str, ...]
    ret_gpr: str
    ret_fpr: str
    #: Swift-style error register (a throwing callee reports here).
    error_reg: str
    callee_saved_gprs: Tuple[str, ...]
    callee_saved_fprs: Tuple[str, ...]
    caller_saved_gprs: Tuple[str, ...]
    caller_saved_fprs: Tuple[str, ...]
    allocatable_gprs: Tuple[str, ...]
    allocatable_fprs: Tuple[str, ...]
    scratch_gprs: Tuple[str, ...]
    scratch_fprs: Tuple[str, ...]
    max_reg_args: int = 8

    def assign_arg_registers(self,
                             arg_is_float: Tuple[bool, ...]) -> List[str]:
        """Argument registers for a call, AAPCS64-style (separate int/fp
        pools)."""
        gprs = iter(self.arg_gprs)
        fprs = iter(self.arg_fprs)
        out: List[str] = []
        for is_float in arg_is_float:
            try:
                out.append(next(fprs) if is_float else next(gprs))
            except StopIteration:
                raise BackendError(
                    f"more than {self.max_reg_args} arguments of one class "
                    "are not supported (no stack-argument lowering)") from None
        return out

    def is_callee_saved(self, reg: str) -> bool:
        return reg in self.callee_saved_gprs or reg in self.callee_saved_fprs


@dataclass(frozen=True)
class WidthModel:
    """Per-instruction encoding width.

    ``narrow_opcodes`` empty means fixed width (every instruction is
    ``default_bytes``).  Otherwise an instruction encodes narrow
    (``narrow_bytes``) when its opcode is in the narrow set, none of its
    operands is a symbol reference (symbolic targets need full-range
    encodings), and every integer immediate fits ``narrow_imm_limit`` —
    the Thumb-2 shape: common ALU/branch forms have 16-bit encodings with
    small immediates, everything else takes the 32-bit encoding.
    """

    default_bytes: int = 4
    narrow_bytes: int = 2
    narrow_opcodes: FrozenSet[Opcode] = frozenset()
    narrow_imm_limit: int = 256

    @property
    def is_fixed(self) -> bool:
        return not self.narrow_opcodes

    def instr_bytes(self, instr: MachineInstr) -> int:
        if not self.narrow_opcodes:
            return self.default_bytes
        if instr.opcode not in self.narrow_opcodes:
            return self.default_bytes
        for op in instr.operands:
            if isinstance(op, Sym):
                return self.default_bytes
            if isinstance(op, int) and not isinstance(op, bool):
                if abs(op) >= self.narrow_imm_limit:
                    return self.default_bytes
        return self.narrow_bytes

    def fingerprint_parts(self) -> Tuple[str, ...]:
        # frozenset iteration order is not stable across processes (enum
        # hashes are id-based); sort by opcode name for a stable digest.
        names = ",".join(sorted(op.name for op in self.narrow_opcodes))
        return (f"w={self.default_bytes}/{self.narrow_bytes}",
                f"imm<{self.narrow_imm_limit}", f"narrow:{names}")


@dataclass(frozen=True)
class TargetSpec:
    """A complete, frozen description of one compilation target."""

    name: str
    description: str
    regs: RegisterFile
    cc: CallingConvention
    widths: WidthModel
    #: Functions are laid out at this alignment in __text; the linker
    #: inserts padding and the verifier rejects misaligned extents.
    function_alignment: int = 4
    #: Per-function non-code overhead carried into the final binary
    #: (symbol table entry + compact unwind info).
    function_metadata_bytes: int = 32

    # -- width helpers (ALL byte-size math goes through these) --------------

    def instr_bytes(self, instr: MachineInstr) -> int:
        return self.widths.instr_bytes(instr)

    def seq_bytes(self, instrs: Iterable[MachineInstr]) -> int:
        return sum(self.widths.instr_bytes(i) for i in instrs)

    def align_up(self, size: int) -> int:
        rem = size % self.function_alignment
        return size + (self.function_alignment - rem) if rem else size

    def function_body_bytes(self, fn: MachineFunction) -> int:
        """Unaligned __text bytes of one function's instructions."""
        return self.seq_bytes(fn.instructions())

    def function_text_bytes(self, fn: MachineFunction) -> int:
        """__text bytes contributed by one function (alignment included)."""
        return self.align_up(self.function_body_bytes(fn))

    def total_text_bytes(self, functions: Iterable[MachineFunction]) -> int:
        return sum(self.function_text_bytes(fn) for fn in functions)

    def total_metadata_bytes(self,
                             functions: Iterable[MachineFunction]) -> int:
        return sum(self.function_metadata_bytes for _ in functions)

    @property
    def min_instr_bytes(self) -> int:
        return (self.widths.default_bytes if self.widths.is_fixed
                else min(self.widths.default_bytes, self.widths.narrow_bytes))

    # -- outlining overheads -------------------------------------------------
    #
    # Derived from the width model applied to the *exact* instructions the
    # outliner materialises, so the cost model prices what the linker lays
    # out.  ``call_site_alignment_slack`` makes the model conservative on
    # variable-width targets: shrinking a caller can leave up to
    # (alignment - min width) bytes of new padding behind, so each call
    # site is billed that worst case up front — a candidate the model
    # accepts therefore can never grow the padded text section.

    @cached_property
    def outline_call_bytes(self) -> int:
        """Bytes of the ``BL OUTLINED_FUNCTION_N`` inserted per call site."""
        return self.instr_bytes(MachineInstr(Opcode.BL, (Sym("f"),)))

    @cached_property
    def outline_tail_call_bytes(self) -> int:
        """Bytes of the ``B callee`` used by tail-call sites/thunk tails."""
        return self.instr_bytes(MachineInstr(Opcode.B, (Sym("f"),)))

    @cached_property
    def outline_ret_bytes(self) -> int:
        return self.instr_bytes(MachineInstr(Opcode.RET))

    @cached_property
    def outline_lr_save_bytes(self) -> int:
        return self.instr_bytes(
            MachineInstr(Opcode.STRXpre, (self.regs.lr, self.regs.sp, -16)))

    @cached_property
    def outline_lr_restore_bytes(self) -> int:
        return self.instr_bytes(
            MachineInstr(Opcode.LDRXpost, (self.regs.lr, self.regs.sp, 16)))

    @property
    def call_site_alignment_slack(self) -> int:
        if self.widths.is_fixed:
            return 0
        return max(0, self.function_alignment - self.min_instr_bytes)

    # -- identity ------------------------------------------------------------

    @cached_property
    def _fingerprint(self) -> str:
        h = hashlib.sha256()
        parts = [
            self.name,
            f"align={self.function_alignment}",
            f"meta={self.function_metadata_bytes}",
            *self.widths.fingerprint_parts(),
            "gprs=" + ",".join(self.regs.gprs),
            "fprs=" + ",".join(self.regs.fprs),
            f"sp={self.regs.sp};zero={self.regs.zero};"
            f"fp={self.regs.fp};lr={self.regs.lr}",
            "arg=" + ",".join(self.cc.arg_gprs + self.cc.arg_fprs),
            f"ret={self.cc.ret_gpr},{self.cc.ret_fpr};err={self.cc.error_reg}",
            "cs=" + ",".join(self.cc.callee_saved_gprs
                             + self.cc.callee_saved_fprs),
            "alloc=" + ",".join(self.cc.allocatable_gprs
                                + self.cc.allocatable_fprs),
            "scratch=" + ",".join(self.cc.scratch_gprs
                                  + self.cc.scratch_fprs),
        ]
        for part in parts:
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def fingerprint(self) -> str:
        """Stable digest of every size-relevant field (cache-key input)."""
        return self._fingerprint

    @property
    def is_fixed_width(self) -> bool:
        return self.widths.is_fixed
