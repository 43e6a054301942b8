"""Instruction selection: LIR (post phi-elimination) -> machine IR.

Emits virtual-register machine code in the shapes that make the paper's
patterns appear after register allocation:

* calls set up arguments with ``ORRXrs`` moves into ``x0..x7`` (the
  calling-convention shuffles of Listings 1-2) and ``BL``;
* global addresses take the classic ``ADRP`` + ``ADDlo`` pair;
* compare-and-branch fuses into ``SUBS`` + ``B.cc`` when adjacent;
* inline array bounds checks lower to header load + ``SUBS`` + ``B.hs``.

Simple single-use folding merges ``PtrAdd`` into ``ui``-form load/store
offsets and ``(base + (idx << 3))`` addressing into ``roX`` forms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BackendError
from repro.isa.instructions import (
    Cond,
    Label,
    MachineBlock,
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
    materialize_constant,
    mov_rr,
)
from repro.lir import ir
from repro.target import get_target
from repro.target.spec import TargetSpec

_CMP_COND = {
    "==": Cond.EQ,
    "!=": Cond.NE,
    "<": Cond.LT,
    "<=": Cond.LE,
    ">": Cond.GT,
    ">=": Cond.GE,
    "u>=": Cond.HS,
    "u<": Cond.LO,
}

_TRAP_CODES = {"bounds": 1, "assert": 2, "div": 3, "trap": 4, "unreachable": 0}


def compute_value_classes(fn: ir.LIRFunction) -> Dict[int, bool]:
    """Map each LIR value to True if it lives in a float register."""
    is_float: Dict[int, bool] = {}
    for value, flt in zip(fn.params, fn.param_is_float):
        is_float[value] = flt
    for blk in fn.blocks:
        for instr in blk.instrs:
            if instr.result is None:
                continue
            flt = False
            if isinstance(instr, (ir.Load, ir.BinOp, ir.Phi, ir.Copy, ir.Neg)):
                flt = instr.is_float
            elif isinstance(instr, ir.Convert):
                flt = instr.kind == "int_to_double"
            elif isinstance(instr, ir.Call):
                flt = instr.ret_is_float
            is_float[instr.result] = flt
    return is_float


class FunctionISel:
    """Selects machine instructions for one LIR function."""

    def __init__(self, fn: ir.LIRFunction,
                 spec: Optional[TargetSpec] = None):
        self.fn = fn
        self.spec = get_target(spec)
        self.zero = self.spec.regs.zero
        self.call_scratch = self.spec.cc.scratch_gprs[0]
        self.error_reg = self.spec.cc.error_reg
        self.mf = MachineFunction(name=fn.symbol,
                                  source_module=fn.source_module)
        self.value_float = compute_value_classes(fn)
        self.use_count = self._count_uses()
        self.defs: Dict[int, Tuple[ir.LIRInstr, str]] = self._collect_defs()
        self.cur: Optional[MachineBlock] = None
        self._const_counter = 0
        self._trap_div_label: Optional[str] = None

    # -- bookkeeping --------------------------------------------------------

    def _ret_reg(self, is_float: bool) -> str:
        cc = self.spec.cc
        return cc.ret_fpr if is_float else cc.ret_gpr

    def _count_uses(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for blk in self.fn.blocks:
            for instr in blk.instrs:
                for op in instr.operands():
                    if ir.is_value(op):
                        counts[op] = counts.get(op, 0) + 1
        return counts

    def _collect_defs(self) -> Dict[int, Tuple[ir.LIRInstr, str]]:
        defs: Dict[int, Tuple[ir.LIRInstr, str]] = {}
        multi: Set[int] = set()
        for blk in self.fn.blocks:
            for instr in blk.instrs:
                if instr.result is not None:
                    if instr.result in defs:
                        multi.add(instr.result)
                    defs[instr.result] = (instr, blk.label)
        for value in multi:
            defs.pop(value, None)  # multi-def values are never folded
        return defs

    def _vreg(self, value: int) -> str:
        return f"fv{value}" if self.value_float.get(value, False) else f"v{value}"

    def _fresh_vreg(self, is_float: bool) -> str:
        self._const_counter += 1
        return f"fvc{self._const_counter}" if is_float else f"vc{self._const_counter}"

    def emit(self, instr: MachineInstr) -> None:
        assert self.cur is not None
        self.cur.append(instr)

    def _materialize(self, const: ir.Const, into: Optional[str] = None) -> str:
        if const.is_float:
            dst = into or self._fresh_vreg(True)
            self.emit(MachineInstr(Opcode.FMOVDi, (dst, float(const.value))))
            return dst
        dst = into or self._fresh_vreg(False)
        for mi in materialize_constant(dst, int(const.value)):
            self.emit(mi)
        return dst

    def _reg_of(self, op: ir.Operand, into: Optional[str] = None) -> str:
        if isinstance(op, ir.Const):
            return self._materialize(op, into)
        if ir.is_value(op):
            reg = self._vreg(op)
            if into is not None and into != reg:
                self._emit_move(into, reg,
                                self.value_float.get(op, False))
                return into
            return reg
        raise BackendError(f"cannot put operand {op!r} in a register")

    def _emit_move(self, dst: str, src: str, is_float: bool) -> None:
        if is_float:
            self.emit(MachineInstr(Opcode.FMOVDr, (dst, src)))
        else:
            self.emit(mov_rr(dst, src))

    def _op_is_float(self, op: ir.Operand) -> bool:
        if isinstance(op, ir.Const):
            return op.is_float
        if ir.is_value(op):
            return self.value_float.get(op, False)
        return False

    def _imm(self, op: ir.Operand, lo: int = 0, hi: int = 4095) -> Optional[int]:
        if isinstance(op, ir.Const) and not op.is_float:
            value = int(op.value)
            if lo <= value <= hi:
                return value
        return None

    def _single_use_def(self, op: ir.Operand, block_label: str,
                        kinds: tuple) -> Optional[ir.LIRInstr]:
        """The defining instruction if *op* is single-use, same-block, of a
        given kind, and eligible for folding."""
        if not ir.is_value(op):
            return None
        if self.use_count.get(op, 0) != 1:
            return None
        found = self.defs.get(op)
        if found is None:
            return None
        instr, label = found
        if label != block_label or not isinstance(instr, kinds):
            return None
        return instr

    # -- driver ------------------------------------------------------------------

    def run(self) -> MachineFunction:
        self._plan_folds()
        for blk in self.fn.blocks:
            self.mf.new_block(blk.label)
        self.cur = self.mf.block(self.fn.entry.label)
        self._emit_param_moves()
        for blk in self.fn.blocks:
            self.cur = self.mf.block(blk.label)
            for instr in blk.instrs:
                if instr.result is not None and id(instr) in self._fold_ids:
                    continue
                self._lower(instr, blk.label)
        self._remove_fallthrough_branches()
        self._remove_identity_moves()
        return self.mf

    def _emit_param_moves(self) -> None:
        flags = tuple(self.fn.param_is_float)
        regs = self.spec.cc.assign_arg_registers(flags)
        for value, reg, flt in zip(self.fn.params, regs, flags):
            if self.use_count.get(value, 0) == 0:
                continue
            self._emit_move(self._vreg(value), reg, flt)

    # -- folding plan ---------------------------------------------------------------

    def _plan_folds(self) -> None:
        """Decide which PtrAdd/shift defs fold into load/store addressing."""
        self._fold_ids: Set[int] = set()
        self._addr_fold: Dict[int, Tuple] = {}  # id(load/store) -> plan
        for blk in self.fn.blocks:
            for instr in blk.instrs:
                if not isinstance(instr, (ir.Load, ir.Store)):
                    continue
                ptr = instr.ptr
                padd = self._single_use_def(ptr, blk.label, (ir.PtrAdd,))
                if padd is None:
                    continue
                imm = self._imm(padd.offset, 0, 32760)
                if imm is not None:
                    self._addr_fold[id(instr)] = ("ui", padd.base, imm)
                    self._fold_ids.add(id(padd))
                    continue
                shift = self._single_use_def(padd.offset, blk.label,
                                             (ir.BinOp,))
                if (
                    shift is not None
                    and shift.op == "<<"
                    and self._imm(shift.rhs, 3, 3) == 3
                    and not shift.is_float
                ):
                    self._addr_fold[id(instr)] = ("ro", padd.base, shift.lhs)
                    self._fold_ids.add(id(padd))
                    self._fold_ids.add(id(shift))

        # Compare-and-branch fusion: Cmp immediately before its CondBr.
        self._fused_cmps: Dict[int, ir.Cmp] = {}
        for blk in self.fn.blocks:
            if len(blk.instrs) < 2:
                continue
            term = blk.instrs[-1]
            prev = blk.instrs[-2]
            if (
                isinstance(term, ir.CondBr)
                and isinstance(prev, ir.Cmp)
                and ir.is_value(term.cond)
                and prev.result == term.cond
                and self.use_count.get(prev.result, 0) == 1
            ):
                self._fused_cmps[id(term)] = prev
                self._fold_ids.add(id(prev))

    # -- lowering ---------------------------------------------------------------------

    def _lower(self, instr: ir.LIRInstr, block_label: str) -> None:
        method = getattr(self, f"_sel_{type(instr).__name__}", None)
        if method is None:
            raise BackendError(f"isel cannot lower {type(instr).__name__}")
        method(instr, block_label)

    def _sel_Alloca(self, instr, block_label):  # pragma: no cover
        raise BackendError(
            f"{self.fn.symbol}: Alloca survived mem2reg (run mem2reg first)")

    def _sel_Copy(self, instr: ir.Copy, block_label: str) -> None:
        dst = self._vreg(instr.result)
        if isinstance(instr.value, ir.Const):
            self._materialize(instr.value, into=dst)
            return
        src = self._reg_of(instr.value)
        self._emit_move(dst, src, instr.is_float)

    def _sel_BinOp(self, instr: ir.BinOp, block_label: str) -> None:
        dst = self._vreg(instr.result)
        if instr.is_float:
            ops = {"+": Opcode.FADDDrr, "-": Opcode.FSUBDrr,
                   "*": Opcode.FMULDrr, "/": Opcode.FDIVDrr}
            lhs = self._reg_of(instr.lhs)
            rhs = self._reg_of(instr.rhs)
            self.emit(MachineInstr(ops[instr.op], (dst, lhs, rhs)))
            return
        op = instr.op
        if op in ("+", "-"):
            imm = self._imm(instr.rhs)
            if imm is not None:
                lhs = self._reg_of(instr.lhs)
                opc = Opcode.ADDXri if op == "+" else Opcode.SUBXri
                self.emit(MachineInstr(opc, (dst, lhs, imm)))
                return
            lhs = self._reg_of(instr.lhs)
            rhs = self._reg_of(instr.rhs)
            opc = Opcode.ADDXrr if op == "+" else Opcode.SUBXrr
            self.emit(MachineInstr(opc, (dst, lhs, rhs)))
            return
        if op == "*":
            lhs = self._reg_of(instr.lhs)
            rhs = self._reg_of(instr.rhs)
            self.emit(MachineInstr(Opcode.MADDXrrr, (dst, lhs, rhs, self.zero)))
            return
        if op in ("/", "%"):
            lhs = self._reg_of(instr.lhs)
            rhs = self._reg_of(instr.rhs)
            self._emit_div_zero_check(instr.rhs, rhs)
            if op == "/":
                self.emit(MachineInstr(Opcode.SDIVXrr, (dst, lhs, rhs)))
                return
            quot = self._fresh_vreg(False)
            self.emit(MachineInstr(Opcode.SDIVXrr, (quot, lhs, rhs)))
            self.emit(MachineInstr(Opcode.MSUBXrrr, (dst, quot, rhs, lhs)))
            return
        table = {"&": Opcode.ANDXrr, "|": Opcode.ORRXrs, "^": Opcode.EORXrr,
                 "<<": Opcode.LSLVXrr, ">>": Opcode.ASRVXrr}
        lhs = self._reg_of(instr.lhs)
        rhs = self._reg_of(instr.rhs)
        self.emit(MachineInstr(table[op], (dst, lhs, rhs)))

    def _emit_div_zero_check(self, rhs_op: ir.Operand, rhs_reg: str) -> None:
        if isinstance(rhs_op, ir.Const) and rhs_op.value != 0:
            return
        label = self._trap_div()
        self.emit(MachineInstr(Opcode.CBZX, (rhs_reg, Label(label))))

    def _trap_div(self) -> str:
        if self._trap_div_label is None:
            self._trap_div_label = "trap_div"
            blk = self.mf.new_block(self._trap_div_label)
            blk.append(MachineInstr(Opcode.BRK, (_TRAP_CODES["div"],)))
        return self._trap_div_label

    def _sel_Cmp(self, instr: ir.Cmp, block_label: str) -> None:
        dst = self._vreg(instr.result)
        self._emit_compare(instr)
        self.emit(MachineInstr(Opcode.CSETXi, (dst, _CMP_COND[instr.pred])))

    def _emit_compare(self, cmp: ir.Cmp) -> None:
        if cmp.operand_is_float:
            lhs = self._reg_of(cmp.lhs)
            rhs = self._reg_of(cmp.rhs)
            self.emit(MachineInstr(Opcode.FCMPDrr, (lhs, rhs)))
            return
        imm = self._imm(cmp.rhs)
        lhs = self._reg_of(cmp.lhs)
        if imm is not None:
            self.emit(MachineInstr(Opcode.SUBSXri, (self.zero, lhs, imm)))
            return
        rhs = self._reg_of(cmp.rhs)
        self.emit(MachineInstr(Opcode.SUBSXrr, (self.zero, lhs, rhs)))

    def _sel_Neg(self, instr: ir.Neg, block_label: str) -> None:
        dst = self._vreg(instr.result)
        src = self._reg_of(instr.value)
        if instr.is_float:
            self.emit(MachineInstr(Opcode.FNEGDr, (dst, src)))
        else:
            self.emit(MachineInstr(Opcode.SUBXrr, (dst, self.zero, src)))

    def _sel_Not(self, instr: ir.Not, block_label: str) -> None:
        dst = self._vreg(instr.result)
        src = self._reg_of(instr.value)
        one = self._fresh_vreg(False)
        self.emit(MachineInstr(Opcode.MOVZXi, (one, 1, 0)))
        self.emit(MachineInstr(Opcode.EORXrr, (dst, src, one)))

    def _sel_Convert(self, instr: ir.Convert, block_label: str) -> None:
        dst = self._vreg(instr.result)
        src = self._reg_of(instr.value)
        if instr.kind == "int_to_double":
            self.emit(MachineInstr(Opcode.SCVTFDX, (dst, src)))
        else:
            self.emit(MachineInstr(Opcode.FCVTZSXD, (dst, src)))

    def _sel_PtrAdd(self, instr: ir.PtrAdd, block_label: str) -> None:
        dst = self._vreg(instr.result)
        imm = self._imm(instr.offset)
        base = self._reg_of(instr.base)
        if imm is not None:
            self.emit(MachineInstr(Opcode.ADDXri, (dst, base, imm)))
        else:
            off = self._reg_of(instr.offset)
            self.emit(MachineInstr(Opcode.ADDXrr, (dst, base, off)))

    def _sel_GlobalAddr(self, instr: ir.GlobalAddr, block_label: str) -> None:
        dst = self._vreg(instr.result)
        self.emit(MachineInstr(Opcode.ADRP, (dst, Sym(instr.symbol))))
        self.emit(MachineInstr(Opcode.ADDlo, (dst, dst, Sym(instr.symbol))))

    def _sel_FuncAddr(self, instr: ir.FuncAddr, block_label: str) -> None:
        dst = self._vreg(instr.result)
        self.emit(MachineInstr(Opcode.ADRP, (dst, Sym(instr.symbol))))
        self.emit(MachineInstr(Opcode.ADDlo, (dst, dst, Sym(instr.symbol))))

    def _sel_Load(self, instr: ir.Load, block_label: str) -> None:
        dst = self._vreg(instr.result)
        is_float = self.value_float.get(instr.result, False)
        plan = self._addr_fold.get(id(instr))
        if plan is not None:
            kind, base_op, extra = plan
            base = self._reg_of(base_op)
            if kind == "ui":
                opc = Opcode.LDRDui if is_float else Opcode.LDRXui
                self.emit(MachineInstr(opc, (dst, base, extra)))
            else:
                idx = self._reg_of(extra)
                opc = Opcode.LDRDroX if is_float else Opcode.LDRXroX
                self.emit(MachineInstr(opc, (dst, base, idx)))
            return
        ptr = self._reg_of(instr.ptr)
        opc = Opcode.LDRDui if is_float else Opcode.LDRXui
        self.emit(MachineInstr(opc, (dst, ptr, 0)))

    def _sel_Store(self, instr: ir.Store, block_label: str) -> None:
        is_float = self._op_is_float(instr.value) or instr.is_float
        src = self._reg_of(instr.value)
        plan = self._addr_fold.get(id(instr))
        if plan is not None:
            kind, base_op, extra = plan
            base = self._reg_of(base_op)
            if kind == "ui":
                opc = Opcode.STRDui if is_float else Opcode.STRXui
                self.emit(MachineInstr(opc, (src, base, extra)))
            else:
                idx = self._reg_of(extra)
                opc = Opcode.STRDroX if is_float else Opcode.STRXroX
                self.emit(MachineInstr(opc, (src, base, idx)))
            return
        ptr = self._reg_of(instr.ptr)
        opc = Opcode.STRDui if is_float else Opcode.STRXui
        self.emit(MachineInstr(opc, (src, ptr, 0)))

    def _sel_Call(self, instr: ir.Call, block_label: str) -> None:
        # Indirect targets go through the x16 scratch (never allocated).
        indirect = instr.callee_value is not None
        if indirect:
            callee_reg = self._reg_of(instr.callee_value)
            self.emit(mov_rr(self.call_scratch, callee_reg))
        flags = tuple(self._op_is_float(a) for a in instr.args)
        regs = self.spec.cc.assign_arg_registers(flags)
        for arg, reg, flt in zip(instr.args, regs, flags):
            if isinstance(arg, ir.Const):
                self._materialize(arg, into=reg)
            else:
                self._emit_move(reg, self._vreg(arg), flt)
        implicit_defs: List[str] = []
        if instr.result is not None:
            implicit_defs.append(self._ret_reg(instr.ret_is_float))
        if instr.throws:
            implicit_defs.append(self.error_reg)
        if indirect:
            self.emit(MachineInstr(Opcode.BLR, (self.call_scratch,),
                                   implicit_uses=tuple(regs),
                                   implicit_defs=tuple(implicit_defs)))
        else:
            self.emit(MachineInstr(Opcode.BL, (Sym(instr.callee),),
                                   implicit_uses=tuple(regs),
                                   implicit_defs=tuple(implicit_defs)))
        if instr.result is not None:
            is_float = instr.ret_is_float
            self._emit_move(self._vreg(instr.result),
                            self._ret_reg(is_float), is_float)

    def _sel_ReadError(self, instr: ir.ReadError, block_label: str) -> None:
        self.emit(mov_rr(self._vreg(instr.result), self.error_reg))

    def _sel_SetError(self, instr: ir.SetError, block_label: str) -> None:
        if isinstance(instr.value, ir.Const):
            self._materialize(instr.value, into=self.error_reg)
        else:
            self.emit(mov_rr(self.error_reg, self._vreg(instr.value)))

    def _sel_Br(self, instr: ir.Br, block_label: str) -> None:
        self.emit(MachineInstr(Opcode.B, (Label(instr.target),)))

    def _sel_CondBr(self, instr: ir.CondBr, block_label: str) -> None:
        fused = self._fused_cmps.get(id(instr))
        if fused is not None:
            self._emit_compare(fused)
            self.emit(MachineInstr(Opcode.Bcc, (_CMP_COND[fused.pred],
                                                Label(instr.true_target))))
            self.emit(MachineInstr(Opcode.B, (Label(instr.false_target),)))
            return
        if isinstance(instr.cond, ir.Const):
            target_label = (instr.true_target if instr.cond.value
                            else instr.false_target)
            self.emit(MachineInstr(Opcode.B, (Label(target_label),)))
            return
        cond = self._reg_of(instr.cond)
        self.emit(MachineInstr(Opcode.CBNZX, (cond, Label(instr.true_target))))
        self.emit(MachineInstr(Opcode.B, (Label(instr.false_target),)))

    def _sel_Ret(self, instr: ir.Ret, block_label: str) -> None:
        if instr.value is not None:
            is_float = self._op_is_float(instr.value) or instr.is_float
            reg = self._ret_reg(is_float)
            if isinstance(instr.value, ir.Const):
                self._materialize(instr.value, into=reg)
            else:
                self._emit_move(reg, self._vreg(instr.value), is_float)
        self.emit(MachineInstr(Opcode.RET))

    def _sel_Trap(self, instr: ir.Trap, block_label: str) -> None:
        code = _TRAP_CODES.get(instr.reason, 4)
        self.emit(MachineInstr(Opcode.BRK, (code,)))

    def _sel_Unreachable(self, instr: ir.Unreachable, block_label: str) -> None:
        self.emit(MachineInstr(Opcode.BRK, (_TRAP_CODES["unreachable"],)))

    def _sel_Phi(self, instr, block_label):  # pragma: no cover
        raise BackendError(
            f"{self.fn.symbol}: phi survived phi-elimination")

    # -- cleanups ----------------------------------------------------------------------

    def _remove_fallthrough_branches(self) -> None:
        for i, blk in enumerate(self.mf.blocks[:-1]):
            nxt = self.mf.blocks[i + 1].label
            if blk.instrs and blk.instrs[-1].opcode is Opcode.B:
                op = blk.instrs[-1].operands[0]
                if isinstance(op, Label) and op.name == nxt:
                    blk.instrs.pop()

    def _remove_identity_moves(self) -> None:
        for blk in self.mf.blocks:
            blk.instrs = [
                mi for mi in blk.instrs
                if not (
                    mi.opcode is Opcode.ORRXrs
                    and mi.operands[1] == self.zero
                    and mi.operands[0] == mi.operands[2]
                ) and not (
                    mi.opcode is Opcode.FMOVDr
                    and mi.operands[0] == mi.operands[1]
                )
            ]


def select_function(fn: ir.LIRFunction,
                    spec: Optional[TargetSpec] = None) -> MachineFunction:
    """Run instruction selection on one LIR function."""
    return FunctionISel(fn, spec).run()
