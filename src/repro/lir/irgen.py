"""IRGen: lowers SIL to LIR.

Expands the high-level SIL operations into the explicit instruction
sequences whose lowered machine code repeats across the program:

* ARC ops become ``swift_retain``/``swift_release`` calls;
* field / array / string accesses become header loads, inline bounds checks,
  and raw loads/stores;
* allocation becomes the 3-argument ``swift_allocObject`` call of Listing 3;
* the throwing convention becomes error-register writes + checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LIRError
from repro.frontend.types import DOUBLE, VOID, Type
from repro.lir import ir
from repro.runtime import layout, names
from repro.sil import sil


def _is_float_ty(ty: Optional[Type]) -> bool:
    return ty == DOUBLE


def _elem_kind(ty: Optional[Type]) -> int:
    if ty is None:
        return layout.ELEM_PLAIN
    if ty.is_ref():
        return layout.ELEM_REF
    if _is_float_ty(ty):
        return layout.ELEM_FLOAT
    return layout.ELEM_PLAIN


class _FunctionIRGen:
    """Lowers one SIL function."""

    def __init__(self, silfn: sil.SILFunction, module_gen: "ModuleIRGen"):
        self.silfn = silfn
        self.gen = module_gen
        self.fn = ir.LIRFunction(
            symbol=silfn.symbol,
            throws=silfn.throws,
            ret_is_float=_is_float_ty(silfn.ret_type),
            has_return_value=silfn.ret_type not in (None, VOID),
            source_module=silfn.source_module,
        )
        self.temp_map: Dict[sil.Temp, ir.Operand] = {}
        self.cur: Optional[ir.LIRBlock] = None
        #: Instructions to prepend when a given SIL block starts (error-code
        #: extraction for try_apply error successors).
        self.block_prefix: Dict[str, List[ir.LIRInstr]] = {}
        self._trap_blocks: Dict[str, str] = {}

    # -- plumbing ---------------------------------------------------------------

    def emit(self, instr: ir.LIRInstr) -> Optional[ir.Value]:
        assert self.cur is not None
        self.cur.instrs.append(instr)
        return instr.result

    def value_of(self, temp: sil.Temp) -> ir.Operand:
        if temp not in self.temp_map:
            raise LIRError(
                f"SIL temp %{temp} has no LIR value in {self.silfn.symbol}")
        return self.temp_map[temp]

    def _new(self) -> ir.Value:
        return self.fn.new_value()

    def _trap_block(self, reason: str) -> str:
        if reason not in self._trap_blocks:
            label = f"trap_{reason}"
            blk = self.fn.new_block(label)
            blk.instrs.append(ir.Trap(reason=reason))
            self._trap_blocks[reason] = label
        return self._trap_blocks[reason]

    # -- driver ------------------------------------------------------------------

    def run(self) -> ir.LIRFunction:
        # Parameters (closure context arrives as a trailing plain param).
        n_declared = len(self.silfn.param_types)
        for i, temp in enumerate(self.silfn.param_temps):
            value = self._new()
            self.fn.params.append(value)
            if i < n_declared:
                self.fn.param_is_float.append(
                    _is_float_ty(self.silfn.param_types[i]))
            else:
                self.fn.param_is_float.append(False)
            self.temp_map[temp] = value
        for silblk in self.silfn.blocks:
            self.fn.new_block(silblk.label)
        for silblk in self.silfn.blocks:
            self.cur = self.fn.block(silblk.label)
            for prefix_instr in self.block_prefix.get(silblk.label, ()):
                self.cur.instrs.append(prefix_instr)
            for instr in silblk.instrs:
                self._lower(instr)
        self._hoist_allocas()
        self._drop_unterminated_trailing_blocks()
        return self.fn

    def _hoist_allocas(self) -> None:
        """Move every Alloca to the entry block head (LLVM convention)."""
        allocas: List[ir.LIRInstr] = []
        for blk in self.fn.blocks:
            kept = []
            for instr in blk.instrs:
                if isinstance(instr, ir.Alloca):
                    allocas.append(instr)
                else:
                    kept.append(instr)
            blk.instrs = kept
        entry = self.fn.entry
        entry.instrs = allocas + entry.instrs

    def _drop_unterminated_trailing_blocks(self) -> None:
        for blk in self.fn.blocks:
            if blk.terminator is None:
                blk.instrs.append(ir.Unreachable())

    # -- instruction lowering -----------------------------------------------------

    def _lower(self, instr: sil.SILInstr) -> None:
        method = getattr(self, f"_lower_{type(instr).__name__}", None)
        if method is None:
            raise LIRError(f"IRGen cannot lower {type(instr).__name__}")
        method(instr)

    def _lower_ConstInt(self, instr: sil.ConstInt) -> None:
        self.temp_map[instr.result] = ir.Const(instr.value)

    def _lower_ConstFloat(self, instr: sil.ConstFloat) -> None:
        self.temp_map[instr.result] = ir.Const(instr.value, is_float=True)

    def _lower_ConstNil(self, instr: sil.ConstNil) -> None:
        self.temp_map[instr.result] = ir.Const(0)

    def _lower_ConstString(self, instr: sil.ConstString) -> None:
        symbol = self.gen.intern_string(instr.value)
        result = self._new()
        self.emit(ir.GlobalAddr(result=result, symbol=symbol))
        self.temp_map[instr.result] = result

    def _lower_AllocStack(self, instr: sil.AllocStack) -> None:
        value = self._new()
        self.emit(ir.Alloca(result=value, name=instr.name,
                            is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = value

    def _lower_Load(self, instr: sil.Load) -> None:
        result = self._new()
        self.emit(ir.Load(result=result, ptr=self.value_of(instr.addr),
                          is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    def _lower_Store(self, instr: sil.Store) -> None:
        value = self.value_of(instr.value)
        is_float = isinstance(value, ir.Const) and value.is_float
        self.emit(ir.Store(value=value, ptr=self.value_of(instr.addr),
                           is_float=is_float))

    def _lower_AllocBox(self, instr: sil.AllocBox) -> None:
        kind = layout.ELEM_REF if instr.elem_is_ref else _elem_kind(instr.ty)
        result = self._new()
        self.emit(ir.Call(result=result, callee=names.SWIFT_ALLOC_BOX,
                          args=[ir.Const(kind)]))
        self.temp_map[instr.result] = result

    def _lower_BoxGet(self, instr: sil.BoxGet) -> None:
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=self.value_of(instr.box),
                            offset=ir.Const(layout.BOX_CONTENT)))
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr,
                          is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    def _lower_BoxSet(self, instr: sil.BoxSet) -> None:
        box = self.value_of(instr.box)
        value = self.value_of(instr.value)
        if instr.is_ref:
            self.emit(ir.Call(callee=names.SWIFT_BOX_SET_REF,
                              args=[box, value]))
            return
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=box,
                            offset=ir.Const(layout.BOX_CONTENT)))
        is_float = isinstance(value, ir.Const) and value.is_float
        self.emit(ir.Store(value=value, ptr=addr, is_float=is_float))

    def _lower_AllocRef(self, instr: sil.AllocRef) -> None:
        size = layout.object_size_for_fields(instr.num_fields)
        result = self._new()
        # The 3-argument allocation call of the paper's Listing 3.
        self.emit(ir.Call(result=result, callee=names.SWIFT_ALLOC_OBJECT,
                          args=[ir.Const(instr.type_id), ir.Const(size),
                                ir.Const(7)]))
        self.temp_map[instr.result] = result

    def _lower_FieldLoad(self, instr: sil.FieldLoad) -> None:
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=self.value_of(instr.obj),
                            offset=ir.Const(layout.class_field_offset(instr.index))))
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr,
                          is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    def _lower_FieldStore(self, instr: sil.FieldStore) -> None:
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=self.value_of(instr.obj),
                            offset=ir.Const(layout.class_field_offset(instr.index))))
        value = self.value_of(instr.value)
        if instr.is_ref:
            old = self._new()
            self.emit(ir.Load(result=old, ptr=addr))
            self.emit(ir.Store(value=value, ptr=addr))
            self.emit(ir.Call(callee=names.SWIFT_RELEASE, args=[old]))
        else:
            is_float = isinstance(value, ir.Const) and value.is_float
            self.emit(ir.Store(value=value, ptr=addr, is_float=is_float))

    # -- arrays --------------------------------------------------------------------

    def _array_element_addr(self, array: ir.Operand, index: ir.Operand,
                            buf_offset: int, count_offset: int) -> ir.Value:
        """Emit the inline bounds check and return the element address."""
        count_addr = self._new()
        self.emit(ir.PtrAdd(result=count_addr, base=array,
                            offset=ir.Const(count_offset)))
        count = self._new()
        self.emit(ir.Load(result=count, ptr=count_addr))
        cond = self._new()
        self.emit(ir.Cmp(result=cond, pred="u>=", lhs=index, rhs=count))
        ok_label = f"bounds_ok{self._new()}"
        trap = self._trap_block("bounds")
        self.emit(ir.CondBr(cond=cond, true_target=trap, false_target=ok_label))
        self.cur = self.fn.new_block(ok_label)
        buf_addr = self._new()
        self.emit(ir.PtrAdd(result=buf_addr, base=array,
                            offset=ir.Const(buf_offset)))
        buf = self._new()
        self.emit(ir.Load(result=buf, ptr=buf_addr))
        byte_off = self._new()
        self.emit(ir.BinOp(result=byte_off, op="<<", lhs=index, rhs=ir.Const(3)))
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=buf, offset=byte_off))
        return addr

    def _lower_ArrayNew(self, instr: sil.ArrayNew) -> None:
        count = self.value_of(instr.count)
        initial = self.value_of(instr.initial)
        if instr.elem_is_ref:
            kind = layout.ELEM_REF
        elif instr.elem_is_float:
            kind = layout.ELEM_FLOAT
        else:
            kind = layout.ELEM_PLAIN
        result = self._new()
        init_float = kind == layout.ELEM_FLOAT
        # Argument order (count, kind, initial) keeps the register
        # convention fixed: x0=count, x1=kind, initial in x2 or d0.
        self.emit(ir.Call(result=result, callee=names.SWIFT_ALLOC_ARRAY,
                          args=[count, ir.Const(kind), initial],
                          arg_is_float=(False, False, init_float)))
        self.temp_map[instr.result] = result

    def _lower_ArrayGet(self, instr: sil.ArrayGet) -> None:
        addr = self._array_element_addr(self.value_of(instr.array),
                                        self.value_of(instr.index),
                                        layout.ARRAY_BUF, layout.ARRAY_COUNT)
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr,
                          is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    def _lower_ArraySet(self, instr: sil.ArraySet) -> None:
        addr = self._array_element_addr(self.value_of(instr.array),
                                        self.value_of(instr.index),
                                        layout.ARRAY_BUF, layout.ARRAY_COUNT)
        value = self.value_of(instr.value)
        if instr.is_ref:
            old = self._new()
            self.emit(ir.Load(result=old, ptr=addr))
            self.emit(ir.Store(value=value, ptr=addr))
            self.emit(ir.Call(callee=names.SWIFT_RELEASE, args=[old]))
        else:
            is_float = isinstance(value, ir.Const) and value.is_float
            self.emit(ir.Store(value=value, ptr=addr, is_float=is_float))

    def _lower_ArrayCount(self, instr: sil.ArrayCount) -> None:
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=self.value_of(instr.array),
                            offset=ir.Const(layout.ARRAY_COUNT)))
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr))
        self.temp_map[instr.result] = result

    def _lower_ArrayAppend(self, instr: sil.ArrayAppend) -> None:
        self.emit(ir.Call(callee=names.SWIFT_ARRAY_APPEND,
                          args=[self.value_of(instr.array),
                                self.value_of(instr.value)]))

    def _lower_ArrayRemoveLast(self, instr: sil.ArrayRemoveLast) -> None:
        result = self._new()
        self.emit(ir.Call(result=result, callee=names.SWIFT_ARRAY_REMOVE_LAST,
                          args=[self.value_of(instr.array)],
                          ret_is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    # -- strings --------------------------------------------------------------------

    def _lower_StringLen(self, instr: sil.StringLen) -> None:
        addr = self._new()
        self.emit(ir.PtrAdd(result=addr, base=self.value_of(instr.value),
                            offset=ir.Const(layout.STRING_COUNT)))
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr))
        self.temp_map[instr.result] = result

    def _lower_StringIndex(self, instr: sil.StringIndex) -> None:
        addr = self._array_element_addr(self.value_of(instr.value),
                                        self.value_of(instr.index),
                                        layout.STRING_BUF, layout.STRING_COUNT)
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr))
        self.temp_map[instr.result] = result

    # -- ARC ------------------------------------------------------------------------

    def _lower_Retain(self, instr: sil.Retain) -> None:
        self.emit(ir.Call(callee=names.SWIFT_RETAIN,
                          args=[self.value_of(instr.value)]))

    def _lower_Release(self, instr: sil.Release) -> None:
        self.emit(ir.Call(callee=names.SWIFT_RELEASE,
                          args=[self.value_of(instr.value)]))

    # -- arithmetic --------------------------------------------------------------------

    def _lower_BinOp(self, instr: sil.BinOp) -> None:
        result = self._new()
        self.emit(ir.BinOp(result=result, op=instr.op,
                           lhs=self.value_of(instr.lhs),
                           rhs=self.value_of(instr.rhs),
                           is_float=instr.is_float))
        self.temp_map[instr.result] = result

    def _lower_CmpOp(self, instr: sil.CmpOp) -> None:
        result = self._new()
        self.emit(ir.Cmp(result=result, pred=instr.op,
                         lhs=self.value_of(instr.lhs),
                         rhs=self.value_of(instr.rhs),
                         operand_is_float=instr.operand_is_float))
        self.temp_map[instr.result] = result

    def _lower_NegOp(self, instr: sil.NegOp) -> None:
        result = self._new()
        self.emit(ir.Neg(result=result, value=self.value_of(instr.value),
                         is_float=instr.is_float))
        self.temp_map[instr.result] = result

    def _lower_NotOp(self, instr: sil.NotOp) -> None:
        result = self._new()
        self.emit(ir.Not(result=result, value=self.value_of(instr.value)))
        self.temp_map[instr.result] = result

    def _lower_Convert(self, instr: sil.Convert) -> None:
        result = self._new()
        self.emit(ir.Convert(result=result, kind=instr.kind,
                             value=self.value_of(instr.value)))
        self.temp_map[instr.result] = result

    # -- calls -----------------------------------------------------------------------

    def _lower_Apply(self, instr: sil.Apply) -> None:
        result = self._new() if instr.result is not None else None
        ret_is_float = False
        if instr.result is not None:
            ret_is_float = self.gen.ret_is_float(instr.callee)
        self.emit(ir.Call(result=result, callee=instr.callee,
                          args=[self.value_of(a) for a in instr.args],
                          ret_is_float=ret_is_float,
                          arg_is_float=self.gen.arg_floats(instr.callee,
                                                           len(instr.args))))
        if instr.result is not None:
            self.temp_map[instr.result] = result

    def _lower_ApplyClosure(self, instr: sil.ApplyClosure) -> None:
        closure = self.value_of(instr.closure)
        fn_addr = self._new()
        self.emit(ir.PtrAdd(result=fn_addr, base=closure,
                            offset=ir.Const(layout.CLOSURE_FN)))
        fnptr = self._new()
        self.emit(ir.Load(result=fnptr, ptr=fn_addr))
        result = self._new() if instr.result is not None else None
        args = [self.value_of(a) for a in instr.args] + [closure]
        self.emit(ir.Call(result=result, callee="", callee_value=fnptr,
                          args=args))
        if instr.result is not None:
            self.temp_map[instr.result] = result

    def _lower_MakeClosure(self, instr: sil.MakeClosure) -> None:
        fnaddr = self._new()
        self.emit(ir.FuncAddr(result=fnaddr, symbol=instr.fn_symbol))
        result = self._new()
        self.emit(ir.Call(result=result, callee=names.SWIFT_ALLOC_CLOSURE,
                          args=[fnaddr, ir.Const(len(instr.captures))]))
        for i, box in enumerate(instr.captures):
            box_val = self.value_of(box)
            self.emit(ir.Call(callee=names.SWIFT_RETAIN, args=[box_val]))
            slot = self._new()
            self.emit(ir.PtrAdd(result=slot, base=result,
                                offset=ir.Const(layout.closure_capture_offset(i))))
            self.emit(ir.Store(value=box_val, ptr=slot))
        self.temp_map[instr.result] = result

    def _lower_ApplyBuiltin(self, instr: sil.ApplyBuiltin) -> None:
        name = instr.builtin
        args = [self.value_of(a) for a in instr.args]
        if name == "assert":
            ok_label = f"assert_ok{self._new()}"
            trap = self._trap_block("assert")
            cond = self._new()
            self.emit(ir.Cmp(result=cond, pred="==", lhs=args[0],
                             rhs=ir.Const(0)))
            self.emit(ir.CondBr(cond=cond, true_target=trap,
                                false_target=ok_label))
            self.cur = self.fn.new_block(ok_label)
            return
        if name == "dealloc_partial":
            self.emit(ir.Call(callee=names.SWIFT_DEALLOC_PARTIAL, args=args))
            return
        if name == "string_concat":
            result = self._new()
            self.emit(ir.Call(result=result, callee=names.SWIFT_STRING_CONCAT,
                              args=args))
            self.temp_map[instr.result] = result
            return
        if name == "string_eq":
            result = self._new()
            self.emit(ir.Call(result=result, callee=names.SWIFT_STRING_EQ,
                              args=args))
            self.temp_map[instr.result] = result
            return
        if name in ("print_int", "print_double", "print_bool", "print_string"):
            self.emit(ir.Call(callee=name, args=args,
                              arg_is_float=(name == "print_double",)))
            return
        if name in names.MATH_FUNCS:
            runtime_name = names.MATH_FUNCS[name]
            float_args = name not in ("abs", "seedRandom")
            result = self._new() if instr.result is not None else None
            ret_float = name in ("sqrt", "exp", "log", "pow", "sin", "cos",
                                 "floor")
            self.emit(ir.Call(result=result, callee=runtime_name, args=args,
                              ret_is_float=ret_float,
                              arg_is_float=tuple(float_args for _ in args)))
            if instr.result is not None:
                self.temp_map[instr.result] = result
            return
        raise LIRError(f"unknown builtin {name!r}")

    # -- globals ------------------------------------------------------------------------

    def _lower_GlobalLoad(self, instr: sil.GlobalLoad) -> None:
        addr = self._new()
        self.emit(ir.GlobalAddr(result=addr, symbol=instr.symbol))
        if instr.is_object:
            self.temp_map[instr.result] = addr
            return
        result = self._new()
        self.emit(ir.Load(result=result, ptr=addr,
                          is_float=_is_float_ty(instr.ty)))
        self.temp_map[instr.result] = result

    def _lower_GlobalStore(self, instr: sil.GlobalStore) -> None:
        addr = self._new()
        self.emit(ir.GlobalAddr(result=addr, symbol=instr.symbol))
        value = self.value_of(instr.value)
        is_float = isinstance(value, ir.Const) and value.is_float
        self.emit(ir.Store(value=value, ptr=addr, is_float=is_float))

    # -- terminators ---------------------------------------------------------------------

    def _lower_Br(self, instr: sil.Br) -> None:
        self.emit(ir.Br(target=instr.target))

    def _lower_CondBr(self, instr: sil.CondBr) -> None:
        self.emit(ir.CondBr(cond=self.value_of(instr.cond),
                            true_target=instr.true_target,
                            false_target=instr.false_target))

    def _lower_Return(self, instr: sil.Return) -> None:
        if self.fn.throws:
            self.emit(ir.SetError(value=ir.Const(0)))
        if instr.value is None:
            self.emit(ir.Ret())
        else:
            self.emit(ir.Ret(value=self.value_of(instr.value),
                             is_float=self.fn.ret_is_float))

    def _lower_Throw(self, instr: sil.Throw) -> None:
        code = self.value_of(instr.code)
        raw = self._new()
        self.emit(ir.BinOp(result=raw, op="+", lhs=code, rhs=ir.Const(1)))
        self.emit(ir.SetError(value=raw))
        if self.fn.has_return_value:
            self.emit(ir.Ret(value=ir.Const(0), is_float=self.fn.ret_is_float))
        else:
            self.emit(ir.Ret())

    def _lower_TryApply(self, instr: sil.TryApply) -> None:
        result = self._new() if instr.result is not None else None
        args = [self.value_of(a) for a in instr.args]
        if instr.closure is not None:
            closure = self.value_of(instr.closure)
            fn_addr = self._new()
            self.emit(ir.PtrAdd(result=fn_addr, base=closure,
                                offset=ir.Const(layout.CLOSURE_FN)))
            fnptr = self._new()
            self.emit(ir.Load(result=fnptr, ptr=fn_addr))
            self.emit(ir.Call(result=result, callee="", callee_value=fnptr,
                              args=args + [closure], throws=True))
        else:
            self.emit(ir.Call(result=result, callee=instr.callee, args=args,
                              throws=True,
                              ret_is_float=self.gen.ret_is_float(instr.callee),
                              arg_is_float=self.gen.arg_floats(instr.callee,
                                                               len(args))))
        raw = self._new()
        self.emit(ir.ReadError(result=raw))
        cond = self._new()
        self.emit(ir.Cmp(result=cond, pred="!=", lhs=raw, rhs=ir.Const(0)))
        self.emit(ir.CondBr(cond=cond, true_target=instr.error_target,
                            false_target=instr.normal_target))
        # The error successor extracts code = raw - 1 at its head.
        err_val = self._new()
        self.block_prefix.setdefault(instr.error_target, []).append(
            ir.BinOp(result=err_val, op="-", lhs=raw, rhs=ir.Const(1)))
        self.temp_map[instr.error_result] = err_val
        if instr.result is not None:
            self.temp_map[instr.result] = result

    def _lower_Unreachable(self, instr: sil.Unreachable) -> None:
        self.emit(ir.Unreachable())


class ModuleIRGen:
    """Lowers one SIL module to LIR."""

    def __init__(self, sil_module: sil.SILModule,
                 signatures: Dict[str, sil.SILFunction]):
        self.sil_module = sil_module
        self.signatures = signatures
        self.module = ir.LIRModule(
            name=sil_module.name,
            entry_symbol=sil_module.entry_symbol,
            metadata={
                # Swift-compiler-style monolithic GC word (compiler id 5,
                # major 5, minor 2 packed) -- conflicts with clang's value
                # when llvm-link compares whole words (Section VI-2).
                "objc_gc": ("monolithic", (5 << 16) | (5 << 8) | 2),
                "objc_gc_attrs": {"mode": "none", "swift_abi": 5},
                "producer": "swiftlet",
            },
        )
        self._interned: Dict[str, str] = {}

    def intern_string(self, value: str) -> str:
        if value not in self._interned:
            symbol = f"{self.sil_module.name}::.str{len(self._interned)}"
            self._interned[value] = symbol
            self.module.globals.append(
                ir.LIRGlobal(symbol=symbol, init=value, is_object=True,
                             origin_module=self.sil_module.name))
        return self._interned[value]

    def ret_is_float(self, symbol: str) -> bool:
        silfn = self.signatures.get(symbol)
        if silfn is None:
            return False
        return _is_float_ty(silfn.ret_type)

    def arg_floats(self, symbol: str, nargs: int) -> Tuple[bool, ...]:
        silfn = self.signatures.get(symbol)
        if silfn is None:
            return tuple(False for _ in range(nargs))
        flags = [_is_float_ty(t) for t in silfn.param_types]
        while len(flags) < nargs:
            flags.append(False)
        return tuple(flags[:nargs])

    def lower_globals(self) -> None:
        """Lower the module's SIL globals into the LIR module."""
        for gbl in self.sil_module.globals:
            is_object = gbl.ty.is_ref()
            elem_float = False
            if isinstance(gbl.const_value, list) and gbl.const_value:
                elem_float = isinstance(gbl.const_value[0], float)
            self.module.globals.append(
                ir.LIRGlobal(symbol=gbl.symbol, init=gbl.const_value,
                             is_object=is_object, elem_is_float=elem_float,
                             origin_module=gbl.origin_module,
                             is_const=gbl.is_let))

    def preintern_strings(self) -> None:
        """Intern every string constant in whole-module lowering order.

        ``.strN`` numbering is first-use order across the module, which
        is exactly this scan's order, so interning up front names every
        literal as lowering them one by one would: a module assembled
        from cached and freshly lowered functions agrees on symbols.
        """
        for silfn in self.sil_module.functions:
            for block in silfn.blocks:
                for instr in block.instrs:
                    if isinstance(instr, sil.ConstString):
                        self.intern_string(instr.value)

    def lower_function(self, silfn: sil.SILFunction) -> ir.LIRFunction:
        """Lower one SIL function and append it to the module."""
        fn = _FunctionIRGen(silfn, self).run()
        self.module.functions.append(fn)
        return fn

    def run(self, cached: Optional[Dict[str, ir.LIRFunction]] = None
            ) -> ir.LIRModule:
        """Lower the module.  A function whose symbol is in *cached* is
        taken from there as it is (already optimized LIR); the rest are
        lowered fresh."""
        cached = cached or {}
        self.lower_globals()
        self.preintern_strings()
        for silfn in self.sil_module.functions:
            fn = cached.get(silfn.symbol)
            if fn is None:
                self.lower_function(silfn)
            else:
                self.module.functions.append(fn)
        return self.module


def generate_lir(sil_modules: List[sil.SILModule]) -> List[ir.LIRModule]:
    """Lower SIL modules to LIR (whole-program signature table shared)."""
    signatures: Dict[str, sil.SILFunction] = {}
    for sm in sil_modules:
        for fn in sm.functions:
            signatures[fn.symbol] = fn
    return [ModuleIRGen(sm, signatures).run() for sm in sil_modules]
