"""SILGen: lowers the checked AST to SIL.

This stage owns the ARC (automatic reference counting) discipline — the
machinery whose lowered form produces the paper's dominant repeated machine
patterns (``swift_retain``/``swift_release`` call pairs, Listings 1-6):

* **+1 argument convention** — callers pass every reference argument owned
  (retaining borrowed values at the call site); callees release their
  reference parameters on all exits.  Returns are +1.
* **Stable homes** — mutable locals live in ``alloc_stack`` slots, captured
  locals in heap boxes; stores retain the incoming value and release the
  displaced one.
* **Error unwinding** — every ``try`` call's error edge releases the owned
  temps and in-scope locals before propagating, and *throwing inits* use the
  per-field init-flag + shared cleanup block scheme that reproduces the
  O(N^2) out-of-SSA pattern of the paper's Listing 10 / Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SILError
from repro.frontend import ast
from repro.frontend.sema import ClassInfo, ProgramInfo
from repro.frontend.types import (
    BOOL,
    DOUBLE,
    INT,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    FuncType,
    NilType,
    Type,
)
from repro.sil import sil


@dataclass
class EValue:
    """An evaluated expression: a temp plus its ownership."""

    temp: sil.Temp
    ty: Type
    owned: bool = False  # only meaningful for ref types


@dataclass
class _Storage:
    kind: str  # "slot" | "box" | "global"
    temp: sil.Temp = -1
    symbol: str = ""
    ty: Type = None  # type: ignore[assignment]


@dataclass
class _LoopInfo:
    continue_label: str
    break_label: str
    scope_depth: int


@dataclass
class _Handler:
    kind: str  # "func" | "catch"
    scope_depth: int = 0
    catch_label: str = ""
    err_slot: sil.Temp = -1


@dataclass
class _InitContext:
    self_slot: sil.Temp
    class_info: ClassInfo
    #: field index -> init-flag stack slot (ref fields only).
    flags: Dict[int, sil.Temp] = field(default_factory=dict)
    err_slot: sil.Temp = -1
    cleanup_label: str = ""


class SILGenError(SILError):
    pass


class ModuleSILGen:
    """Generates the SIL module for one AST module."""

    def __init__(self, module: ast.Module, program: ProgramInfo):
        self.module = module
        self.program = program
        self.sil_module = sil.SILModule(name=module.name)
        self._thunks: Dict[str, str] = {}
        self._closure_count = 0

    def run(self) -> sil.SILModule:
        for gbl in self.module.globals:
            self.sil_module.globals.append(
                sil.SILGlobal(
                    symbol=gbl.symbol,
                    ty=gbl.declared_type,
                    const_value=gbl.const_value,  # type: ignore[attr-defined]
                    is_let=gbl.is_let,
                    origin_module=self.module.name,
                )
            )
        for fn in self.module.functions:
            self._emit_function(fn)
            if fn.name == "main" and not fn.params:
                self.sil_module.entry_symbol = fn.symbol
        for cls in self.module.classes:
            info = self.program.classes_by_qualified_name[cls.qualified_name]
            for ini in cls.inits:
                self._emit_init(ini, info)
            for method in cls.methods:
                self._emit_function(method, owner=info)
        return self.sil_module

    # -- function-level drivers ------------------------------------------------

    def _emit_function(self, fn: ast.FuncDecl,
                       owner: Optional[ClassInfo] = None) -> None:
        param_types: List[Type] = []
        if owner is not None:
            param_types.append(owner.type)
        param_types.extend(p.ty for p in fn.params)
        silfn = sil.SILFunction(
            symbol=fn.symbol,
            param_types=list(param_types),
            ret_type=fn.ret_type,
            throws=fn.throws,
            source_module=self.module.name,
        )
        emitter = _FunctionEmitter(self, silfn)
        bindings: List[Tuple[ast.VarBinding, bool]] = []
        if owner is not None:
            self_binding = _find_self_binding(fn)
            bindings.append((self_binding, True))
        for p in fn.params:
            bindings.append((p.binding, True))
        emitter.begin(bindings)
        emitter.emit_block_stmts(fn.body)
        emitter.finish_void_fallthrough()
        self.sil_module.functions.append(silfn)

    def _emit_init(self, ini: ast.InitDecl, owner: ClassInfo) -> None:
        param_types = [p.ty for p in ini.params]
        silfn = sil.SILFunction(
            symbol=ini.symbol,
            param_types=list(param_types),
            ret_type=owner.type,
            throws=ini.throws,
            source_module=self.module.name,
        )
        emitter = _FunctionEmitter(self, silfn)
        bindings = [(p.binding, True) for p in ini.params]
        emitter.begin_init(bindings, ini, owner)
        emitter.emit_block_stmts(ini.body)
        emitter.finish_init()
        self.sil_module.functions.append(silfn)

    def emit_closure_function(self, closure: ast.ClosureExpr) -> None:
        param_types = [p.ty for p in closure.params]
        silfn = sil.SILFunction(
            symbol=closure.symbol,
            param_types=list(param_types),  # + hidden ctx param
            ret_type=closure.ret_type,
            throws=False,
            source_module=self.module.name,
        )
        emitter = _FunctionEmitter(self, silfn)
        bindings = [(p.binding, True) for p in closure.params]
        emitter.begin_closure(bindings, closure)
        emitter.emit_block_stmts(closure.body)
        emitter.finish_void_fallthrough()
        self.sil_module.functions.append(silfn)

    def thunk_for(self, fn: ast.FuncDecl, fty: FuncType) -> str:
        """Bare forwarding thunk so a plain function can be a closure value."""
        symbol = f"{fn.symbol}$thunk"
        if symbol in self._thunks:
            return symbol
        self._thunks[symbol] = symbol
        silfn = sil.SILFunction(
            symbol=symbol,
            param_types=list(fty.params),
            ret_type=fty.ret,
            throws=fty.throws,
            is_bare=True,
            source_module=self.module.name,
        )
        params = [silfn.new_temp() for _ in fty.params]
        ctx = silfn.new_temp()  # hidden context, unused
        silfn.param_temps = params + [ctx]
        entry = silfn.new_block("entry")
        result = silfn.new_temp() if fty.ret != VOID else None
        if fty.throws:
            normal = silfn.new_block("normal")
            error = silfn.new_block("error")
            err = silfn.new_temp()
            entry.instrs.append(
                sil.TryApply(result=result, callee=fn.symbol, args=tuple(params),
                             normal_target="normal", error_target="error",
                             error_result=err))
            normal.instrs.append(sil.Return(value=result))
            error.instrs.append(sil.Throw(code=err))
        else:
            entry.instrs.append(
                sil.Apply(result=result, callee=fn.symbol, args=tuple(params)))
            entry.instrs.append(sil.Return(value=result))
        self.sil_module.functions.append(silfn)
        return symbol


def _find_self_binding(fn: ast.FuncDecl) -> ast.VarBinding:
    """Sema bound 'self' in the method's scope; rediscover it lazily.

    Methods don't carry an explicit self Param node, so we synthesise a
    binding of the right shape here; SILGen only needs uid/ty/boxed, and
    sema marked captured-self bindings via SelfExpr.binding, so we reuse the
    binding object sema created by scanning the body for the first SelfExpr.
    """
    found: List[ast.VarBinding] = []

    def visit(node):
        if isinstance(node, ast.SelfExpr) and isinstance(node.binding, ast.VarBinding):
            found.append(node.binding)
            return

    _walk_ast(fn.body, visit)
    if found:
        return found[0]
    # Body never mentions self: synthesise a placeholder binding.
    ty = ClassType(fn.owner_class) if fn.owner_class else None
    return ast.VarBinding(name="self", ty=ty, is_let=True, kind="self", uid=-id(fn))


#: Annotation fields that point *out* of the syntax tree (cyclic).
#: Note "target" is structural on AssignStmt but an annotation on CallExpr.
_NON_STRUCTURAL_FIELDS = frozenset(
    {"binding", "member_kind", "captures", "error_binding"}
)


def _walk_ast(node, visit, _seen=None) -> None:
    if _seen is None:
        _seen = set()
    if id(node) in _seen:
        return
    _seen.add(id(node))
    visit(node)
    if isinstance(node, (list, tuple)):
        for item in node:
            _walk_ast(item, visit, _seen)
        return
    if not isinstance(node, ast.Node):
        return
    for name, value in vars(node).items():
        if name in _NON_STRUCTURAL_FIELDS:
            continue
        if name == "target" and isinstance(node, ast.CallExpr):
            continue
        if isinstance(value, (ast.Node, list, tuple)):
            _walk_ast(value, visit, _seen)


class _FunctionEmitter:
    """Emits the body of one SIL function."""

    def __init__(self, parent: ModuleSILGen, silfn: sil.SILFunction):
        self.gen = parent
        self.fn = silfn
        self.cur: Optional[sil.SILBlock] = None
        self.storage: Dict[int, _Storage] = {}
        self.scopes: List[List[Tuple[str, object]]] = []
        self.pending: List[EValue] = []
        self.loops: List[_LoopInfo] = []
        self.handlers: List[_Handler] = []
        self.init_ctx: Optional[_InitContext] = None
        self._label_counter = 0
        self._trap_label: Optional[str] = None

    # -- low-level emission ----------------------------------------------------

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def emit(self, instr: sil.SILInstr) -> Optional[sil.Temp]:
        assert self.cur is not None
        self.cur.instrs.append(instr)
        return instr.result

    def _new_result(self) -> sil.Temp:
        return self.fn.new_temp()

    def _set_block(self, label: str) -> sil.SILBlock:
        self.cur = self.fn.block(label)
        return self.cur

    def _start_block(self, label: str) -> sil.SILBlock:
        blk = self.fn.new_block(label)
        self.cur = blk
        return blk

    @property
    def _terminated(self) -> bool:
        return self.cur is not None and self.cur.terminator is not None

    # -- prologue variants ---------------------------------------------------------

    def begin(self, param_bindings: List[Tuple[ast.VarBinding, bool]]) -> None:
        """Standard function/method prologue: slots for +1 params."""
        self._start_block("entry")
        self.scopes.append([])
        if self.fn.throws:
            self.handlers.append(_Handler(kind="func"))
        for binding, owned in param_bindings:
            temp = self.fn.new_temp()
            self.fn.param_temps.append(temp)
            self._bind_param(binding, temp, owned)

    def begin_closure(self, param_bindings, closure: ast.ClosureExpr) -> None:
        self._start_block("entry")
        self.scopes.append([])
        for binding, owned in param_bindings:
            temp = self.fn.new_temp()
            self.fn.param_temps.append(temp)
            self._bind_param(binding, temp, owned)
        ctx = self.fn.new_temp()
        self.fn.param_temps.append(ctx)
        # Captured boxes live in the context object after the fnptr and
        # capture-count words: capture i sits at field index i + 2
        # (layout.CLOSURE_CAPS_OFFSET).
        for i, captured in enumerate(closure.captures):
            box = self._new_result()
            self.emit(sil.FieldLoad(result=box, obj=ctx, index=i + 2,
                                    ty=captured.ty))
            self.storage[captured.uid] = _Storage(kind="box", temp=box,
                                                  ty=captured.ty)

    def begin_init(self, param_bindings, ini: ast.InitDecl,
                   owner: ClassInfo) -> None:
        self._start_block("entry")
        self.scopes.append([])
        if ini.throws:
            self.handlers.append(_Handler(kind="func"))
        for binding, owned in param_bindings:
            temp = self.fn.new_temp()
            self.fn.param_temps.append(temp)
            self._bind_param(binding, temp, owned)
        # Allocate self.
        self_temp = self._new_result()
        cls = owner.decl
        self.emit(sil.AllocRef(result=self_temp, class_symbol=cls.qualified_name,
                               type_id=cls.type_id, num_fields=len(cls.fields)))
        self_slot = self._new_result()
        self.emit(sil.AllocStack(result=self_slot, ty=owner.type, name="self"))
        self.emit(sil.Store(value=self_temp, addr=self_slot))
        self_binding = self._find_init_self_binding(ini)
        self.storage[self_binding.uid] = _Storage(kind="slot", temp=self_slot,
                                                  ty=owner.type)
        self.init_ctx = _InitContext(self_slot=self_slot, class_info=owner)
        if ini.throws:
            # Init flags for ref fields: 0 at entry, 1 after first store.
            # mem2reg + out-of-SSA later turn these into the Listing 11 blow-up.
            err_slot = self._new_result()
            self.emit(sil.AllocStack(result=err_slot, ty=INT, name="swifterror"))
            self.init_ctx.err_slot = err_slot
            zero = self._new_result()
            self.emit(sil.ConstInt(result=zero, value=0))
            for fld in cls.fields:
                if fld.ty.is_ref():
                    flag = self._new_result()
                    self.emit(sil.AllocStack(result=flag, ty=INT,
                                             name=f"{fld.name}$init"))
                    self.emit(sil.Store(value=zero, addr=flag))
                    self.init_ctx.flags[fld.index] = flag
            self.init_ctx.cleanup_label = "init_error_cleanup"

    def _find_init_self_binding(self, ini: ast.InitDecl) -> ast.VarBinding:
        found: List[ast.VarBinding] = []

        def visit(node):
            if isinstance(node, ast.SelfExpr) and isinstance(node.binding, ast.VarBinding):
                found.append(node.binding)

        _walk_ast(ini.body, visit)
        if found:
            return found[0]
        owner = self.init_ctx.class_info if self.init_ctx else None
        return ast.VarBinding(name="self", ty=None, is_let=True, kind="self",
                              uid=-id(ini))

    def _bind_param(self, binding: ast.VarBinding, temp: sil.Temp,
                    owned: bool) -> None:
        if binding is None:
            return
        if binding.boxed:
            box = self._new_result()
            self.emit(sil.AllocBox(result=box, ty=binding.ty,
                                   elem_is_ref=binding.ty.is_ref(),
                                   name=binding.name))
            self.emit(sil.BoxSet(box=box, value=temp,
                                 is_ref=binding.ty.is_ref()))
            self.storage[binding.uid] = _Storage(kind="box", temp=box,
                                                 ty=binding.ty)
            self.scopes[-1].append(("release_box", box))
            return
        slot = self._new_result()
        self.emit(sil.AllocStack(result=slot, ty=binding.ty, name=binding.name))
        self.emit(sil.Store(value=temp, addr=slot))
        self.storage[binding.uid] = _Storage(kind="slot", temp=slot,
                                             ty=binding.ty)
        if binding.ty.is_ref() and not self.fn.is_bare:
            self.scopes[-1].append(("release_slot", (slot, binding.ty)))

    # -- epilogues ---------------------------------------------------------------

    def finish_void_fallthrough(self) -> None:
        if not self._terminated:
            if self.fn.ret_type not in (None, VOID):
                # sema guaranteed all paths return; this block is unreachable.
                self.emit(sil.Unreachable(reason="missing return"))
            else:
                self._emit_unwind_all_scopes()
                self.emit(sil.Return(value=None))
        self._finalize_blocks()

    def finish_init(self) -> None:
        if not self._terminated:
            self._emit_unwind_all_scopes()
            result = self._new_result()
            self.emit(sil.Load(result=result, addr=self.init_ctx.self_slot,
                               ty=self.init_ctx.class_info.type))
            self.emit(sil.Return(value=result))
        self._emit_init_cleanup_block_if_needed()
        self._finalize_blocks()

    def _emit_init_cleanup_block_if_needed(self) -> None:
        ctx = self.init_ctx
        if ctx is None or not ctx.cleanup_label:
            return
        if not any(b.label == ctx.cleanup_label for b in self.fn.blocks):
            if not self._cleanup_label_used:
                return
        if not any(b.label == ctx.cleanup_label for b in self.fn.blocks):
            self._start_block(ctx.cleanup_label)
            self_val = self._new_result()
            self.emit(sil.Load(result=self_val, addr=ctx.self_slot,
                               ty=ctx.class_info.type))
            for index, flag in ctx.flags.items():
                flag_val = self._new_result()
                self.emit(sil.Load(result=flag_val, addr=flag, ty=INT))
                release_label = self._label("release_field")
                cont_label = self._label("cont")
                self.emit(sil.CondBr(cond=flag_val, true_target=release_label,
                                     false_target=cont_label))
                self._start_block(release_label)
                fld_ty = ctx.class_info.decl.fields[index].ty
                value = self._new_result()
                self.emit(sil.FieldLoad(result=value, obj=self_val, index=index,
                                        ty=fld_ty))
                self.emit(sil.Release(value=value))
                self.emit(sil.Br(target=cont_label))
                self._start_block(cont_label)
            self.emit(sil.ApplyBuiltin(builtin="dealloc_partial",
                                       args=(self_val,)))
            err = self._new_result()
            self.emit(sil.Load(result=err, addr=ctx.err_slot, ty=INT))
            self.emit(sil.Throw(code=err))

    @property
    def _cleanup_label_used(self) -> bool:
        ctx = self.init_ctx
        if ctx is None:
            return False
        for blk in self.fn.blocks:
            for instr in blk.instrs:
                if isinstance(instr, sil.Br) and instr.target == ctx.cleanup_label:
                    return True
        return False

    def _finalize_blocks(self) -> None:
        """Ensure every block is terminated (dead blocks get Unreachable)."""
        if self._trap_label is not None:
            blk = self.fn.block(self._trap_label)
            if blk.terminator is None:
                blk.instrs.append(sil.Unreachable(reason="trap"))
        for blk in self.fn.blocks:
            if blk.terminator is None:
                blk.instrs.append(sil.Unreachable(reason="fallthrough"))

    # -- scope & cleanup machinery ---------------------------------------------

    def _push_scope(self) -> None:
        self.scopes.append([])

    def _pop_scope_emitting(self) -> None:
        cleanups = self.scopes.pop()
        if not self._terminated:
            self._emit_cleanup_list(cleanups)

    def _emit_cleanup_list(self, cleanups) -> None:
        for kind, payload in reversed(cleanups):
            if kind == "release_slot":
                slot, ty = payload
                value = self._new_result()
                self.emit(sil.Load(result=value, addr=slot, ty=ty))
                self.emit(sil.Release(value=value))
            elif kind == "release_box":
                self.emit(sil.Release(value=payload))

    def _emit_unwind_scopes(self, down_to_depth: int) -> None:
        """Emit cleanups for scopes deeper than *down_to_depth* (not popping)."""
        for scope in reversed(self.scopes[down_to_depth:]):
            self._emit_cleanup_list(scope)

    def _emit_unwind_all_scopes(self) -> None:
        self._emit_unwind_scopes(0)

    def _release_pending(self, down_to: int = 0) -> None:
        """Release owned temps beyond *down_to* (emits, then truncates)."""
        while len(self.pending) > down_to:
            ev = self.pending.pop()
            self.emit(sil.Release(value=ev.temp))

    def _emit_pending_releases_nonmutating(self) -> None:
        for ev in reversed(self.pending):
            self.emit(sil.Release(value=ev.temp))

    def _own(self, ev: EValue) -> EValue:
        """Ensure *ev* is owned (+1); retains borrowed ref values."""
        if not ev.ty.is_ref() or isinstance(ev.ty, NilType):
            return ev
        if ev.owned:
            return ev
        self.emit(sil.Retain(value=ev.temp))
        owned = EValue(ev.temp, ev.ty, owned=True)
        self.pending.append(owned)
        return owned

    def _consume(self, ev: EValue) -> sil.Temp:
        """Mark an owned value as consumed (forwarded); returns its temp."""
        if ev.owned:
            for i in range(len(self.pending) - 1, -1, -1):
                if self.pending[i] is ev:
                    del self.pending[i]
                    break
        return ev.temp

    def _track_owned(self, temp: sil.Temp, ty: Type) -> EValue:
        ev = EValue(temp, ty, owned=True)
        if ty.is_ref():
            self.pending.append(ev)
        return ev

    # -- error propagation --------------------------------------------------------

    def _emit_error_path(self, err_temp: sil.Temp) -> None:
        """Emit the unwind code for an error edge; leaves the block terminated."""
        self._emit_pending_releases_nonmutating()
        handler = self.handlers[-1]
        if handler.kind == "catch":
            self._emit_unwind_scopes(handler.scope_depth)
            self.emit(sil.Store(value=err_temp, addr=handler.err_slot))
            self.emit(sil.Br(target=handler.catch_label))
            return
        # Propagate out of the function.
        self._emit_unwind_scopes(0)
        ctx = self.init_ctx
        if ctx is not None and ctx.cleanup_label:
            self.emit(sil.Store(value=err_temp, addr=ctx.err_slot))
            self.emit(sil.Br(target=ctx.cleanup_label))
            return
        self.emit(sil.Throw(code=err_temp))

    # -- statements -----------------------------------------------------------------

    def emit_block_stmts(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.stmts:
            if self._terminated:
                # Dead code after return/throw/break: skip (sema allows it).
                break
            self.emit_stmt(stmt)
        self._pop_scope_emitting()

    def emit_stmt(self, stmt: ast.Stmt) -> None:
        pending_depth = len(self.pending)
        if isinstance(stmt, ast.VarDeclStmt):
            self._emit_var_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._emit_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.emit_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._emit_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._emit_while(stmt)
        elif isinstance(stmt, ast.ForRangeStmt):
            self._emit_for_range(stmt)
        elif isinstance(stmt, ast.ForEachStmt):
            self._emit_for_each(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._emit_return(stmt)
        elif isinstance(stmt, ast.ThrowStmt):
            self._emit_throw(stmt)
        elif isinstance(stmt, ast.DoCatchStmt):
            self._emit_do_catch(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            self._release_pending(pending_depth)
            loop = self.loops[-1]
            self._emit_unwind_scopes(loop.scope_depth)
            self.emit(sil.Br(target=loop.break_label))
            return
        elif isinstance(stmt, ast.ContinueStmt):
            self._release_pending(pending_depth)
            loop = self.loops[-1]
            self._emit_unwind_scopes(loop.scope_depth)
            self.emit(sil.Br(target=loop.continue_label))
            return
        else:  # pragma: no cover
            raise SILGenError(f"unknown statement {type(stmt).__name__}")
        if not self._terminated:
            self._release_pending(pending_depth)
        else:
            del self.pending[pending_depth:]

    def _emit_var_decl(self, stmt: ast.VarDeclStmt) -> None:
        binding: ast.VarBinding = stmt.binding
        if stmt.init is not None:
            ev = self.emit_expr(stmt.init)
            ev = self._coerce_nil(ev, binding.ty)
            ev = self._own(ev)
            value = self._consume(ev)
        else:
            value = self._zero_value(binding.ty)
        if binding.boxed:
            box = self._new_result()
            self.emit(sil.AllocBox(result=box, ty=binding.ty,
                                   elem_is_ref=binding.ty.is_ref(),
                                   name=binding.name))
            self.emit(sil.BoxSet(box=box, value=value,
                                 is_ref=binding.ty.is_ref()))
            self.storage[binding.uid] = _Storage(kind="box", temp=box,
                                                 ty=binding.ty)
            self.scopes[-1].append(("release_box", box))
        else:
            slot = self._new_result()
            self.emit(sil.AllocStack(result=slot, ty=binding.ty,
                                     name=binding.name))
            self.emit(sil.Store(value=value, addr=slot))
            self.storage[binding.uid] = _Storage(kind="slot", temp=slot,
                                                 ty=binding.ty)
            if binding.ty.is_ref():
                self.scopes[-1].append(("release_slot", (slot, binding.ty)))

    def _zero_value(self, ty: Type) -> sil.Temp:
        temp = self._new_result()
        if ty == DOUBLE:
            self.emit(sil.ConstFloat(result=temp, value=0.0))
        elif ty.is_ref():
            self.emit(sil.ConstNil(result=temp))
        else:
            self.emit(sil.ConstInt(result=temp, value=0))
        return temp

    def _coerce_nil(self, ev: EValue, target: Type) -> EValue:
        if isinstance(ev.ty, NilType):
            return EValue(ev.temp, target, owned=False)
        return ev

    def _emit_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        if stmt.op is not None:
            # Compound assignment: read-modify-write.
            old = self.emit_expr(target)
            rhs = self.emit_expr(stmt.value)
            result = self._new_result()
            if target.ty == STRING:
                self.emit(sil.ApplyBuiltin(result=result, builtin="string_concat",
                                           args=(old.temp, rhs.temp)))
                value = self._track_owned(result, STRING)
            else:
                self.emit(sil.BinOp(result=result, op=stmt.op, lhs=old.temp,
                                    rhs=rhs.temp, is_float=target.ty == DOUBLE))
                value = EValue(result, target.ty)
            self._store_into(target, value)
            return
        rhs = self.emit_expr(stmt.value)
        rhs = self._coerce_nil(rhs, target.ty)
        self._store_into(target, rhs)

    def _store_into(self, target: ast.Expr, value: EValue) -> None:
        is_ref = target.ty.is_ref()
        if is_ref:
            value = self._own(value)
        temp = self._consume(value) if is_ref else value.temp
        if isinstance(target, (ast.Ident, ast.SelfExpr)):
            binding = target.binding
            storage = self._storage_for(binding)
            if storage.kind == "global":
                self.emit(sil.GlobalStore(symbol=storage.symbol, value=temp))
                return
            if storage.kind == "box":
                self.emit(sil.BoxSet(box=storage.temp, value=temp,
                                     is_ref=is_ref))
                return
            if is_ref:
                old = self._new_result()
                self.emit(sil.Load(result=old, addr=storage.temp, ty=target.ty))
                self.emit(sil.Store(value=temp, addr=storage.temp))
                self.emit(sil.Release(value=old))
            else:
                self.emit(sil.Store(value=temp, addr=storage.temp))
            return
        if isinstance(target, ast.MemberExpr):
            base = self.emit_expr(target.base)
            fld: ast.FieldDecl = target.member_kind[1]
            self.emit(sil.FieldStore(obj=base.temp, index=fld.index, value=temp,
                                     is_ref=is_ref))
            # Track throwing-init flags.
            ctx = self.init_ctx
            if (
                ctx is not None
                and isinstance(target.base, ast.SelfExpr)
                and fld.index in ctx.flags
            ):
                one = self._new_result()
                self.emit(sil.ConstInt(result=one, value=1))
                self.emit(sil.Store(value=one, addr=ctx.flags[fld.index]))
            return
        if isinstance(target, ast.IndexExpr):
            base = self.emit_expr(target.base)
            index = self.emit_expr(target.index)
            self.emit(sil.ArraySet(array=base.temp, index=index.temp, value=temp,
                                   is_ref=is_ref))
            return
        raise SILGenError("unsupported assignment target")

    def _storage_for(self, binding) -> _Storage:
        if isinstance(binding, ast.VarBinding) and binding.kind == "global":
            return _Storage(kind="global", symbol=binding.symbol, ty=binding.ty)
        storage = self.storage.get(binding.uid if binding else -1)
        if storage is None:
            raise SILGenError(
                f"no storage for binding "
                f"{getattr(binding, 'name', binding)!r} in {self.fn.symbol}")
        return storage

    def _emit_if(self, stmt: ast.IfStmt) -> None:
        cond = self.emit_expr(stmt.cond)
        then_label = self._label("if_then")
        else_label = self._label("if_else") if stmt.else_block else None
        merge_label = self._label("if_end")
        self.emit(sil.CondBr(cond=cond.temp, true_target=then_label,
                             false_target=else_label or merge_label))
        self._start_block(then_label)
        self.emit_block_stmts(stmt.then_block)
        then_terminated = self._terminated
        if not then_terminated:
            self.emit(sil.Br(target=merge_label))
        if stmt.else_block is not None:
            self._start_block(else_label)
            self.emit_block_stmts(stmt.else_block)
            if not self._terminated:
                self.emit(sil.Br(target=merge_label))
        self._start_block(merge_label)

    def _emit_while(self, stmt: ast.WhileStmt) -> None:
        cond_label = self._label("while_cond")
        body_label = self._label("while_body")
        exit_label = self._label("while_end")
        self.emit(sil.Br(target=cond_label))
        self._start_block(cond_label)
        pending_depth = len(self.pending)
        cond = self.emit_expr(stmt.cond)
        self._release_pending(pending_depth)
        self.emit(sil.CondBr(cond=cond.temp, true_target=body_label,
                             false_target=exit_label))
        self._start_block(body_label)
        self.loops.append(_LoopInfo(cond_label, exit_label, len(self.scopes)))
        self.emit_block_stmts(stmt.body)
        self.loops.pop()
        if not self._terminated:
            self.emit(sil.Br(target=cond_label))
        self._start_block(exit_label)

    def _emit_for_range(self, stmt: ast.ForRangeStmt) -> None:
        start = self.emit_expr(stmt.start)
        end = self.emit_expr(stmt.end)
        slot = self._new_result()
        self.emit(sil.AllocStack(result=slot, ty=INT, name=stmt.var_name))
        self.emit(sil.Store(value=start.temp, addr=slot))
        self.storage[stmt.binding.uid] = _Storage(kind="slot", temp=slot, ty=INT)
        cond_label = self._label("for_cond")
        body_label = self._label("for_body")
        inc_label = self._label("for_inc")
        exit_label = self._label("for_end")
        self.emit(sil.Br(target=cond_label))
        self._start_block(cond_label)
        ivar = self._new_result()
        self.emit(sil.Load(result=ivar, addr=slot, ty=INT))
        cmp = self._new_result()
        op = "<=" if stmt.inclusive else "<"
        self.emit(sil.CmpOp(result=cmp, op=op, lhs=ivar, rhs=end.temp))
        self.emit(sil.CondBr(cond=cmp, true_target=body_label,
                             false_target=exit_label))
        self._start_block(body_label)
        self.loops.append(_LoopInfo(inc_label, exit_label, len(self.scopes)))
        self.emit_block_stmts(stmt.body)
        self.loops.pop()
        if not self._terminated:
            self.emit(sil.Br(target=inc_label))
        self._start_block(inc_label)
        cur = self._new_result()
        self.emit(sil.Load(result=cur, addr=slot, ty=INT))
        one = self._new_result()
        self.emit(sil.ConstInt(result=one, value=1))
        nxt = self._new_result()
        self.emit(sil.BinOp(result=nxt, op="+", lhs=cur, rhs=one))
        self.emit(sil.Store(value=nxt, addr=slot))
        self.emit(sil.Br(target=cond_label))
        self._start_block(exit_label)

    def _emit_for_each(self, stmt: ast.ForEachStmt) -> None:
        self._push_scope()  # loop-owned scope: array + element slot
        arr = self.emit_expr(stmt.iterable)
        arr = self._own(arr)
        arr_temp = self._consume(arr)
        arr_slot = self._new_result()
        self.emit(sil.AllocStack(result=arr_slot, ty=arr.ty, name="$iter"))
        self.emit(sil.Store(value=arr_temp, addr=arr_slot))
        self.scopes[-1].append(("release_slot", (arr_slot, arr.ty)))
        count = self._new_result()
        self.emit(sil.ArrayCount(result=count, array=arr_temp))
        islot = self._new_result()
        self.emit(sil.AllocStack(result=islot, ty=INT, name="$idx"))
        zero = self._new_result()
        self.emit(sil.ConstInt(result=zero, value=0))
        self.emit(sil.Store(value=zero, addr=islot))
        elem_ty = stmt.binding.ty
        cond_label = self._label("each_cond")
        body_label = self._label("each_body")
        inc_label = self._label("each_inc")
        exit_label = self._label("each_end")
        self.emit(sil.Br(target=cond_label))
        self._start_block(cond_label)
        ivar = self._new_result()
        self.emit(sil.Load(result=ivar, addr=islot, ty=INT))
        cmp = self._new_result()
        self.emit(sil.CmpOp(result=cmp, op="<", lhs=ivar, rhs=count))
        self.emit(sil.CondBr(cond=cmp, true_target=body_label,
                             false_target=exit_label))
        self._start_block(body_label)
        arr_val = self._new_result()
        self.emit(sil.Load(result=arr_val, addr=arr_slot, ty=arr.ty))
        i2 = self._new_result()
        self.emit(sil.Load(result=i2, addr=islot, ty=INT))
        elem = self._new_result()
        self.emit(sil.ArrayGet(result=elem, array=arr_val, index=i2, ty=elem_ty))
        self.loops.append(_LoopInfo(inc_label, exit_label, len(self.scopes)))
        self._push_scope()
        if elem_ty.is_ref():
            self.emit(sil.Retain(value=elem))
        eslot = self._new_result()
        self.emit(sil.AllocStack(result=eslot, ty=elem_ty, name=stmt.var_name))
        self.emit(sil.Store(value=elem, addr=eslot))
        self.storage[stmt.binding.uid] = _Storage(kind="slot", temp=eslot,
                                                  ty=elem_ty)
        if elem_ty.is_ref():
            self.scopes[-1].append(("release_slot", (eslot, elem_ty)))
        self.emit_block_stmts(stmt.body)
        self._pop_scope_emitting()
        self.loops.pop()
        if not self._terminated:
            self.emit(sil.Br(target=inc_label))
        self._start_block(inc_label)
        cur = self._new_result()
        self.emit(sil.Load(result=cur, addr=islot, ty=INT))
        one = self._new_result()
        self.emit(sil.ConstInt(result=one, value=1))
        nxt = self._new_result()
        self.emit(sil.BinOp(result=nxt, op="+", lhs=cur, rhs=one))
        self.emit(sil.Store(value=nxt, addr=islot))
        self.emit(sil.Br(target=cond_label))
        self._start_block(exit_label)
        self._pop_scope_emitting()

    def _emit_return(self, stmt: ast.ReturnStmt) -> None:
        if self.init_ctx is not None:
            self._emit_unwind_all_scopes()
            result = self._new_result()
            self.emit(sil.Load(result=result, addr=self.init_ctx.self_slot,
                               ty=self.init_ctx.class_info.type))
            self.emit(sil.Return(value=result))
            return
        if stmt.value is None:
            self._emit_pending_releases_nonmutating()
            self._emit_unwind_all_scopes()
            self.emit(sil.Return(value=None))
            return
        ev = self.emit_expr(stmt.value)
        ev = self._coerce_nil(ev, self.fn.ret_type)
        if ev.ty.is_ref():
            ev = self._own(ev)
            temp = self._consume(ev)
        else:
            temp = ev.temp
        self._emit_pending_releases_nonmutating()
        self._emit_unwind_all_scopes()
        self.emit(sil.Return(value=temp))

    def _emit_throw(self, stmt: ast.ThrowStmt) -> None:
        code = self.emit_expr(stmt.code)
        self._emit_error_path(code.temp)

    def _emit_do_catch(self, stmt: ast.DoCatchStmt) -> None:
        err_slot = self._new_result()
        self.emit(sil.AllocStack(result=err_slot, ty=INT, name="$caught"))
        catch_label = self._label("catch")
        merge_label = self._label("do_end")
        self.handlers.append(_Handler(kind="catch", scope_depth=len(self.scopes),
                                      catch_label=catch_label, err_slot=err_slot))
        self.emit_block_stmts(stmt.body)
        self.handlers.pop()
        body_terminated = self._terminated
        if not body_terminated:
            self.emit(sil.Br(target=merge_label))
        catch_reached = any(
            isinstance(i, sil.Br) and i.target == catch_label
            for blk in self.fn.blocks for i in blk.instrs
        )
        if catch_reached or True:
            # Always emit the catch block; unreachable ones are cleaned later.
            self._start_block(catch_label)
            self._push_scope()
            self.storage[stmt.error_binding.uid] = _Storage(
                kind="slot", temp=err_slot, ty=INT)
            self.emit_block_stmts(stmt.catch_body)
            self._pop_scope_emitting()
            if not self._terminated:
                self.emit(sil.Br(target=merge_label))
        self._start_block(merge_label)

    # -- expressions -------------------------------------------------------------

    def emit_expr(self, expr: ast.Expr) -> EValue:
        if isinstance(expr, ast.IntLit):
            temp = self._new_result()
            self.emit(sil.ConstInt(result=temp, value=expr.value))
            return EValue(temp, INT)
        if isinstance(expr, ast.FloatLit):
            temp = self._new_result()
            self.emit(sil.ConstFloat(result=temp, value=expr.value))
            return EValue(temp, DOUBLE)
        if isinstance(expr, ast.BoolLit):
            temp = self._new_result()
            self.emit(sil.ConstInt(result=temp, value=1 if expr.value else 0))
            return EValue(temp, BOOL)
        if isinstance(expr, ast.StringLit):
            temp = self._new_result()
            self.emit(sil.ConstString(result=temp, value=expr.value))
            return EValue(temp, STRING, owned=False)  # immortal literal
        if isinstance(expr, ast.NilLit):
            temp = self._new_result()
            self.emit(sil.ConstNil(result=temp))
            return EValue(temp, expr.ty)
        if isinstance(expr, (ast.Ident, ast.SelfExpr)):
            return self._emit_ident(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._emit_binary(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self._emit_unary(expr)
        if isinstance(expr, ast.CallExpr):
            return self._emit_call(expr, in_try=False)
        if isinstance(expr, ast.MemberExpr):
            return self._emit_member(expr)
        if isinstance(expr, ast.IndexExpr):
            return self._emit_index(expr)
        if isinstance(expr, ast.ArrayLit):
            return self._emit_array_lit(expr)
        if isinstance(expr, ast.ArrayRepeating):
            return self._emit_array_repeating(expr)
        if isinstance(expr, ast.ClosureExpr):
            return self._emit_closure(expr)
        if isinstance(expr, ast.TryExpr):
            return self._emit_try(expr)
        raise SILGenError(f"unknown expression {type(expr).__name__}")

    def _emit_ident(self, expr) -> EValue:
        binding = expr.binding
        if isinstance(binding, ast.VarBinding):
            if binding.kind == "global":
                temp = self._new_result()
                is_object = binding.ty.is_ref()
                self.emit(sil.GlobalLoad(result=temp, symbol=binding.symbol,
                                         ty=binding.ty, is_object=is_object))
                return EValue(temp, binding.ty)
            storage = self._storage_for(binding)
            temp = self._new_result()
            if storage.kind == "box":
                self.emit(sil.BoxGet(result=temp, box=storage.temp,
                                     ty=binding.ty))
            else:
                self.emit(sil.Load(result=temp, addr=storage.temp,
                                   ty=binding.ty))
            return EValue(temp, binding.ty)
        if isinstance(binding, ast.FuncDecl):
            # Function used as a value: wrap in a capture-free closure.
            thunk = self.gen.thunk_for(binding, expr.ty)
            temp = self._new_result()
            self.emit(sil.MakeClosure(result=temp, fn_symbol=thunk, captures=()))
            return self._track_owned(temp, expr.ty)
        raise SILGenError(f"identifier {getattr(expr, 'name', 'self')!r} "
                          "cannot be used as a value here")

    def _emit_binary(self, expr: ast.BinaryExpr) -> EValue:
        op = expr.op
        if op in ("&&", "||"):
            return self._emit_short_circuit(expr)
        left = self.emit_expr(expr.left)
        right = self.emit_expr(expr.right)
        lt = expr.left.ty
        # String operations.
        if lt == STRING and expr.right.ty == STRING:
            temp = self._new_result()
            if op == "+":
                self.emit(sil.ApplyBuiltin(result=temp, builtin="string_concat",
                                           args=(left.temp, right.temp)))
                return self._track_owned(temp, STRING)
            if op in ("==", "!="):
                self.emit(sil.ApplyBuiltin(result=temp, builtin="string_eq",
                                           args=(left.temp, right.temp)))
                if op == "!=":
                    inv = self._new_result()
                    self.emit(sil.NotOp(result=inv, value=temp))
                    return EValue(inv, BOOL)
                return EValue(temp, BOOL)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            temp = self._new_result()
            is_float = lt == DOUBLE or expr.right.ty == DOUBLE
            self.emit(sil.CmpOp(result=temp, op=op, lhs=left.temp,
                                rhs=right.temp, operand_is_float=is_float))
            return EValue(temp, BOOL)
        temp = self._new_result()
        self.emit(sil.BinOp(result=temp, op=op, lhs=left.temp, rhs=right.temp,
                            is_float=expr.ty == DOUBLE))
        return EValue(temp, expr.ty)

    def _emit_short_circuit(self, expr: ast.BinaryExpr) -> EValue:
        slot = self._new_result()
        self.emit(sil.AllocStack(result=slot, ty=BOOL, name="$sc"))
        left = self.emit_expr(expr.left)
        self.emit(sil.Store(value=left.temp, addr=slot))
        rhs_label = self._label("sc_rhs")
        merge_label = self._label("sc_end")
        if expr.op == "&&":
            self.emit(sil.CondBr(cond=left.temp, true_target=rhs_label,
                                 false_target=merge_label))
        else:
            self.emit(sil.CondBr(cond=left.temp, true_target=merge_label,
                                 false_target=rhs_label))
        self._start_block(rhs_label)
        depth = len(self.pending)
        right = self.emit_expr(expr.right)
        self.emit(sil.Store(value=right.temp, addr=slot))
        self._release_pending(depth)
        self.emit(sil.Br(target=merge_label))
        self._start_block(merge_label)
        temp = self._new_result()
        self.emit(sil.Load(result=temp, addr=slot, ty=BOOL))
        return EValue(temp, BOOL)

    def _emit_unary(self, expr: ast.UnaryExpr) -> EValue:
        operand = self.emit_expr(expr.operand)
        temp = self._new_result()
        if expr.op == "-":
            self.emit(sil.NegOp(result=temp, value=operand.temp,
                                is_float=expr.ty == DOUBLE))
        else:
            self.emit(sil.NotOp(result=temp, value=operand.temp))
        return EValue(temp, expr.ty)

    def _emit_member(self, expr: ast.MemberExpr) -> EValue:
        kind = expr.member_kind
        base = self.emit_expr(expr.base)
        if kind == ("count",):
            temp = self._new_result()
            if base.ty == STRING:
                self.emit(sil.StringLen(result=temp, value=base.temp))
            else:
                self.emit(sil.ArrayCount(result=temp, array=base.temp))
            return EValue(temp, INT)
        if isinstance(kind, tuple) and kind[0] == "field":
            fld: ast.FieldDecl = kind[1]
            temp = self._new_result()
            self.emit(sil.FieldLoad(result=temp, obj=base.temp, index=fld.index,
                                    ty=fld.ty))
            return EValue(temp, fld.ty)
        raise SILGenError(f"cannot read member {expr.name!r}")

    def _emit_index(self, expr: ast.IndexExpr) -> EValue:
        base = self.emit_expr(expr.base)
        index = self.emit_expr(expr.index)
        temp = self._new_result()
        if base.ty == STRING:
            self.emit(sil.StringIndex(result=temp, value=base.temp,
                                      index=index.temp))
            return EValue(temp, INT)
        elem_ty = base.ty.elem  # type: ignore[union-attr]
        self.emit(sil.ArrayGet(result=temp, array=base.temp, index=index.temp,
                               ty=elem_ty))
        return EValue(temp, elem_ty)

    def _emit_array_lit(self, expr: ast.ArrayLit) -> EValue:
        elem_ty = expr.ty.elem  # type: ignore[union-attr]
        count = self._new_result()
        self.emit(sil.ConstInt(result=count, value=len(expr.elements)))
        initial = self._zero_value(elem_ty)
        arr = self._new_result()
        self.emit(sil.ArrayNew(result=arr, count=count, initial=initial,
                               elem_is_ref=elem_ty.is_ref(),
                               elem_is_float=elem_ty == DOUBLE))
        result = self._track_owned(arr, expr.ty)
        for i, elem in enumerate(expr.elements):
            idx = self._new_result()
            self.emit(sil.ConstInt(result=idx, value=i))
            ev = self.emit_expr(elem)
            ev = self._coerce_nil(ev, elem_ty)
            if elem_ty.is_ref():
                ev = self._own(ev)
                value = self._consume(ev)
            else:
                value = ev.temp
            self.emit(sil.ArraySet(array=arr, index=idx, value=value,
                                   is_ref=elem_ty.is_ref()))
        return result

    def _emit_array_repeating(self, expr: ast.ArrayRepeating) -> EValue:
        count = self.emit_expr(expr.count)
        initial = self.emit_expr(expr.repeating)
        initial = self._coerce_nil(initial, expr.elem_type)
        # The runtime stores `count` references to the initial value: it
        # handles the retains itself (one bulk operation).
        arr = self._new_result()
        self.emit(sil.ArrayNew(result=arr, count=count.temp, initial=initial.temp,
                               elem_is_ref=expr.elem_type.is_ref(),
                               elem_is_float=expr.elem_type == DOUBLE))
        return self._track_owned(arr, expr.ty)

    def _emit_closure(self, expr: ast.ClosureExpr) -> EValue:
        self.gen.emit_closure_function(expr)
        boxes = []
        for captured in expr.captures:
            storage = self._storage_for(captured)
            if storage.kind != "box":
                raise SILGenError(
                    f"captured binding {captured.name!r} is not boxed")
            boxes.append(storage.temp)
        temp = self._new_result()
        self.emit(sil.MakeClosure(result=temp, fn_symbol=expr.symbol,
                                  captures=tuple(boxes)))
        return self._track_owned(temp, expr.ty)

    def _emit_try(self, expr: ast.TryExpr) -> EValue:
        inner = expr.inner
        if isinstance(inner, ast.CallExpr):
            return self._emit_call(inner, in_try=True)
        # 'try' over a non-call (e.g. try (a + b) with nested throwing call):
        # nested calls handle their own try emission.
        return self.emit_expr(inner)

    # -- calls ---------------------------------------------------------------------

    def _emit_call(self, expr: ast.CallExpr, in_try: bool) -> EValue:
        kind = expr.call_kind
        if kind == "builtin":
            return self._emit_builtin_call(expr)
        if kind == "func":
            fn: ast.FuncDecl = expr.target
            args = self._emit_args(expr.args)
            return self._finish_call(expr, fn.symbol, args, fn.throws, None)
        if kind == "method":
            method: ast.FuncDecl = expr.target
            member: ast.MemberExpr = expr.callee  # type: ignore[assignment]
            receiver = self.emit_expr(member.base)
            receiver = self._own(receiver)
            args = [self._consume(receiver)]
            args.extend(self._emit_args(expr.args))
            return self._finish_call(expr, method.symbol, args, method.throws,
                                     None)
        if kind == "ctor":
            ini: ast.InitDecl = expr.target
            args = self._emit_args(expr.args)
            return self._finish_call(expr, ini.symbol, args, ini.throws, None)
        if kind == "value":
            callee = self.emit_expr(expr.callee)
            fty: FuncType = expr.callee.ty  # type: ignore[assignment]
            args = self._emit_args(expr.args)
            return self._finish_call(expr, "", args, fty.throws, callee.temp)
        raise SILGenError(f"unresolved call kind {kind!r}")

    def _emit_args(self, arg_exprs: List[ast.Expr]) -> List[sil.Temp]:
        temps: List[sil.Temp] = []
        for arg in arg_exprs:
            ev = self.emit_expr(arg)
            if ev.ty.is_ref() and not isinstance(ev.ty, NilType):
                ev = self._own(ev)
                temps.append(self._consume(ev))
            else:
                temps.append(ev.temp)
        return temps

    def _finish_call(self, expr: ast.CallExpr, symbol: str,
                     args: List[sil.Temp], throws: bool,
                     closure: Optional[sil.Temp]) -> EValue:
        ret_ty = expr.ty
        result = self._new_result() if ret_ty != VOID else None
        if throws:
            normal = self._label("normal")
            error = self._label("error")
            err = self._new_result()
            self.emit(sil.TryApply(result=result, callee=symbol,
                                   args=tuple(args), normal_target=normal,
                                   error_target=error, error_result=err,
                                   closure=closure))
            self._start_block(error)
            self._emit_error_path(err)
            self._start_block(normal)
        else:
            if closure is not None:
                self.emit(sil.ApplyClosure(result=result, closure=closure,
                                           args=tuple(args)))
            else:
                self.emit(sil.Apply(result=result, callee=symbol,
                                    args=tuple(args)))
        if result is None:
            return EValue(-1, VOID)
        if ret_ty.is_ref():
            return self._track_owned(result, ret_ty)
        return EValue(result, ret_ty)

    def _emit_builtin_call(self, expr: ast.CallExpr) -> EValue:
        name = expr.target
        # Conversions that are pure value operations.
        if name in ("int_identity", "double_identity", "bool_to_int"):
            return self.emit_expr(expr.args[0])
        if name in ("double_to_int", "int_to_double"):
            ev = self.emit_expr(expr.args[0])
            temp = self._new_result()
            self.emit(sil.Convert(result=temp, kind=name, value=ev.temp))
            return EValue(temp, expr.ty)
        if name == "array_append":
            member: ast.MemberExpr = expr.callee  # type: ignore[assignment]
            base = self.emit_expr(member.base)
            elem_ty = base.ty.elem  # type: ignore[union-attr]
            ev = self.emit_expr(expr.args[0])
            ev = self._coerce_nil(ev, elem_ty)
            if elem_ty.is_ref():
                ev = self._own(ev)
                value = self._consume(ev)
            else:
                value = ev.temp
            self.emit(sil.ArrayAppend(array=base.temp, value=value,
                                      is_ref=elem_ty.is_ref()))
            return EValue(-1, VOID)
        if name == "array_remove_last":
            member: ast.MemberExpr = expr.callee  # type: ignore[assignment]
            base = self.emit_expr(member.base)
            elem_ty = base.ty.elem  # type: ignore[union-attr]
            temp = self._new_result()
            self.emit(sil.ArrayRemoveLast(result=temp, array=base.temp,
                                          ty=elem_ty))
            if elem_ty.is_ref():
                return self._track_owned(temp, elem_ty)
            return EValue(temp, elem_ty)
        # Remaining builtins lower to runtime calls with plain args.
        args = []
        for arg in expr.args:
            ev = self.emit_expr(arg)
            args.append(ev.temp)
        result = self._new_result() if expr.ty != VOID else None
        self.emit(sil.ApplyBuiltin(result=result, builtin=name,
                                   args=tuple(args)))
        if result is None:
            return EValue(-1, VOID)
        return EValue(result, expr.ty)


def generate_sil(program: ProgramInfo) -> List[sil.SILModule]:
    """Lower every module of a checked program to SIL."""
    return [ModuleSILGen(module, program).run() for module in program.modules]
