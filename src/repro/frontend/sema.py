"""Semantic analysis for Swiftlet.

``analyze_program`` resolves names across modules, type-checks every body,
annotates the AST in place (``Expr.ty``, ``Ident.binding``, call resolution,
closure capture lists), and returns a :class:`ProgramInfo` that SILGen
consumes.

Key jobs beyond ordinary checking:

* **Closure captures** — any binding referenced from a closure that was
  declared in an enclosing function is recorded in ``ClosureExpr.captures``
  and flagged ``boxed`` so SILGen promotes it to a heap box (Swift's
  capture-by-reference semantics).
* **Throws discipline** — calls to ``throws`` functions must appear under
  ``try``, and ``try`` is only legal where the error can go somewhere (a
  throwing function or a ``do``/``catch``).
* **Constant globals** — module-level ``let``/``var`` initializers must be
  compile-time constants; their values are folded here and later placed in
  the binary's data section (this is what the data-layout experiment of
  Section VI-3 reorders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SemaError
from repro.frontend import ast
from repro.frontend.types import (
    BOOL,
    DOUBLE,
    INT,
    NIL,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    FuncType,
    NilType,
    Type,
    assignable,
)
from repro.runtime.layout import FIRST_CLASS_TYPE_ID, MAX_CLASS_TYPE_ID

#: Builtin free functions: name -> (param types, return type).
BUILTIN_SIGNATURES: Dict[str, Tuple[Tuple[Type, ...], Type]] = {
    "sqrt": ((DOUBLE,), DOUBLE),
    "exp": ((DOUBLE,), DOUBLE),
    "log": ((DOUBLE,), DOUBLE),
    "pow": ((DOUBLE, DOUBLE), DOUBLE),
    "sin": ((DOUBLE,), DOUBLE),
    "cos": ((DOUBLE,), DOUBLE),
    "floor": ((DOUBLE,), DOUBLE),
    "abs": ((INT,), INT),
    "random": ((), INT),
    "seedRandom": ((INT,), VOID),
    "assert": ((BOOL,), VOID),
}

_PRINTABLE = (INT, DOUBLE, BOOL, STRING)


@dataclass
class ClassInfo:
    """Resolved class layout: field order fixes the object layout."""

    decl: ast.ClassDecl
    module: str
    type: ClassType = None  # type: ignore[assignment]
    fields_by_name: Dict[str, ast.FieldDecl] = field(default_factory=dict)
    methods_by_name: Dict[str, ast.FuncDecl] = field(default_factory=dict)


@dataclass
class ModuleEnv:
    """Name tables for one module's top-level declarations."""

    name: str
    functions: Dict[str, ast.FuncDecl] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Dict[str, ast.GlobalDecl] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)


@dataclass
class ProgramInfo:
    """Result of sema over a whole program (a set of modules)."""

    modules: List[ast.Module]
    envs: Dict[str, ModuleEnv]
    classes_by_qualified_name: Dict[str, ClassInfo]
    #: All closures discovered, in SILGen emission order.
    closures: List[ast.ClosureExpr]

    def class_info(self, ty: ClassType) -> ClassInfo:
        return self.classes_by_qualified_name[ty.qualified_name]


class _FuncContext:
    """Tracks the function (or closure) whose body is being checked."""

    def __init__(self, kind: str, ret_type: Type, throws: bool,
                 closure: Optional[ast.ClosureExpr] = None):
        self.kind = kind  # "func" | "method" | "init" | "closure"
        self.ret_type = ret_type
        self.throws = throws
        self.closure = closure


class Sema:
    """Checks one program; see :func:`analyze_program`."""

    def __init__(self, modules: List[ast.Module]):
        self.modules = modules
        self.envs: Dict[str, ModuleEnv] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.closures: List[ast.ClosureExpr] = []
        self._uid = 0
        self._next_type_id = FIRST_CLASS_TYPE_ID
        self._scopes: List[Dict[str, ast.VarBinding]] = []
        #: Parallel to _scopes: index into _contexts that owns each scope.
        self._scope_ctx: List[int] = []
        self._contexts: List[_FuncContext] = []
        self._current_module: Optional[ModuleEnv] = None
        self._current_class: Optional[ClassInfo] = None
        self._loop_depth = 0
        self._try_depth = 0
        self._catch_depth = 0
        self._closure_counter = 0

    # -- public API ---------------------------------------------------------

    def run(self) -> ProgramInfo:
        for module in self.modules:
            if module.name in self.envs:
                raise SemaError(f"duplicate module name {module.name!r}")
            self._collect_headers(module)
        for module in self.modules:
            for imp in module.imports:
                if imp not in self.envs:
                    raise SemaError(
                        f"module {module.name!r} imports unknown module "
                        f"{imp!r}", module.line, module.column)
        for module in self.modules:
            self._resolve_signatures(module)
        for module in self.modules:
            self._check_module(module)
        return ProgramInfo(
            modules=self.modules,
            envs=self.envs,
            classes_by_qualified_name=self.classes,
            closures=self.closures,
        )

    # -- header collection -----------------------------------------------------

    def _collect_headers(self, module: ast.Module) -> None:
        env = ModuleEnv(name=module.name, imports=list(module.imports))
        self.envs[module.name] = env
        for cls in module.classes:
            if cls.name in env.classes:
                raise SemaError(f"duplicate class {cls.name!r} in {module.name}",
                                cls.line, cls.column)
            qual = f"{module.name}::{cls.name}"
            if self._next_type_id > MAX_CLASS_TYPE_ID:
                raise SemaError(
                    f"too many classes: {qual} would need type id "
                    f"{self._next_type_id}, past the object header's "
                    f"limit of {MAX_CLASS_TYPE_ID}", cls.line, cls.column)
            cls.qualified_name = qual
            cls.type_id = self._next_type_id
            self._next_type_id += 1
            info = ClassInfo(decl=cls, module=module.name, type=ClassType(qual))
            for idx, fld in enumerate(cls.fields):
                if fld.name in info.fields_by_name:
                    raise SemaError(f"duplicate field {fld.name!r} in {cls.name}",
                                    fld.line, fld.column)
                fld.index = idx
                info.fields_by_name[fld.name] = fld
            for method in cls.methods:
                if method.name in info.methods_by_name:
                    raise SemaError(
                        f"duplicate method {method.name!r} in {cls.name}",
                        method.line, method.column)
                method.owner_class = qual
                method.symbol = f"{module.name}::{cls.name}.{method.name}"
                info.methods_by_name[method.name] = method
            seen_arity = set()
            for i, ini in enumerate(cls.inits):
                arity = len(ini.params)
                if arity in seen_arity:
                    raise SemaError(
                        f"duplicate init with {arity} parameters in {cls.name}",
                        ini.line, ini.column)
                seen_arity.add(arity)
                ini.owner_class = qual
                ini.symbol = f"{module.name}::{cls.name}.init#{arity}"
            env.classes[cls.name] = info
            self.classes[qual] = info
        for fn in module.functions:
            if fn.name in env.functions or fn.name in env.classes:
                raise SemaError(f"duplicate declaration {fn.name!r} in {module.name}",
                                fn.line, fn.column)
            fn.symbol = f"{module.name}::{fn.name}"
            env.functions[fn.name] = fn
        for gbl in module.globals:
            if gbl.name in env.globals or gbl.name in env.functions:
                raise SemaError(f"duplicate global {gbl.name!r} in {module.name}",
                                gbl.line, gbl.column)
            gbl.symbol = f"{module.name}::{gbl.name}"
            env.globals[gbl.name] = gbl

    def _resolve_signatures(self, module: ast.Module) -> None:
        """Eagerly resolve all declared types in the defining module's scope.

        Name resolution for a signature must happen in the *defining*
        module's import context (two modules may each declare a class with
        the same short name), so this runs before any body is checked.
        """
        self._current_module = self.envs[module.name]
        for fn in module.functions:
            for param in fn.params:
                param.ty = self._resolve_type(param.ty, param)
            fn.ret_type = self._resolve_type(fn.ret_type, fn)
        for cls in module.classes:
            for fld in cls.fields:
                fld.ty = self._resolve_type(fld.ty, fld)
            for method in cls.methods:
                for param in method.params:
                    param.ty = self._resolve_type(param.ty, param)
                method.ret_type = self._resolve_type(method.ret_type, method)
            for ini in cls.inits:
                for param in ini.params:
                    param.ty = self._resolve_type(param.ty, param)
        self._current_module = None

    # -- type resolution ----------------------------------------------------------

    def _resolve_type(self, ty: Type, node: ast.Node) -> Type:
        """Qualify nominal class references against the current module."""
        if isinstance(ty, ClassType) and "::" not in ty.qualified_name:
            info = self._lookup_class(ty.qualified_name)
            if info is None:
                raise SemaError(f"unknown type {ty.qualified_name!r}",
                                node.line, node.column)
            return info.type
        if isinstance(ty, ArrayType):
            return ArrayType(self._resolve_type(ty.elem, node))
        if isinstance(ty, FuncType):
            params = tuple(self._resolve_type(p, node) for p in ty.params)
            return FuncType(params, self._resolve_type(ty.ret, node), ty.throws)
        return ty

    def _visible_envs(self) -> List[ModuleEnv]:
        assert self._current_module is not None
        envs = [self._current_module]
        for imp in self._current_module.imports:
            if imp not in self.envs:
                raise SemaError(
                    f"module {self._current_module.name!r} imports unknown "
                    f"module {imp!r}"
                )
            envs.append(self.envs[imp])
        return envs

    def _lookup_class(self, name: str) -> Optional[ClassInfo]:
        for env in self._visible_envs():
            if name in env.classes:
                return env.classes[name]
        return None

    def _lookup_function(self, name: str) -> Optional[ast.FuncDecl]:
        for env in self._visible_envs():
            if name in env.functions:
                return env.functions[name]
        return None

    def _lookup_global(self, name: str) -> Optional[ast.GlobalDecl]:
        for env in self._visible_envs():
            if name in env.globals:
                return env.globals[name]
        return None

    # -- scopes / bindings --------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append({})
        self._scope_ctx.append(len(self._contexts) - 1)

    def _pop_scope(self) -> None:
        self._scopes.pop()
        self._scope_ctx.pop()

    def _declare(self, name: str, ty: Type, is_let: bool, kind: str,
                 node: ast.Node) -> ast.VarBinding:
        self._uid += 1
        binding = ast.VarBinding(name=name, ty=ty, is_let=is_let, kind=kind,
                                 uid=self._uid)
        if name == "_":
            # Discard binding: never enters the scope, can repeat freely.
            return binding
        if name in self._scopes[-1]:
            raise SemaError(f"redeclaration of {name!r}", node.line, node.column)
        self._scopes[-1][name] = binding
        return binding

    def _lookup_var(self, name: str) -> Optional[Tuple[ast.VarBinding, int]]:
        """Find a binding; returns (binding, owning-context index)."""
        for i in range(len(self._scopes) - 1, -1, -1):
            if name in self._scopes[i]:
                return self._scopes[i][name], self._scope_ctx[i]
        return None

    def _resolve_var(self, name: str, node: ast.Node) -> Optional[ast.VarBinding]:
        found = self._lookup_var(name)
        if found is None:
            return None
        binding, owner_ctx = found
        current_ctx = len(self._contexts) - 1
        if owner_ctx != current_ctx:
            # Captured across one or more closure boundaries: record the
            # capture in every intervening closure and box the binding.
            binding.boxed = True
            for ctx_idx in range(owner_ctx + 1, current_ctx + 1):
                ctx = self._contexts[ctx_idx]
                if ctx.closure is not None and binding not in ctx.closure.captures:
                    ctx.closure.captures.append(binding)
        return binding

    # -- module / declaration checking --------------------------------------------

    def _check_module(self, module: ast.Module) -> None:
        self._current_module = self.envs[module.name]
        for gbl in module.globals:
            self._check_global(gbl)
        for fn in module.functions:
            self._check_function(fn, kind="func")
        for cls in module.classes:
            info = self.envs[module.name].classes[cls.name]
            for fld in cls.fields:
                fld.ty = self._resolve_type(fld.ty, fld)
            self._current_class = info
            for ini in cls.inits:
                self._check_init(ini, info)
            for method in cls.methods:
                self._check_function(method, kind="method", owner=info)
            self._current_class = None
        self._current_module = None

    def _check_global(self, gbl: ast.GlobalDecl) -> None:
        value, ty = self._fold_constant(gbl.init)
        if gbl.declared_type is not None:
            declared = self._resolve_type(gbl.declared_type, gbl)
            if not assignable(declared, ty):
                raise SemaError(
                    f"global {gbl.name!r}: cannot assign {ty} to {declared}",
                    gbl.line, gbl.column)
            ty = declared
        if ty.is_ref() and not gbl.is_let:
            raise SemaError(
                f"global {gbl.name!r}: reference-typed globals must be 'let' "
                "(they are statically allocated objects)", gbl.line, gbl.column)
        gbl.declared_type = ty
        gbl.init.ty = ty
        gbl.const_value = value  # type: ignore[attr-defined]
        self._uid += 1
        gbl.binding = ast.VarBinding(name=gbl.name, ty=ty, is_let=gbl.is_let,
                                     kind="global", uid=self._uid,
                                     symbol=gbl.symbol)

    def _fold_constant(self, expr: Optional[ast.Expr]):
        """Fold a global initializer to a Python constant; raise if dynamic."""
        if isinstance(expr, ast.IntLit):
            return expr.value, INT
        if isinstance(expr, ast.FloatLit):
            return expr.value, DOUBLE
        if isinstance(expr, ast.BoolLit):
            return (1 if expr.value else 0), BOOL
        if isinstance(expr, ast.StringLit):
            return expr.value, STRING
        if isinstance(expr, ast.UnaryExpr) and expr.op == "-":
            value, ty = self._fold_constant(expr.operand)
            if ty not in (INT, DOUBLE):
                raise SemaError("global initializer must be numeric to negate",
                                expr.line, expr.column)
            return -value, ty
        if isinstance(expr, ast.ArrayLit):
            if not expr.elements:
                raise SemaError("global array initializer must not be empty",
                                expr.line, expr.column)
            values = []
            elem_ty: Optional[Type] = None
            for elem in expr.elements:
                value, ty = self._fold_constant(elem)
                if elem_ty is None:
                    elem_ty = ty
                elif ty != elem_ty:
                    raise SemaError("mixed element types in global array",
                                    expr.line, expr.column)
                values.append(value)
            return values, ArrayType(elem_ty)
        if isinstance(expr, ast.ArrayRepeating):
            value, ty = self._fold_constant(expr.repeating)
            count, county = self._fold_constant(expr.count)
            if county != INT:
                raise SemaError("repeat count must be a constant Int",
                                expr.line, expr.column)
            return [value] * count, ArrayType(ty)
        if isinstance(expr, ast.BinaryExpr):
            lv, lt = self._fold_constant(expr.left)
            rv, rt = self._fold_constant(expr.right)
            if lt != rt or lt not in (INT, DOUBLE):
                raise SemaError("global initializer arithmetic must be numeric",
                                expr.line, expr.column)
            try:
                folded = {
                    "+": lambda: lv + rv,
                    "-": lambda: lv - rv,
                    "*": lambda: lv * rv,
                    "/": lambda: lv // rv if lt == INT else lv / rv,
                    "%": lambda: lv % rv,
                }[expr.op]()
            except KeyError:
                raise SemaError(
                    f"operator {expr.op!r} not allowed in global initializer",
                    expr.line, expr.column) from None
            except ZeroDivisionError:
                raise SemaError("division by zero in global initializer",
                                expr.line, expr.column) from None
            return folded, lt
        node = expr if expr is not None else ast.Expr()
        raise SemaError("global initializer must be a compile-time constant",
                        node.line, node.column)

    def _check_function(self, fn: ast.FuncDecl, kind: str,
                        owner: Optional[ClassInfo] = None) -> None:
        fn.ret_type = self._resolve_type(fn.ret_type, fn)
        ctx = _FuncContext(kind, fn.ret_type, fn.throws)
        self._contexts.append(ctx)
        self._push_scope()
        if owner is not None:
            self._declare("self", owner.type, True, "self", fn)
        for param in fn.params:
            param.ty = self._resolve_type(param.ty, param)
            param.binding = self._declare(param.name, param.ty, True, "param", param)
        self._check_block(fn.body)
        if fn.ret_type != VOID and not self._block_exits(fn.body):
            raise SemaError(
                f"function {fn.name!r}: missing return on some paths",
                fn.line, fn.column)
        self._pop_scope()
        self._contexts.pop()

    def _check_init(self, ini: ast.InitDecl, owner: ClassInfo) -> None:
        ctx = _FuncContext("init", VOID, ini.throws)
        self._contexts.append(ctx)
        self._push_scope()
        self._declare("self", owner.type, True, "self", ini)
        for param in ini.params:
            param.ty = self._resolve_type(param.ty, param)
            param.binding = self._declare(param.name, param.ty, True, "param", param)
        self._check_block(ini.body)
        self._pop_scope()
        self._contexts.pop()

    # -- statements --------------------------------------------------------------

    def _check_block(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.stmts:
            self._check_stmt(stmt)
        self._pop_scope()

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDeclStmt):
            self._check_var_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.cond, expected=BOOL)
            self._require(stmt.cond, BOOL, "if condition")
            self._check_block(stmt.then_block)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_expr(stmt.cond, expected=BOOL)
            self._require(stmt.cond, BOOL, "while condition")
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ForRangeStmt):
            self._check_expr(stmt.start, expected=INT)
            self._check_expr(stmt.end, expected=INT)
            self._require(stmt.start, INT, "range start")
            self._require(stmt.end, INT, "range end")
            self._push_scope()
            stmt.binding = self._declare(stmt.var_name, INT, True, "local", stmt)
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
            self._pop_scope()
        elif isinstance(stmt, ast.ForEachStmt):
            self._check_expr(stmt.iterable)
            ity = stmt.iterable.ty
            if not isinstance(ity, ArrayType):
                raise SemaError(f"for-in requires an array, found {ity}",
                                stmt.line, stmt.column)
            self._push_scope()
            stmt.binding = self._declare(stmt.var_name, ity.elem, True, "local", stmt)
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
            self._pop_scope()
        elif isinstance(stmt, ast.ReturnStmt):
            ctx = self._contexts[-1]
            if ctx.kind == "init":
                if stmt.value is not None:
                    raise SemaError("'init' cannot return a value",
                                    stmt.line, stmt.column)
                return
            if stmt.value is None:
                if ctx.ret_type != VOID:
                    raise SemaError(
                        f"non-void function must return {ctx.ret_type}",
                        stmt.line, stmt.column)
                return
            if ctx.ret_type == VOID:
                raise SemaError("void function cannot return a value",
                                stmt.line, stmt.column)
            self._check_expr(stmt.value, expected=ctx.ret_type)
            if not assignable(ctx.ret_type, stmt.value.ty):
                raise SemaError(
                    f"cannot return {stmt.value.ty} from function returning "
                    f"{ctx.ret_type}", stmt.line, stmt.column)
        elif isinstance(stmt, ast.ThrowStmt):
            if not self._can_throw_here():
                raise SemaError("'throw' requires a throwing function or do/catch",
                                stmt.line, stmt.column)
            self._check_expr(stmt.code, expected=INT)
            self._require(stmt.code, INT, "thrown error code")
        elif isinstance(stmt, ast.DoCatchStmt):
            self._catch_depth += 1
            self._check_block(stmt.body)
            self._catch_depth -= 1
            self._push_scope()
            stmt.error_binding = self._declare(stmt.error_name, INT, True,
                                               "catch", stmt)
            self._check_block(stmt.catch_body)
            self._pop_scope()
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                raise SemaError("'break'/'continue' outside a loop",
                                stmt.line, stmt.column)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemaError(f"unknown statement {type(stmt).__name__}")

    def _check_var_decl(self, stmt: ast.VarDeclStmt) -> None:
        declared: Optional[Type] = None
        if stmt.declared_type is not None:
            declared = self._resolve_type(stmt.declared_type, stmt)
        if stmt.init is None:
            if declared is None:
                raise SemaError(
                    f"variable {stmt.name!r} needs a type or an initializer",
                    stmt.line, stmt.column)
            if stmt.is_let:
                raise SemaError(f"'let {stmt.name}' must be initialized",
                                stmt.line, stmt.column)
            ty = declared
        else:
            self._check_expr(stmt.init, expected=declared)
            ty = stmt.init.ty
            if isinstance(ty, NilType):
                if declared is None:
                    raise SemaError("cannot infer type from 'nil'",
                                    stmt.line, stmt.column)
                ty = declared
            if declared is not None:
                if not assignable(declared, stmt.init.ty):
                    raise SemaError(
                        f"cannot initialize {declared} with {stmt.init.ty}",
                        stmt.line, stmt.column)
                ty = declared
        stmt.declared_type = ty
        stmt.binding = self._declare(stmt.name, ty, stmt.is_let, "local", stmt)

    def _check_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        self._check_expr(target)
        self._check_lvalue(target)
        expected = target.ty
        self._check_expr(stmt.value, expected=expected)
        if stmt.op is not None:
            # Compound assignment requires matching numeric (or string +) types.
            ok = (
                target.ty == stmt.value.ty
                and (target.ty in (INT, DOUBLE)
                     or (target.ty == STRING and stmt.op == "+"))
            )
            if not ok:
                raise SemaError(
                    f"invalid compound assignment {target.ty} {stmt.op}= "
                    f"{stmt.value.ty}", stmt.line, stmt.column)
        elif not assignable(target.ty, stmt.value.ty):
            raise SemaError(f"cannot assign {stmt.value.ty} to {target.ty}",
                            stmt.line, stmt.column)

    def _check_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Ident):
            binding = expr.binding
            if not isinstance(binding, ast.VarBinding):
                raise SemaError(f"{expr.name!r} is not assignable",
                                expr.line, expr.column)
            if binding.is_let and binding.kind != "global":
                raise SemaError(f"cannot assign to 'let' constant {expr.name!r}",
                                expr.line, expr.column)
            if binding.kind == "global" and binding.is_let:
                raise SemaError(f"cannot assign to 'let' global {expr.name!r}",
                                expr.line, expr.column)
            return
        if isinstance(expr, ast.MemberExpr):
            kind = expr.member_kind
            if not (isinstance(kind, tuple) and kind[0] == "field"):
                raise SemaError(f"member {expr.name!r} is not assignable",
                                expr.line, expr.column)
            fld: ast.FieldDecl = kind[1]
            if fld.is_let and self._contexts[-1].kind != "init":
                raise SemaError(
                    f"cannot assign to 'let' field {expr.name!r} outside init",
                    expr.line, expr.column)
            return
        if isinstance(expr, ast.IndexExpr):
            if not isinstance(expr.base.ty, ArrayType):
                raise SemaError("only array elements are assignable",
                                expr.line, expr.column)
            return
        raise SemaError("expression is not assignable", expr.line, expr.column)

    def _block_exits(self, block: ast.Block) -> bool:
        """Conservatively: does every path through *block* return or throw?"""
        for stmt in block.stmts:
            if isinstance(stmt, (ast.ReturnStmt, ast.ThrowStmt)):
                return True
            if isinstance(stmt, ast.IfStmt) and stmt.else_block is not None:
                if self._block_exits(stmt.then_block) and self._block_exits(stmt.else_block):
                    return True
            if isinstance(stmt, ast.DoCatchStmt):
                if self._block_exits(stmt.body) and self._block_exits(stmt.catch_body):
                    return True
        return False

    # -- expressions ---------------------------------------------------------------

    def _require(self, expr: ast.Expr, ty: Type, what: str) -> None:
        if expr.ty != ty:
            raise SemaError(f"{what} must be {ty}, found {expr.ty}",
                            expr.line, expr.column)

    def _can_throw_here(self) -> bool:
        return self._contexts[-1].throws or self._catch_depth > 0

    def _check_expr(self, expr: ast.Expr, expected: Optional[Type] = None) -> None:
        if isinstance(expr, ast.IntLit):
            expr.ty = INT
        elif isinstance(expr, ast.FloatLit):
            expr.ty = DOUBLE
        elif isinstance(expr, ast.BoolLit):
            expr.ty = BOOL
        elif isinstance(expr, ast.StringLit):
            expr.ty = STRING
        elif isinstance(expr, ast.NilLit):
            expr.ty = NIL
        elif isinstance(expr, ast.SelfExpr):
            found = self._resolve_var("self", expr)
            if found is None:
                raise SemaError("'self' outside a class", expr.line, expr.column)
            expr.binding = found
            expr.ty = found.ty
        elif isinstance(expr, ast.Ident):
            self._check_ident(expr)
        elif isinstance(expr, ast.BinaryExpr):
            self._check_binary(expr)
        elif isinstance(expr, ast.UnaryExpr):
            self._check_unary(expr)
        elif isinstance(expr, ast.CallExpr):
            self._check_call(expr)
        elif isinstance(expr, ast.MemberExpr):
            self._check_member(expr)
        elif isinstance(expr, ast.IndexExpr):
            self._check_index(expr)
        elif isinstance(expr, ast.ArrayLit):
            self._check_array_lit(expr, expected)
        elif isinstance(expr, ast.ArrayRepeating):
            expr.elem_type = self._resolve_type(expr.elem_type, expr)
            self._check_expr(expr.repeating, expected=expr.elem_type)
            if not assignable(expr.elem_type, expr.repeating.ty):
                raise SemaError(
                    f"repeating value {expr.repeating.ty} does not match "
                    f"element type {expr.elem_type}", expr.line, expr.column)
            self._check_expr(expr.count, expected=INT)
            self._require(expr.count, INT, "array count")
            expr.ty = ArrayType(expr.elem_type)
        elif isinstance(expr, ast.ClosureExpr):
            self._check_closure(expr)
        elif isinstance(expr, ast.TryExpr):
            if not self._can_throw_here():
                raise SemaError(
                    "'try' requires a throwing function or do/catch",
                    expr.line, expr.column)
            self._try_depth += 1
            self._check_expr(expr.inner, expected=expected)
            self._try_depth -= 1
            expr.ty = expr.inner.ty
        else:  # pragma: no cover
            raise SemaError(f"unknown expression {type(expr).__name__}")

    def _check_ident(self, expr: ast.Ident) -> None:
        binding = self._resolve_var(expr.name, expr)
        if binding is not None:
            expr.binding = binding
            expr.ty = binding.ty
            return
        gbl = self._lookup_global(expr.name)
        if gbl is not None:
            expr.binding = gbl.binding
            expr.ty = gbl.declared_type
            return
        fn = self._lookup_function(expr.name)
        if fn is not None:
            # Function referenced as a value: SILGen wraps it in a
            # capture-free closure object.
            expr.binding = fn
            expr.ty = FuncType(tuple(self._resolve_type(p.ty, p) for p in fn.params),
                               self._resolve_type(fn.ret_type, fn), fn.throws)
            return
        cls = self._lookup_class(expr.name)
        if cls is not None:
            expr.binding = cls.decl
            expr.ty = cls.type  # type reference; only legal as a call callee
            return
        raise SemaError(f"unresolved identifier {expr.name!r}",
                        expr.line, expr.column)

    def _check_binary(self, expr: ast.BinaryExpr) -> None:
        op = expr.op
        self._check_expr(expr.left)
        self._check_expr(expr.right)
        lt, rt = expr.left.ty, expr.right.ty
        if op in ("&&", "||"):
            if lt != BOOL or rt != BOOL:
                raise SemaError(f"'{op}' requires Bool operands, found {lt}, {rt}",
                                expr.line, expr.column)
            expr.ty = BOOL
            return
        if op in ("==", "!="):
            if isinstance(lt, NilType) or isinstance(rt, NilType):
                other = rt if isinstance(lt, NilType) else lt
                if not other.is_ref():
                    raise SemaError(f"cannot compare {other} to nil",
                                    expr.line, expr.column)
                expr.ty = BOOL
                return
            if lt != rt:
                raise SemaError(f"cannot compare {lt} to {rt}",
                                expr.line, expr.column)
            if isinstance(lt, (ArrayType, FuncType)):
                # identity comparison for arrays/closures
                expr.ty = BOOL
                return
            expr.ty = BOOL
            return
        if op in ("<", "<=", ">", ">="):
            if lt != rt or lt not in (INT, DOUBLE):
                raise SemaError(f"cannot order {lt} and {rt}",
                                expr.line, expr.column)
            expr.ty = BOOL
            return
        if op == "+" and lt == STRING and rt == STRING:
            expr.ty = STRING
            return
        if op in ("%", "&", "|", "^", "<<", ">>"):
            if lt != INT or rt != INT:
                raise SemaError(f"'{op}' requires Int operands, found {lt}, {rt}",
                                expr.line, expr.column)
            expr.ty = INT
            return
        if op in ("+", "-", "*", "/"):
            if lt != rt or lt not in (INT, DOUBLE):
                raise SemaError(f"'{op}' requires matching numeric operands, "
                                f"found {lt}, {rt}", expr.line, expr.column)
            expr.ty = lt
            return
        raise SemaError(f"unknown operator {op!r}", expr.line, expr.column)

    def _check_unary(self, expr: ast.UnaryExpr) -> None:
        self._check_expr(expr.operand)
        if expr.op == "-":
            if expr.operand.ty not in (INT, DOUBLE):
                raise SemaError(f"cannot negate {expr.operand.ty}",
                                expr.line, expr.column)
            expr.ty = expr.operand.ty
        elif expr.op == "!":
            if expr.operand.ty != BOOL:
                raise SemaError(f"'!' requires Bool, found {expr.operand.ty}",
                                expr.line, expr.column)
            expr.ty = BOOL
        else:  # pragma: no cover
            raise SemaError(f"unknown unary operator {expr.op!r}")

    def _check_call(self, expr: ast.CallExpr) -> None:
        callee = expr.callee
        # Method call / array builtin: member callee.
        if isinstance(callee, ast.MemberExpr):
            self._check_method_call(expr, callee)
            return
        if isinstance(callee, ast.Ident):
            name = callee.name
            # Int(x) / Double(x) conversions (reserved type names).
            if name in ("Int", "Double"):
                self._check_conversion(expr, name)
                return
            # User declarations shadow builtins; locals shadow functions.
            local = self._local_or_none(name)
            if local is None:
                fn = self._lookup_function(name)
                if fn is not None:
                    self._check_direct_call(expr, fn)
                    return
                cls = self._lookup_class(name)
                if cls is not None:
                    self._check_ctor_call(expr, cls)
                    return
                if name == "print":
                    self._check_args(expr, None)
                    if len(expr.args) != 1 or expr.args[0].ty not in _PRINTABLE:
                        raise SemaError(
                            "print takes one Int/Double/Bool/String argument",
                            expr.line, expr.column)
                    expr.call_kind = "builtin"
                    expr.target = f"print_{str(expr.args[0].ty).lower()}"
                    expr.ty = VOID
                    return
                if name in BUILTIN_SIGNATURES:
                    params, ret = BUILTIN_SIGNATURES[name]
                    self._check_args(expr, list(params))
                    expr.call_kind = "builtin"
                    expr.target = name
                    expr.ty = ret
                    return
        # Otherwise: callee is a closure value.
        self._check_expr(callee)
        fty = callee.ty
        if not isinstance(fty, FuncType):
            raise SemaError(f"cannot call a value of type {fty}",
                            expr.line, expr.column)
        self._check_args(expr, list(fty.params))
        if fty.throws and self._try_depth == 0:
            raise SemaError("call to throwing function value requires 'try'",
                            expr.line, expr.column)
        expr.call_kind = "value"
        expr.ty = fty.ret

    def _local_or_none(self, name: str) -> Optional[ast.VarBinding]:
        found = self._lookup_var(name)
        return found[0] if found else None

    def _check_direct_call(self, expr: ast.CallExpr, fn: ast.FuncDecl) -> None:
        params = [self._resolve_type(p.ty, p) for p in fn.params]
        self._check_args(expr, params)
        if fn.throws and self._try_depth == 0:
            raise SemaError(f"call to throwing function {fn.name!r} requires 'try'",
                            expr.line, expr.column)
        expr.callee.binding = fn  # type: ignore[union-attr]
        expr.call_kind = "func"
        expr.target = fn
        expr.ty = self._resolve_type(fn.ret_type, fn)

    def _check_ctor_call(self, expr: ast.CallExpr, cls: ClassInfo) -> None:
        ini = None
        for candidate in cls.decl.inits:
            if len(candidate.params) == len(expr.args):
                ini = candidate
                break
        if ini is None:
            raise SemaError(
                f"class {cls.decl.name!r} has no init with {len(expr.args)} "
                f"parameters", expr.line, expr.column)
        params = [self._resolve_type(p.ty, p) for p in ini.params]
        self._check_args(expr, params)
        if ini.throws and self._try_depth == 0:
            raise SemaError(
                f"call to throwing init of {cls.decl.name!r} requires 'try'",
                expr.line, expr.column)
        expr.call_kind = "ctor"
        expr.target = ini
        expr.ty = cls.type

    def _check_method_call(self, expr: ast.CallExpr, callee: ast.MemberExpr) -> None:
        self._check_expr(callee.base)
        base_ty = callee.base.ty
        if isinstance(base_ty, ArrayType):
            if callee.name == "append":
                self._check_args(expr, [base_ty.elem])
                expr.call_kind = "builtin"
                expr.target = "array_append"
                expr.ty = VOID
                callee.member_kind = ("builtin", "array_append")
                callee.ty = VOID
                return
            if callee.name == "removeLast":
                self._check_args(expr, [])
                expr.call_kind = "builtin"
                expr.target = "array_remove_last"
                expr.ty = base_ty.elem
                callee.member_kind = ("builtin", "array_remove_last")
                callee.ty = VOID
                return
            raise SemaError(f"arrays have no method {callee.name!r}",
                            expr.line, expr.column)
        if isinstance(base_ty, ClassType):
            info = self.classes.get(base_ty.qualified_name)
            if info is None or callee.name not in info.methods_by_name:
                raise SemaError(
                    f"class {base_ty.name!r} has no method {callee.name!r}",
                    expr.line, expr.column)
            method = info.methods_by_name[callee.name]
            params = [self._resolve_type(p.ty, p) for p in method.params]
            self._check_args(expr, params)
            if method.throws and self._try_depth == 0:
                raise SemaError(
                    f"call to throwing method {callee.name!r} requires 'try'",
                    expr.line, expr.column)
            callee.member_kind = ("method", method)
            callee.ty = VOID
            expr.call_kind = "method"
            expr.target = method
            expr.ty = self._resolve_type(method.ret_type, method)
            return
        raise SemaError(f"type {base_ty} has no methods", expr.line, expr.column)

    def _check_conversion(self, expr: ast.CallExpr, name: str) -> None:
        if len(expr.args) != 1:
            raise SemaError(f"{name}() takes one argument", expr.line, expr.column)
        self._check_expr(expr.args[0])
        src = expr.args[0].ty
        if name == "Int":
            if src == DOUBLE:
                expr.target = "double_to_int"
            elif src == BOOL:
                expr.target = "bool_to_int"
            elif src == INT:
                expr.target = "int_identity"
            else:
                raise SemaError(f"cannot convert {src} to Int",
                                expr.line, expr.column)
            expr.ty = INT
        else:
            if src == INT:
                expr.target = "int_to_double"
            elif src == DOUBLE:
                expr.target = "double_identity"
            else:
                raise SemaError(f"cannot convert {src} to Double",
                                expr.line, expr.column)
            expr.ty = DOUBLE
        expr.call_kind = "builtin"

    def _check_args(self, expr: ast.CallExpr,
                    params: Optional[List[Type]]) -> None:
        if params is None:
            for arg in expr.args:
                self._check_expr(arg)
            return
        if len(expr.args) != len(params):
            raise SemaError(
                f"call expects {len(params)} arguments, found {len(expr.args)}",
                expr.line, expr.column)
        for arg, pty in zip(expr.args, params):
            self._check_expr(arg, expected=pty)
            if not assignable(pty, arg.ty):
                raise SemaError(f"argument of type {arg.ty} does not match "
                                f"parameter type {pty}", arg.line, arg.column)

    def _check_member(self, expr: ast.MemberExpr) -> None:
        self._check_expr(expr.base)
        base_ty = expr.base.ty
        if isinstance(base_ty, (ArrayType,)) and expr.name == "count":
            expr.member_kind = ("count",)
            expr.ty = INT
            return
        if base_ty == STRING and expr.name == "count":
            expr.member_kind = ("count",)
            expr.ty = INT
            return
        if isinstance(base_ty, ClassType):
            info = self.classes.get(base_ty.qualified_name)
            if info is not None and expr.name in info.fields_by_name:
                fld = info.fields_by_name[expr.name]
                expr.member_kind = ("field", fld)
                expr.ty = fld.ty
                return
            raise SemaError(f"class {base_ty.name!r} has no field {expr.name!r}",
                            expr.line, expr.column)
        raise SemaError(f"type {base_ty} has no member {expr.name!r}",
                        expr.line, expr.column)

    def _check_index(self, expr: ast.IndexExpr) -> None:
        self._check_expr(expr.base)
        self._check_expr(expr.index, expected=INT)
        self._require(expr.index, INT, "subscript index")
        base_ty = expr.base.ty
        if isinstance(base_ty, ArrayType):
            expr.ty = base_ty.elem
            return
        if base_ty == STRING:
            expr.ty = INT  # character code
            return
        raise SemaError(f"type {base_ty} is not subscriptable",
                        expr.line, expr.column)

    def _check_array_lit(self, expr: ast.ArrayLit,
                         expected: Optional[Type]) -> None:
        elem_expected: Optional[Type] = None
        if isinstance(expected, ArrayType):
            elem_expected = expected.elem
        if not expr.elements:
            if elem_expected is None:
                raise SemaError("empty array literal needs a type annotation",
                                expr.line, expr.column)
            expr.ty = ArrayType(elem_expected)
            return
        elem_ty: Optional[Type] = elem_expected
        for elem in expr.elements:
            self._check_expr(elem, expected=elem_ty)
            if elem_ty is None or isinstance(elem_ty, NilType):
                elem_ty = elem.ty
        if elem_ty is None or isinstance(elem_ty, NilType):
            raise SemaError("cannot infer array element type",
                            expr.line, expr.column)
        for elem in expr.elements:
            if not assignable(elem_ty, elem.ty):
                raise SemaError(
                    f"array element {elem.ty} does not match {elem_ty}",
                    elem.line, elem.column)
        expr.ty = ArrayType(elem_ty)

    def _check_closure(self, expr: ast.ClosureExpr) -> None:
        assert self._current_module is not None
        self._closure_counter += 1
        expr.symbol = (f"{self._current_module.name}::closure#"
                       f"{self._closure_counter}")
        expr.ret_type = self._resolve_type(expr.ret_type, expr)
        ctx = _FuncContext("closure", expr.ret_type, False, closure=expr)
        self._contexts.append(ctx)
        self._push_scope()
        for param in expr.params:
            param.ty = self._resolve_type(param.ty, param)
            param.binding = self._declare(param.name, param.ty, True, "param", param)
        saved_loop, self._loop_depth = self._loop_depth, 0
        saved_catch, self._catch_depth = self._catch_depth, 0
        saved_try, self._try_depth = self._try_depth, 0
        self._check_block(expr.body)
        self._loop_depth = saved_loop
        self._catch_depth = saved_catch
        self._try_depth = saved_try
        if expr.ret_type != VOID and not self._block_exits(expr.body):
            raise SemaError("closure is missing a return on some paths",
                            expr.line, expr.column)
        self._pop_scope()
        self._contexts.pop()
        self.closures.append(expr)
        expr.ty = FuncType(tuple(p.ty for p in expr.params), expr.ret_type, False)


def analyze_program(modules: List[ast.Module]) -> ProgramInfo:
    """Run semantic analysis over a whole program (all modules together)."""
    return Sema(modules).run()
