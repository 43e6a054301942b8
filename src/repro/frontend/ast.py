"""AST node definitions for Swiftlet.

Nodes are plain dataclasses.  Sema decorates expressions with a ``ty``
attribute (their :class:`repro.frontend.types.Type`) and identifiers with a
``binding`` (:class:`VarBinding` or a declaration node); SILGen reads those
annotations and never re-does name resolution.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional

from repro.frontend.types import Type


@dataclass
class Node:
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


# --- Expressions --------------------------------------------------------------


@dataclass
class Expr(Node):
    #: Filled in by sema.
    ty: Optional[Type] = field(default=None, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class NilLit(Expr):
    pass


@dataclass
class Ident(Expr):
    name: str = ""
    #: Filled in by sema: VarBinding for variables, FuncDecl for functions,
    #: ClassDecl for type references, GlobalDecl for globals.
    binding: object = field(default=None, compare=False)


@dataclass
class SelfExpr(Expr):
    binding: object = field(default=None, compare=False)


@dataclass
class BinaryExpr(Expr):
    op: str = ""  # + - * / % & | ^ << >> == != < <= > >= && ||
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class UnaryExpr(Expr):
    op: str = ""  # - !
    operand: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    """A call: free function, method (callee is MemberExpr), constructor
    (callee is an Ident bound to a ClassDecl), builtin, or closure value."""

    callee: Optional[Expr] = None
    args: List[Expr] = field(default_factory=list)
    labels: List[Optional[str]] = field(default_factory=list)
    #: Filled in by sema: one of "func", "method", "ctor", "builtin", "value".
    call_kind: str = field(default="", compare=False)
    #: Resolved target declaration (FuncDecl / InitDecl / builtin name).
    target: object = field(default=None, compare=False)


@dataclass
class MemberExpr(Expr):
    base: Optional[Expr] = None
    name: str = ""
    #: Filled in by sema: ("field", index), ("count",), ("method", FuncDecl).
    member_kind: object = field(default=None, compare=False)


@dataclass
class IndexExpr(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class ArrayLit(Expr):
    elements: List[Expr] = field(default_factory=list)


@dataclass
class ArrayRepeating(Expr):
    """``[T](repeating: expr, count: expr)``."""

    elem_type: Optional[Type] = None
    repeating: Optional[Expr] = None
    count: Optional[Expr] = None


@dataclass
class ClosureExpr(Expr):
    """``{ (a: Int, b: Int) -> Int in ... }``"""

    params: List["Param"] = field(default_factory=list)
    ret_type: Optional[Type] = None
    body: Optional["Block"] = None
    #: Filled in by sema: VarBindings captured from enclosing scopes.
    captures: List["VarBinding"] = field(default_factory=list, compare=False)
    #: Symbol name assigned by sema (module::enclosing.closure#N).
    symbol: str = field(default="", compare=False)


@dataclass
class TryExpr(Expr):
    inner: Optional[Expr] = None


# --- Statements ----------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Node):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDeclStmt(Stmt):
    is_let: bool = True
    name: str = ""
    declared_type: Optional[Type] = None
    init: Optional[Expr] = None
    binding: object = field(default=None, compare=False)


@dataclass
class AssignStmt(Stmt):
    target: Optional[Expr] = None
    #: None for plain ``=``; "+", "-", "*", "/" for compound assignment.
    op: Optional[str] = None
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    cond: Optional[Expr] = None
    then_block: Optional[Block] = None
    else_block: Optional[Block] = None  # Block or nested IfStmt wrapped in Block


@dataclass
class WhileStmt(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Block] = None


@dataclass
class ForRangeStmt(Stmt):
    var_name: str = ""
    start: Optional[Expr] = None
    end: Optional[Expr] = None
    inclusive: bool = False
    body: Optional[Block] = None
    binding: object = field(default=None, compare=False)


@dataclass
class ForEachStmt(Stmt):
    var_name: str = ""
    iterable: Optional[Expr] = None
    body: Optional[Block] = None
    binding: object = field(default=None, compare=False)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class ThrowStmt(Stmt):
    #: The error code expression (Swiftlet errors are Int codes).
    code: Optional[Expr] = None


@dataclass
class DoCatchStmt(Stmt):
    body: Optional[Block] = None
    catch_body: Optional[Block] = None
    #: Name bound to the error code inside the catch block ("error").
    error_name: str = "error"
    error_binding: object = field(default=None, compare=False)


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


# --- Declarations ----------------------------------------------------------------


@dataclass
class Param(Node):
    name: str = ""
    ty: Optional[Type] = None
    binding: object = field(default=None, compare=False)


@dataclass
class FuncDecl(Node):
    name: str = ""
    params: List[Param] = field(default_factory=list)
    ret_type: Optional[Type] = None
    throws: bool = False
    body: Optional[Block] = None
    is_public: bool = True
    #: Qualified name of the enclosing class for methods (set during sema
    #: header collection).  A name, not the ClassDecl: the class lists its
    #: methods, so a back-pointer would make every AST a reference cycle.
    owner_class: str = field(default="", compare=False)
    #: Mangled symbol, e.g. ``module::name`` or ``module::Class.method``.
    symbol: str = field(default="", compare=False)


@dataclass
class FieldDecl(Node):
    name: str = ""
    ty: Optional[Type] = None
    is_let: bool = False
    index: int = field(default=-1, compare=False)


@dataclass
class InitDecl(Node):
    params: List[Param] = field(default_factory=list)
    throws: bool = False
    body: Optional[Block] = None
    #: Qualified name of the enclosing class (see ``FuncDecl.owner_class``).
    owner_class: str = field(default="", compare=False)
    symbol: str = field(default="", compare=False)


@dataclass
class ClassDecl(Node):
    name: str = ""
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[FuncDecl] = field(default_factory=list)
    inits: List[InitDecl] = field(default_factory=list)
    is_final: bool = True
    qualified_name: str = field(default="", compare=False)
    #: Runtime type id assigned by sema (unique per program).
    type_id: int = field(default=-1, compare=False)


@dataclass
class GlobalDecl(Node):
    is_let: bool = True
    name: str = ""
    declared_type: Optional[Type] = None
    init: Optional[Expr] = None
    symbol: str = field(default="", compare=False)
    binding: object = field(default=None, compare=False)


@dataclass
class Module(Node):
    name: str = ""
    imports: List[str] = field(default_factory=list)
    functions: List[FuncDecl] = field(default_factory=list)
    classes: List[ClassDecl] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    #: Closures in the module, counted by the parser.  Sema numbers
    #: closures from a per-module base: the sum of earlier modules' counts.
    closure_count: int = field(default=0, compare=False)
    #: Digest of everything an importer can observe, set by the parser:
    #: imports, function signatures, classes with their fields, inits and
    #: method signatures, and globals with their declared types and
    #: initializers.  Bodies and source positions are left out.
    interface: str = field(default="", compare=False)
    #: True for a :meth:`header`: sema collects and resolves its
    #: declarations but checks no body, and SILGen skips it.
    is_header: bool = field(default=False, compare=False)

    def header(self) -> "Module":
        """This module's parsed declarations with every body stripped.

        Declarations are fresh nodes, so sema's annotations on this module
        never reach the header (and the other way round).  A global's
        initializer gets a fresh root but shares its operands, which sema
        folds without writing to them.  Call it before sema: the header
        keeps the declarations as parsed.
        """
        return Module(
            name=self.name, imports=list(self.imports),
            functions=[_func_header(fn) for fn in self.functions],
            classes=[ClassDecl(
                name=cls.name, is_final=cls.is_final,
                fields=[FieldDecl(name=f.name, ty=f.ty, is_let=f.is_let)
                        for f in cls.fields],
                methods=[_func_header(m) for m in cls.methods],
                inits=[InitDecl(params=_params_header(ini.params),
                                throws=ini.throws) for ini in cls.inits])
                for cls in self.classes],
            globals=[GlobalDecl(is_let=g.is_let, name=g.name,
                                declared_type=g.declared_type,
                                init=copy.copy(g.init))
                     for g in self.globals],
            closure_count=self.closure_count, interface=self.interface,
            is_header=True)


def _params_header(params: List[Param]) -> List[Param]:
    return [Param(name=p.name, ty=p.ty) for p in params]


def _func_header(fn: FuncDecl) -> FuncDecl:
    return FuncDecl(name=fn.name, params=_params_header(fn.params),
                    ret_type=fn.ret_type, throws=fn.throws,
                    is_public=fn.is_public)


# --- Bindings (produced by sema) ----------------------------------------------


@dataclass
class VarBinding:
    """Resolved variable: a local, parameter, global, self, or loop variable."""

    name: str
    ty: Type
    is_let: bool
    kind: str  # "local" | "param" | "global" | "self" | "catch"
    uid: int
    #: True if a closure captures this binding: it must live in a heap box.
    boxed: bool = False
    #: For globals, the linker symbol.
    symbol: str = ""
