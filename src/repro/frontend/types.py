"""Swiftlet type system.

Types are immutable and compared structurally (nominal for classes).  The
reference/value split drives ARC insertion in SILGen:

* value types: ``Int``, ``Double``, ``Bool`` (machine words);
* reference types: classes, arrays, strings, and function values (closures),
  all heap-allocated with a refcount header.

Deviation from Swift (documented in DESIGN.md): arrays and strings are
reference types here (NSArray-like), and class references are nullable
(``nil``) without an ``Optional`` wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Type:
    """Base class for all Swiftlet types."""

    def is_ref(self) -> bool:
        return False

    def is_numeric(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return str(self)


class _Singleton(Type):
    _NAME = "?"

    def __str__(self) -> str:
        return self._NAME

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntType(_Singleton):
    _NAME = "Int"

    def is_numeric(self) -> bool:
        return True


class DoubleType(_Singleton):
    _NAME = "Double"

    def is_numeric(self) -> bool:
        return True


class BoolType(_Singleton):
    _NAME = "Bool"


class VoidType(_Singleton):
    _NAME = "Void"


class StringType(_Singleton):
    _NAME = "String"

    def is_ref(self) -> bool:
        return True


class NilType(_Singleton):
    """Type of the ``nil`` literal; coerces to any reference type."""

    _NAME = "Nil"


INT = IntType()
DOUBLE = DoubleType()
BOOL = BoolType()
VOID = VoidType()
STRING = StringType()
NIL = NilType()


@dataclass(frozen=True)
class ArrayType(Type):
    elem: Type

    def is_ref(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"[{self.elem}]"


@dataclass(frozen=True)
class ClassType(Type):
    """Nominal class type; ``qualified_name`` is ``module::Class``."""

    qualified_name: str

    def is_ref(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return self.qualified_name.split("::")[-1]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FuncType(Type):
    params: Tuple[Type, ...]
    ret: Type
    throws: bool = False

    def is_ref(self) -> bool:
        # Function values are closure objects on the heap.
        return True

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        arrow = " throws ->" if self.throws else " ->"
        return f"({params}){arrow} {self.ret}"


def assignable(target: Type, source: Type) -> bool:
    """True if a value of *source* type can be assigned to *target*."""
    if target == source:
        return True
    if isinstance(source, NilType) and target.is_ref():
        return True
    if isinstance(target, FuncType) and isinstance(source, FuncType):
        # Non-throwing closures convert to throwing function types.
        return (
            target.params == source.params
            and target.ret == source.ret
            and (target.throws or not source.throws)
        )
    return False


def element_size_bytes(_ty: Type) -> int:
    """Array payload stride; every Swiftlet value is one 8-byte word."""
    return 8
