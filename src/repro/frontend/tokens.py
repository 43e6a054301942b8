"""Token definitions for the Swiftlet language.

Swiftlet is the Swift-like source language of this reproduction: classes with
automatic reference counting, closures, ``throws``/``try`` error handling,
arrays, strings and doubles.  The token set is a pragmatic subset of Swift's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Union


class TokenKind(Enum):
    # literals / identifiers
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    IDENT = auto()

    # keywords
    KW_FUNC = auto()
    KW_CLASS = auto()
    KW_INIT = auto()
    KW_SELF = auto()
    KW_LET = auto()
    KW_VAR = auto()
    KW_IF = auto()
    KW_ELSE = auto()
    KW_WHILE = auto()
    KW_FOR = auto()
    KW_IN = auto()
    KW_RETURN = auto()
    KW_BREAK = auto()
    KW_CONTINUE = auto()
    KW_TRUE = auto()
    KW_FALSE = auto()
    KW_NIL = auto()
    KW_THROW = auto()
    KW_THROWS = auto()
    KW_TRY = auto()
    KW_IMPORT = auto()
    KW_PUBLIC = auto()
    KW_FINAL = auto()
    KW_DO = auto()
    KW_CATCH = auto()

    # punctuation / operators
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    COLON = auto()
    DOT = auto()
    ARROW = auto()        # ->
    RANGE_HALF = auto()   # ..<
    RANGE_FULL = auto()   # ...
    ASSIGN = auto()       # =
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    PLUS_ASSIGN = auto()
    MINUS_ASSIGN = auto()
    STAR_ASSIGN = auto()
    SLASH_ASSIGN = auto()
    EQ = auto()           # ==
    NE = auto()           # !=
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    AND = auto()          # &&
    OR = auto()           # ||
    NOT = auto()          # !
    AMP = auto()          # & (bitwise and)
    CARET = auto()        # ^ (bitwise xor)
    PIPE = auto()         # | (bitwise or)
    SHL = auto()          # <<
    SHR = auto()          # >>
    NEWLINE = auto()      # statement separator (significant, like Swift)
    SEMI = auto()
    EOF = auto()

    # Members are singletons compared by identity: hash them the same way,
    # in C, so the lexer's and parser's token tables probe without a
    # Python-level call to Enum's hash of the name.
    __hash__ = object.__hash__


KEYWORDS = {
    "func": TokenKind.KW_FUNC,
    "class": TokenKind.KW_CLASS,
    "init": TokenKind.KW_INIT,
    "self": TokenKind.KW_SELF,
    "let": TokenKind.KW_LET,
    "var": TokenKind.KW_VAR,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "in": TokenKind.KW_IN,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "nil": TokenKind.KW_NIL,
    "throw": TokenKind.KW_THROW,
    "throws": TokenKind.KW_THROWS,
    "try": TokenKind.KW_TRY,
    "import": TokenKind.KW_IMPORT,
    "public": TokenKind.KW_PUBLIC,
    "final": TokenKind.KW_FINAL,
    "do": TokenKind.KW_DO,
    "catch": TokenKind.KW_CATCH,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: Union[int, float, str, None]
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
