"""Hand-written lexer for Swiftlet.

Newlines are significant statement separators (as in Swift); the lexer emits
``NEWLINE`` tokens, which the parser collapses.  Comments (``//`` and
``/* ... */``) are skipped.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexerError
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

_TWO_CHAR = {
    "->": TokenKind.ARROW,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN,
    "/=": TokenKind.SLASH_ASSIGN,
    "<<": TokenKind.SHL,
    ">>": TokenKind.SHR,
}

_ONE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
    "&": TokenKind.AMP,
    "^": TokenKind.CARET,
    "|": TokenKind.PIPE,
    ";": TokenKind.SEMI,
}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0", "r": "\r"}


class Lexer:
    """Tokenises one Swiftlet source file."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- helpers ---------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        idx = self.pos + ahead
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column, self.filename)

    # -- main loop --------------------------------------------------------

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                line, col = self.line, self.column
                self._advance()
                if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                    tokens.append(Token(TokenKind.NEWLINE, "\\n", None, line, col))
                continue
            if ch in " \t\r":
                self._advance()
                continue
            if ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
                continue
            if ch.isdigit():
                tokens.append(self._lex_number())
                continue
            if ch.isalpha() or ch == "_":
                tokens.append(self._lex_ident())
                continue
            if ch == '"':
                tokens.append(self._lex_string())
                continue
            tokens.append(self._lex_operator())
        tokens.append(Token(TokenKind.EOF, "", None, self.line, self.column))
        return tokens

    def _skip_block_comment(self) -> None:
        start_line, start_col = self.line, self.column
        self._advance()
        self._advance()
        depth = 1
        while depth > 0:
            if self.pos >= len(self.source):
                raise LexerError(
                    "unterminated block comment", start_line, start_col, self.filename
                )
            if self._peek() == "/" and self._peek(1) == "*":
                self._advance()
                self._advance()
                depth += 1
            elif self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                depth -= 1
            else:
                self._advance()

    def _lex_number(self) -> Token:
        line, col = self.line, self.column
        start = self.pos
        if self._peek() == "0" and self._peek(1) and self._peek(1) in "xX":
            self._advance()
            self._advance()
            while self._peek() and (self._peek() in "0123456789abcdefABCDEF_"):
                self._advance()
            text = self.source[start:self.pos]
            return Token(TokenKind.INT, text, int(text.replace("_", ""), 16), line, col)
        while self._peek().isdigit() or self._peek() == "_":
            self._advance()
        is_float = False
        # A '.' starts a fraction only when followed by a digit ("1..<n" must
        # not consume the range operator).
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit() or self._peek() == "_":
                self._advance()
        nxt = self._peek(1)
        if self._peek() and self._peek() in "eE" and (
                nxt.isdigit() or (nxt and nxt in "+-")):
            is_float = True
            self._advance()
            if self._peek() and self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start:self.pos]
        clean = text.replace("_", "")
        if is_float:
            return Token(TokenKind.FLOAT, text, float(clean), line, col)
        return Token(TokenKind.INT, text, int(clean), line, col)

    def _lex_ident(self) -> Token:
        line, col = self.line, self.column
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start:self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, text if kind is TokenKind.IDENT else None, line, col)

    def _lex_string(self) -> Token:
        line, col = self.line, self.column
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self.pos >= len(self.source) or self._peek() == "\n":
                raise LexerError("unterminated string literal", line, col, self.filename)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                esc = self._advance()
                if esc not in _ESCAPES:
                    raise self._error(f"unknown escape sequence '\\{esc}'")
                chars.append(_ESCAPES[esc])
            else:
                chars.append(ch)
        value = "".join(chars)
        return Token(TokenKind.STRING, f'"{value}"', value, line, col)

    def _lex_operator(self) -> Token:
        line, col = self.line, self.column
        ch = self._peek()
        if ch == "." and self._peek(1) == "." and self._peek(2) == "<":
            for _ in range(3):
                self._advance()
            return Token(TokenKind.RANGE_HALF, "..<", None, line, col)
        if ch == "." and self._peek(1) == "." and self._peek(2) == ".":
            for _ in range(3):
                self._advance()
            return Token(TokenKind.RANGE_FULL, "...", None, line, col)
        two = self.source[self.pos:self.pos + 2]
        if two in _TWO_CHAR:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR[two], two, None, line, col)
        if ch in _ONE_CHAR:
            self._advance()
            return Token(_ONE_CHAR[ch], ch, None, line, col)
        raise self._error(f"unexpected character {ch!r}")


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Convenience wrapper: tokenize *source* in one call."""
    return Lexer(source, filename).tokenize()
