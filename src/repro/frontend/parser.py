"""Recursive-descent parser for Swiftlet.

Produces the AST of one module.  Newlines separate statements (as in Swift);
semicolons are also accepted.  The parser performs no name resolution; that
is sema's job.

While it builds a module the parser also records the facts the build
cache keys on (:mod:`repro.pipeline.cache`), so no later pass walks the
tree for them: the number of closures, and the module's *interface
digest* — a hash of the tokens of every declaration an importer can
observe (imports, signatures, class members, globals), with bodies,
newlines and source positions left out.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import Token, TokenKind
from repro.frontend.types import (
    BOOL,
    DOUBLE,
    INT,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    FuncType,
    Type,
)

_BUILTIN_TYPE_NAMES = {
    "Int": INT,
    "Double": DOUBLE,
    "Bool": BOOL,
    "String": STRING,
    "Void": VOID,
}

# Binary operator precedence, loosest first.
_PRECEDENCE = [
    {TokenKind.OR: "||"},
    {TokenKind.AND: "&&"},
    {
        TokenKind.EQ: "==",
        TokenKind.NE: "!=",
        TokenKind.LT: "<",
        TokenKind.LE: "<=",
        TokenKind.GT: ">",
        TokenKind.GE: ">=",
    },
    {TokenKind.PIPE: "|"},
    {TokenKind.CARET: "^"},
    {TokenKind.AMP: "&"},
    {TokenKind.SHL: "<<", TokenKind.SHR: ">>"},
    {TokenKind.PLUS: "+", TokenKind.MINUS: "-"},
    {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"},
]

_COMPOUND_ASSIGN = {
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
}


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.Module`."""

    def __init__(self, tokens: List[Token], module_name: str, filename: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.module_name = module_name
        self.filename = filename
        self._closures = 0
        #: Token ranges [start, end) that make up the interface digest.
        self._interface: List[Tuple[int, int]] = []

    # -- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def _peek_skipping_newlines(self, ahead: int = 0) -> Token:
        idx = self.pos
        seen = 0
        while idx < len(self.tokens):
            tok = self.tokens[idx]
            if tok.kind is not TokenKind.NEWLINE:
                if seen == ahead:
                    return tok
                seen += 1
            idx += 1
        return self.tokens[-1]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise self._error(f"expected {what}, found {tok.text!r}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, tok.line, tok.column, self.filename)

    def _skip_newlines(self) -> None:
        while self._peek().kind in (TokenKind.NEWLINE, TokenKind.SEMI):
            self._advance()

    def _end_statement(self) -> None:
        """Consume a statement terminator: newline, ';', or lookahead '}'."""
        if self._peek().kind in (TokenKind.NEWLINE, TokenKind.SEMI):
            self._advance()
            return
        if self._peek().kind in (TokenKind.RBRACE, TokenKind.EOF):
            return
        raise self._error(f"expected end of statement, found {self._peek().text!r}")

    def _declared(self, start: int) -> None:
        """Add the tokens from *start* to here to the interface digest."""
        self._interface.append((start, self.pos))

    def _interface_digest(self) -> str:
        parts: List[str] = []
        for start, end in self._interface:
            parts.extend(repr(tok.value) if tok.kind is TokenKind.STRING
                         else tok.text
                         for tok in self.tokens[start:end]
                         if tok.kind is not TokenKind.NEWLINE)
            parts.append("\x01")  # ends one declaration
        text = "\x00".join(parts)
        return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()

    # -- module & declarations -----------------------------------------------

    def parse_module(self) -> ast.Module:
        module = ast.Module(name=self.module_name)
        self._skip_newlines()
        while self._check(TokenKind.KW_IMPORT):
            start = self.pos
            self._advance()
            name = self._expect(TokenKind.IDENT, "module name").text
            module.imports.append(name)
            self._declared(start)
            self._end_statement()
            self._skip_newlines()
        while not self._check(TokenKind.EOF):
            # access / final modifiers are accepted and ignored
            while self._peek().kind in (TokenKind.KW_PUBLIC, TokenKind.KW_FINAL):
                self._advance()
            tok = self._peek()
            if tok.kind is TokenKind.KW_FUNC:
                module.functions.append(self._parse_func())
            elif tok.kind is TokenKind.KW_CLASS:
                module.classes.append(self._parse_class())
            elif tok.kind in (TokenKind.KW_LET, TokenKind.KW_VAR):
                module.globals.append(self._parse_global())
            else:
                raise self._error(
                    f"expected declaration at module scope, found {tok.text!r}"
                )
            self._skip_newlines()
        module.closure_count = self._closures
        module.interface = self._interface_digest()
        return module

    def _parse_func(self) -> ast.FuncDecl:
        first = self.pos
        start = self._expect(TokenKind.KW_FUNC, "'func'")
        name = self._expect(TokenKind.IDENT, "function name").text
        params = self._parse_param_clause()
        throws = bool(self._match(TokenKind.KW_THROWS))
        ret_type: Type = VOID
        if self._match(TokenKind.ARROW):
            ret_type = self._parse_type()
        self._declared(first)
        body = self._parse_block()
        return ast.FuncDecl(
            line=start.line,
            column=start.column,
            name=name,
            params=params,
            ret_type=ret_type,
            throws=throws,
            body=body,
        )

    def _parse_param_clause(self) -> List[ast.Param]:
        self._expect(TokenKind.LPAREN, "'('")
        params: List[ast.Param] = []
        self._skip_newlines()
        while not self._check(TokenKind.RPAREN):
            # Accept "label name: T" (Swift external labels) and "_ name: T";
            # only the internal name is kept.
            first = self._expect(TokenKind.IDENT, "parameter name")
            name = first.text
            if self._check(TokenKind.IDENT):
                name = self._advance().text
            self._expect(TokenKind.COLON, "':'")
            ty = self._parse_type()
            params.append(ast.Param(line=first.line, column=first.column, name=name, ty=ty))
            self._skip_newlines()
            if not self._match(TokenKind.COMMA):
                break
            self._skip_newlines()
        self._expect(TokenKind.RPAREN, "')'")
        return params

    def _parse_class(self) -> ast.ClassDecl:
        first = self.pos
        start = self._expect(TokenKind.KW_CLASS, "'class'")
        name = self._expect(TokenKind.IDENT, "class name").text
        decl = ast.ClassDecl(line=start.line, column=start.column, name=name)
        self._expect(TokenKind.LBRACE, "'{'")
        self._declared(first)
        self._skip_newlines()
        while not self._check(TokenKind.RBRACE):
            while self._peek().kind in (TokenKind.KW_PUBLIC, TokenKind.KW_FINAL):
                self._advance()
            tok = self._peek()
            member = self.pos
            if tok.kind in (TokenKind.KW_VAR, TokenKind.KW_LET):
                is_let = tok.kind is TokenKind.KW_LET
                self._advance()
                fname = self._expect(TokenKind.IDENT, "field name").text
                self._expect(TokenKind.COLON, "':' (fields require a type)")
                fty = self._parse_type()
                decl.fields.append(
                    ast.FieldDecl(line=tok.line, column=tok.column, name=fname,
                                  ty=fty, is_let=is_let)
                )
                self._declared(member)
                self._end_statement()
            elif tok.kind is TokenKind.KW_INIT:
                self._advance()
                params = self._parse_param_clause()
                throws = bool(self._match(TokenKind.KW_THROWS))
                self._declared(member)
                body = self._parse_block()
                decl.inits.append(
                    ast.InitDecl(line=tok.line, column=tok.column, params=params,
                                 throws=throws, body=body)
                )
            elif tok.kind is TokenKind.KW_FUNC:
                decl.methods.append(self._parse_func())
            else:
                raise self._error(f"expected class member, found {tok.text!r}")
            self._skip_newlines()
        # The closing brace is part of the digest: it tells a method from
        # a free function declared right after the class.
        close = self.pos
        self._expect(TokenKind.RBRACE, "'}'")
        self._declared(close)
        return decl

    def _parse_global(self) -> ast.GlobalDecl:
        first = self.pos
        tok = self._advance()  # let / var
        is_let = tok.kind is TokenKind.KW_LET
        name = self._expect(TokenKind.IDENT, "global name").text
        declared_type: Optional[Type] = None
        if self._match(TokenKind.COLON):
            declared_type = self._parse_type()
        self._expect(TokenKind.ASSIGN, "'=' (globals require an initializer)")
        init = self._parse_expr()
        self._declared(first)
        self._end_statement()
        return ast.GlobalDecl(
            line=tok.line, column=tok.column, is_let=is_let, name=name,
            declared_type=declared_type, init=init,
        )

    # -- types ------------------------------------------------------------

    def _parse_type(self) -> Type:
        tok = self._peek()
        if tok.kind is TokenKind.LBRACKET:
            self._advance()
            elem = self._parse_type()
            self._expect(TokenKind.RBRACKET, "']'")
            return ArrayType(elem)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            params: List[Type] = []
            while not self._check(TokenKind.RPAREN):
                params.append(self._parse_type())
                if not self._match(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN, "')'")
            throws = bool(self._match(TokenKind.KW_THROWS))
            self._expect(TokenKind.ARROW, "'->' in function type")
            ret = self._parse_type()
            return FuncType(tuple(params), ret, throws)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if tok.text in _BUILTIN_TYPE_NAMES:
                return _BUILTIN_TYPE_NAMES[tok.text]
            # Nominal class reference; sema qualifies it with the module.
            return ClassType(tok.text)
        raise self._error(f"expected a type, found {tok.text!r}")

    def _try_parse_type(self) -> Optional[Type]:
        """Attempt a type parse with backtracking; None on failure."""
        saved = self.pos
        try:
            return self._parse_type()
        except ParseError:
            self.pos = saved
            return None

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE, "'{'")
        block = ast.Block(line=start.line, column=start.column)
        self._skip_newlines()
        while not self._check(TokenKind.RBRACE):
            block.stmts.append(self._parse_stmt())
            self._skip_newlines()
        self._expect(TokenKind.RBRACE, "'}'")
        return block

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind in (TokenKind.KW_LET, TokenKind.KW_VAR):
            return self._parse_var_decl()
        if tok.kind is TokenKind.KW_IF:
            return self._parse_if()
        if tok.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if tok.kind is TokenKind.KW_FOR:
            return self._parse_for()
        if tok.kind is TokenKind.KW_RETURN:
            self._advance()
            value: Optional[ast.Expr] = None
            if self._peek().kind not in (
                TokenKind.NEWLINE, TokenKind.SEMI, TokenKind.RBRACE, TokenKind.EOF
            ):
                value = self._parse_expr()
            self._end_statement()
            return ast.ReturnStmt(line=tok.line, column=tok.column, value=value)
        if tok.kind is TokenKind.KW_THROW:
            self._advance()
            code = self._parse_expr()
            self._end_statement()
            return ast.ThrowStmt(line=tok.line, column=tok.column, code=code)
        if tok.kind is TokenKind.KW_BREAK:
            self._advance()
            self._end_statement()
            return ast.BreakStmt(line=tok.line, column=tok.column)
        if tok.kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._end_statement()
            return ast.ContinueStmt(line=tok.line, column=tok.column)
        if tok.kind is TokenKind.KW_DO:
            return self._parse_do_catch()
        # Expression or assignment.
        expr = self._parse_expr()
        if self._check(TokenKind.ASSIGN):
            self._advance()
            value = self._parse_expr()
            self._end_statement()
            return ast.AssignStmt(line=tok.line, column=tok.column, target=expr,
                                  op=None, value=value)
        if self._peek().kind in _COMPOUND_ASSIGN:
            op = _COMPOUND_ASSIGN[self._advance().kind]
            value = self._parse_expr()
            self._end_statement()
            return ast.AssignStmt(line=tok.line, column=tok.column, target=expr,
                                  op=op, value=value)
        self._end_statement()
        return ast.ExprStmt(line=tok.line, column=tok.column, expr=expr)

    def _parse_var_decl(self) -> ast.VarDeclStmt:
        tok = self._advance()
        is_let = tok.kind is TokenKind.KW_LET
        name = self._expect(TokenKind.IDENT, "variable name").text
        declared_type: Optional[Type] = None
        if self._match(TokenKind.COLON):
            declared_type = self._parse_type()
        init: Optional[ast.Expr] = None
        if self._match(TokenKind.ASSIGN):
            init = self._parse_expr()
        self._end_statement()
        return ast.VarDeclStmt(line=tok.line, column=tok.column, is_let=is_let,
                               name=name, declared_type=declared_type, init=init)

    def _parse_if(self) -> ast.IfStmt:
        tok = self._expect(TokenKind.KW_IF, "'if'")
        cond = self._parse_expr()
        then_block = self._parse_block()
        else_block: Optional[ast.Block] = None
        if self._peek_skipping_newlines().kind is TokenKind.KW_ELSE:
            self._skip_newlines()
            self._advance()
            if self._check(TokenKind.KW_IF):
                nested = self._parse_if()
                else_block = ast.Block(line=nested.line, column=nested.column,
                                       stmts=[nested])
            else:
                else_block = self._parse_block()
        return ast.IfStmt(line=tok.line, column=tok.column, cond=cond,
                          then_block=then_block, else_block=else_block)

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._expect(TokenKind.KW_WHILE, "'while'")
        cond = self._parse_expr()
        body = self._parse_block()
        return ast.WhileStmt(line=tok.line, column=tok.column, cond=cond, body=body)

    def _parse_for(self) -> ast.Stmt:
        tok = self._expect(TokenKind.KW_FOR, "'for'")
        var_name = self._expect(TokenKind.IDENT, "loop variable").text
        self._expect(TokenKind.KW_IN, "'in'")
        first = self._parse_expr()
        if self._check(TokenKind.RANGE_HALF) or self._check(TokenKind.RANGE_FULL):
            inclusive = self._advance().kind is TokenKind.RANGE_FULL
            end = self._parse_expr()
            body = self._parse_block()
            return ast.ForRangeStmt(line=tok.line, column=tok.column,
                                    var_name=var_name, start=first, end=end,
                                    inclusive=inclusive, body=body)
        body = self._parse_block()
        return ast.ForEachStmt(line=tok.line, column=tok.column, var_name=var_name,
                               iterable=first, body=body)

    def _parse_do_catch(self) -> ast.DoCatchStmt:
        tok = self._expect(TokenKind.KW_DO, "'do'")
        body = self._parse_block()
        self._skip_newlines()
        self._expect(TokenKind.KW_CATCH, "'catch'")
        catch_body = self._parse_block()
        return ast.DoCatchStmt(line=tok.line, column=tok.column, body=body,
                               catch_body=catch_body)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        if self._check(TokenKind.KW_TRY):
            tok = self._advance()
            inner = self._parse_binary(0)
            return ast.TryExpr(line=tok.line, column=tok.column, inner=inner)
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_PRECEDENCE):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        table = _PRECEDENCE[level]
        while self._peek().kind in table:
            tok = self._advance()
            op = table[tok.kind]
            right = self._parse_binary(level + 1)
            left = ast.BinaryExpr(line=tok.line, column=tok.column, op=op,
                                  left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryExpr(line=tok.line, column=tok.column, op="-",
                                 operand=operand)
        if tok.kind is TokenKind.NOT:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryExpr(line=tok.line, column=tok.column, op="!",
                                 operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.LPAREN:
                self._advance()
                args, labels = self._parse_call_args()
                expr = ast.CallExpr(line=tok.line, column=tok.column, callee=expr,
                                    args=args, labels=labels)
            elif tok.kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(TokenKind.RBRACKET, "']'")
                expr = ast.IndexExpr(line=tok.line, column=tok.column, base=expr,
                                     index=index)
            elif tok.kind is TokenKind.DOT:
                self._advance()
                name = self._expect(TokenKind.IDENT, "member name").text
                expr = ast.MemberExpr(line=tok.line, column=tok.column, base=expr,
                                      name=name)
            else:
                return expr

    def _parse_call_args(self):
        args: List[ast.Expr] = []
        labels: List[Optional[str]] = []
        self._skip_newlines()
        while not self._check(TokenKind.RPAREN):
            label: Optional[str] = None
            if (
                self._peek().kind is TokenKind.IDENT
                and self._peek(1).kind is TokenKind.COLON
            ):
                label = self._advance().text
                self._advance()
            args.append(self._parse_expr())
            labels.append(label)
            self._skip_newlines()
            if not self._match(TokenKind.COMMA):
                break
            self._skip_newlines()
        self._expect(TokenKind.RPAREN, "')'")
        return args, labels

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(line=tok.line, column=tok.column, value=tok.value)
        if tok.kind is TokenKind.FLOAT:
            self._advance()
            return ast.FloatLit(line=tok.line, column=tok.column, value=tok.value)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLit(line=tok.line, column=tok.column, value=tok.value)
        if tok.kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.BoolLit(line=tok.line, column=tok.column, value=True)
        if tok.kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.BoolLit(line=tok.line, column=tok.column, value=False)
        if tok.kind is TokenKind.KW_NIL:
            self._advance()
            return ast.NilLit(line=tok.line, column=tok.column)
        if tok.kind is TokenKind.KW_SELF:
            self._advance()
            return ast.SelfExpr(line=tok.line, column=tok.column)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.Ident(line=tok.line, column=tok.column, name=tok.text)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        if tok.kind is TokenKind.LBRACKET:
            return self._parse_bracket_expr()
        if tok.kind is TokenKind.LBRACE:
            return self._parse_closure()
        raise self._error(f"expected an expression, found {tok.text!r}")

    def _parse_bracket_expr(self) -> ast.Expr:
        """Array literal ``[a, b]`` or repeating ctor ``[T](repeating:, count:)``."""
        tok = self._expect(TokenKind.LBRACKET, "'['")
        saved = self.pos
        elem_type = self._try_parse_type()
        if (
            elem_type is not None
            and self._check(TokenKind.RBRACKET)
            and self._peek(1).kind is TokenKind.LPAREN
        ):
            self._advance()  # ]
            self._advance()  # (
            args, labels = self._parse_call_args()
            if labels != ["repeating", "count"] or len(args) != 2:
                raise self._error(
                    "array constructor takes (repeating: value, count: n)"
                )
            return ast.ArrayRepeating(line=tok.line, column=tok.column,
                                      elem_type=elem_type, repeating=args[0],
                                      count=args[1])
        self.pos = saved
        elements: List[ast.Expr] = []
        self._skip_newlines()
        while not self._check(TokenKind.RBRACKET):
            elements.append(self._parse_expr())
            self._skip_newlines()
            if not self._match(TokenKind.COMMA):
                break
            self._skip_newlines()
        self._expect(TokenKind.RBRACKET, "']'")
        return ast.ArrayLit(line=tok.line, column=tok.column, elements=elements)

    def _parse_closure(self) -> ast.ClosureExpr:
        tok = self._expect(TokenKind.LBRACE, "'{'")
        self._closures += 1
        self._skip_newlines()
        self._expect(TokenKind.LPAREN, "closure parameter clause '('")
        # Re-enter the shared param-clause parser from after '('.
        self.pos -= 1
        params = self._parse_param_clause()
        ret_type: Type = VOID
        if self._match(TokenKind.ARROW):
            ret_type = self._parse_type()
        self._expect(TokenKind.KW_IN, "'in'")
        body = ast.Block(line=tok.line, column=tok.column)
        self._skip_newlines()
        while not self._check(TokenKind.RBRACE):
            body.stmts.append(self._parse_stmt())
            self._skip_newlines()
        self._expect(TokenKind.RBRACE, "'}'")
        return ast.ClosureExpr(line=tok.line, column=tok.column, params=params,
                               ret_type=ret_type, body=body)


def parse_module(source: str, module_name: str, filename: str = "") -> ast.Module:
    """Parse *source* into an AST module named *module_name*."""
    filename = filename or f"{module_name}.sw"
    tokens = tokenize(source, filename)
    return Parser(tokens, module_name, filename).parse_module()
