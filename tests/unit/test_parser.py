"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.parser import parse_module
from repro.frontend.types import (
    BOOL,
    DOUBLE,
    INT,
    VOID,
    ArrayType,
    FuncType,
)


def parse(source):
    return parse_module(source, "T")


def test_function_declaration():
    m = parse("func add(a: Int, b: Int) -> Int { return a + b }")
    fn = m.functions[0]
    assert fn.name == "add"
    assert [p.name for p in fn.params] == ["a", "b"]
    assert fn.ret_type == INT
    assert not fn.throws


def test_throws_function():
    m = parse("func f() throws -> Double { return 1.0 }")
    assert m.functions[0].throws
    assert m.functions[0].ret_type == DOUBLE


def test_void_function():
    m = parse("func f() { }")
    assert m.functions[0].ret_type == VOID


def test_imports():
    m = parse("import A\nimport B\nfunc f() {}")
    assert m.imports == ["A", "B"]


def test_class_declaration():
    m = parse("""
class Point {
    var x: Int
    let tag: String
    init(x: Int) { self.x = x }
    func get() -> Int { return self.x }
}
""")
    cls = m.classes[0]
    assert cls.name == "Point"
    assert [f.name for f in cls.fields] == ["x", "tag"]
    assert cls.fields[1].is_let
    assert len(cls.inits) == 1
    assert len(cls.methods) == 1


def test_global_declaration():
    m = parse("let limit = 10\nvar counter = 0")
    assert m.globals[0].is_let and m.globals[0].name == "limit"
    assert not m.globals[1].is_let


def test_array_and_function_types():
    m = parse("func f(a: [Int], g: (Int, Int) -> Bool) {}")
    params = m.functions[0].params
    assert params[0].ty == ArrayType(INT)
    assert params[1].ty == FuncType((INT, INT), BOOL)


def test_nested_array_type():
    m = parse("func f(a: [[Double]]) {}")
    assert m.functions[0].params[0].ty == ArrayType(ArrayType(DOUBLE))


def test_precedence():
    m = parse("func f() -> Int { return 1 + 2 * 3 }")
    ret = m.functions[0].body.stmts[0]
    expr = ret.value
    assert isinstance(expr, ast.BinaryExpr) and expr.op == "+"
    assert isinstance(expr.right, ast.BinaryExpr) and expr.right.op == "*"


def test_logical_precedence():
    m = parse("func f(a: Bool, b: Bool, c: Bool) -> Bool { return a || b && c }")
    expr = m.functions[0].body.stmts[0].value
    assert expr.op == "||"
    assert expr.right.op == "&&"


def test_comparison_binds_looser_than_arithmetic():
    m = parse("func f(x: Int) -> Bool { return x + 1 < x * 2 }")
    expr = m.functions[0].body.stmts[0].value
    assert expr.op == "<"


def test_unary_operators():
    m = parse("func f(x: Int, b: Bool) -> Int { return -x }")
    assert isinstance(m.functions[0].body.stmts[0].value, ast.UnaryExpr)


def test_call_with_labels():
    m = parse("func f() { g(x: 1, y: 2) }")
    call = m.functions[0].body.stmts[0].expr
    assert call.labels == ["x", "y"]


def test_member_chain_and_index():
    m = parse("func f() { a.b.c[0].d() }")
    call = m.functions[0].body.stmts[0].expr
    assert isinstance(call, ast.CallExpr)
    assert isinstance(call.callee, ast.MemberExpr)


def test_array_literal():
    m = parse("func f() { let a = [1, 2, 3] }")
    lit = m.functions[0].body.stmts[0].init
    assert isinstance(lit, ast.ArrayLit) and len(lit.elements) == 3


def test_array_repeating_ctor():
    m = parse("func f() { let a = [Int](repeating: 0, count: 5) }")
    ctor = m.functions[0].body.stmts[0].init
    assert isinstance(ctor, ast.ArrayRepeating)
    assert ctor.elem_type == INT


def test_array_repeating_requires_labels():
    with pytest.raises(ParseError):
        parse("func f() { let a = [Int](0, 5) }")


def test_closure_literal():
    m = parse("""
func f() {
    let g = { (a: Int) -> Int in
        return a + 1
    }
}
""")
    clo = m.functions[0].body.stmts[0].init
    assert isinstance(clo, ast.ClosureExpr)
    assert clo.params[0].name == "a"
    assert clo.ret_type == INT


def test_if_else_if_chain():
    m = parse("""
func f(x: Int) -> Int {
    if x > 0 { return 1 } else if x < 0 { return -1 } else { return 0 }
}
""")
    stmt = m.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.IfStmt)
    nested = stmt.else_block.stmts[0]
    assert isinstance(nested, ast.IfStmt)
    assert nested.else_block is not None


def test_for_range_and_for_each():
    m = parse("""
func f(a: [Int]) {
    for i in 0..<10 { }
    for j in 0...5 { }
    for x in a { }
}
""")
    stmts = m.functions[0].body.stmts
    assert isinstance(stmts[0], ast.ForRangeStmt) and not stmts[0].inclusive
    assert isinstance(stmts[1], ast.ForRangeStmt) and stmts[1].inclusive
    assert isinstance(stmts[2], ast.ForEachStmt)


def test_while_break_continue():
    m = parse("""
func f() {
    while true {
        break
        continue
    }
}
""")
    body = m.functions[0].body.stmts[0].body
    assert isinstance(body.stmts[0], ast.BreakStmt)
    assert isinstance(body.stmts[1], ast.ContinueStmt)


def test_do_catch():
    m = parse("""
func f() {
    do {
        g()
    } catch {
        h()
    }
}
""")
    stmt = m.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.DoCatchStmt)


def test_throw_and_try():
    m = parse("""
func f(x: Int) throws -> Int {
    if x > 0 { throw x }
    return try g(x: x)
}
""")
    stmts = m.functions[0].body.stmts
    assert isinstance(stmts[0].then_block.stmts[0], ast.ThrowStmt)
    assert isinstance(stmts[1].value, ast.TryExpr)


def test_compound_assignment():
    m = parse("func f() { var x = 0\n x += 2\n x *= 3 }")
    stmts = m.functions[0].body.stmts
    assert stmts[1].op == "+"
    assert stmts[2].op == "*"


def test_semicolons_as_separators():
    m = parse("func f() { let a = 1; let b = 2 }")
    assert len(m.functions[0].body.stmts) == 2


def test_missing_statement_separator_rejected():
    with pytest.raises(ParseError):
        parse("func f() { let a = 1 let b = 2 }")


def test_public_and_final_modifiers_accepted():
    m = parse("public func f() {}\nfinal class C { }")
    assert m.functions[0].name == "f"
    assert m.classes[0].name == "C"


def test_parse_error_has_location():
    with pytest.raises(ParseError) as exc:
        parse("func f( {}")
    assert "expected" in str(exc.value)


def test_external_parameter_labels():
    m = parse("func f(with value: Int) {}")
    assert m.functions[0].params[0].name == "value"
