"""Semantic analysis unit tests."""

import dataclasses

import pytest

from repro.errors import SemaError
from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.runtime.layout import FIRST_CLASS_TYPE_ID, MAX_CLASS_TYPE_ID


def check(source, module="T"):
    return analyze_program([parse_module(source, module)])


def check_many(**sources):
    return analyze_program([parse_module(s, n) for n, s in sources.items()])


def expect_error(source, fragment):
    with pytest.raises(SemaError) as exc:
        check(source)
    assert fragment in str(exc.value), str(exc.value)


# -- basic typing --------------------------------------------------------------


def test_arithmetic_types():
    check("func f(a: Int, b: Int) -> Int { return a * b + 1 }")
    check("func f(a: Double) -> Double { return a * 2.0 }")


def test_mixed_numeric_rejected():
    expect_error("func f(a: Int, b: Double) -> Int { return a + b }",
                 "requires matching numeric")


def test_explicit_conversions():
    check("func f(a: Int) -> Double { return Double(a) + 0.5 }")
    check("func f(a: Double) -> Int { return Int(a) }")


def test_bool_conditions_required():
    expect_error("func f(x: Int) { if x { } }", "must be Bool")
    expect_error("func f(x: Int) { while x { } }", "must be Bool")


def test_unresolved_identifier():
    expect_error("func f() -> Int { return nope }", "unresolved identifier")


def test_unknown_type():
    expect_error("func f(x: Widget) { }", "unknown type")


def test_return_type_checked():
    expect_error('func f() -> Int { return "s" }', "cannot return")


def test_missing_return_detected():
    expect_error("func f(x: Int) -> Int { if x > 0 { return 1 } }",
                 "missing return")


def test_if_else_exhaustive_return_ok():
    check("func f(x: Int) -> Int { if x > 0 { return 1 } else { return 0 } }")


def test_void_cannot_return_value():
    expect_error("func f() { return 3 }", "void function")


# -- variables -----------------------------------------------------------------


def test_let_reassignment_rejected():
    expect_error("func f() { let x = 1\n x = 2 }", "cannot assign to 'let'")


def test_var_needs_type_or_initializer():
    expect_error("func f() { var x }", "needs a type or an initializer")


def test_let_requires_initializer():
    expect_error("func f() { let x: Int }", "must be initialized")


def test_redeclaration_rejected():
    expect_error("func f() { let x = 1\n let x = 2 }", "redeclaration")


def test_shadowing_in_nested_scope_allowed():
    check("func f() { let x = 1\n if x > 0 { let x = 2\n print(x) } }")


def test_discard_binding_repeats():
    check("func g() -> Int { return 1 }\n"
          "func f() { let _ = g()\n let _ = g() }")


def test_nil_needs_annotation():
    expect_error("func f() { let x = nil }", "cannot infer")


def test_nil_for_value_type_rejected():
    expect_error("func f() { var x: Int = nil }", "cannot initialize")


# -- globals ---------------------------------------------------------------------


def test_global_constant_folding():
    info = check("let a = 2 + 3 * 4\nfunc f() { print(a) }")
    gbl = info.modules[0].globals[0]
    assert gbl.const_value == 14


def test_global_requires_constant():
    expect_error("func g() -> Int { return 1 }\nlet a = g()",
                 "compile-time constant")


def test_ref_global_must_be_let():
    expect_error('var s = "hello"', "must be 'let'")


def test_global_array_fold():
    info = check("let a = [1, 2, 3]\nfunc f() { print(a[0]) }")
    assert info.modules[0].globals[0].const_value == [1, 2, 3]


# -- classes ---------------------------------------------------------------------


_CLASS = """
class Box {
    var value: Int
    let name: String
    init(value: Int) {
        self.value = value
        self.name = "box"
    }
    func bump() { self.value += 1 }
}
"""


def test_class_usage():
    check(_CLASS + """
func f() -> Int {
    let b = Box(value: 3)
    b.bump()
    return b.value
}
""")


def test_let_field_assign_outside_init_rejected():
    expect_error(_CLASS + """
func f() {
    let b = Box(value: 1)
    b.name = "nope"
}
""", "outside init")


def test_unknown_field():
    expect_error(_CLASS + "func f(b: Box) { print(b.missing) }",
                 "has no field")


def test_unknown_method():
    expect_error(_CLASS + "func f(b: Box) { b.missing() }", "has no method")


def test_ctor_arity_resolution():
    source = """
class P {
    var x: Int
    var y: Int
    init(x: Int) { self.x = x\n self.y = 0 }
    init(x: Int, y: Int) { self.x = x\n self.y = y }
}
func f() { let a = P(x: 1)\n let b = P(x: 1, y: 2) }
"""
    info = check(source)
    cls = info.modules[0].classes[0]
    assert len(cls.inits) == 2


def test_ctor_wrong_arity():
    expect_error(_CLASS + "func f() { let b = Box() }", "no init with 0")


def test_nil_comparison_ref_only():
    expect_error("func f(x: Int) -> Bool { return x == nil }",
                 "cannot compare")


def test_self_outside_class():
    expect_error("func f() { print(self.x) }", "'self' outside a class")


# -- throws discipline ------------------------------------------------------------


_THROWING = "func risky() throws -> Int { throw 3 }\n"


def test_try_required():
    expect_error(_THROWING + "func f() throws -> Int { return risky() }",
                 "requires 'try'")


def test_try_in_throwing_function():
    check(_THROWING + "func f() throws -> Int { return try risky() }")


def test_try_needs_handler_or_throws():
    expect_error(_THROWING + "func f() -> Int { return try risky() }",
                 "requires a throwing function or do/catch")


def test_do_catch_allows_try():
    check(_THROWING + """
func f() -> Int {
    do {
        return try risky()
    } catch {
        return error
    }
}
""")


def test_throw_outside_handler_rejected():
    expect_error("func f() { throw 3 }", "requires a throwing")


def test_throw_requires_int():
    expect_error('func f() throws { throw "oops" }', "must be Int")


def test_catch_binds_error():
    check(_THROWING + """
func f() -> Int {
    do { let x = try risky()\n return x } catch { return error * 2 }
}
""")


# -- closures and captures -----------------------------------------------------------


def test_closure_capture_boxed():
    info = check("""
func f() -> Int {
    var acc = 0
    let add = { (k: Int) -> Int in
        acc += k
        return acc
    }
    return add(2)
}
""")
    clo = info.closures[0]
    assert [c.name for c in clo.captures] == ["acc"]
    assert clo.captures[0].boxed


def test_nested_closures_capture_transitively():
    info = check("""
func f() -> Int {
    var total = 0
    let outer = { (a: Int) -> Int in
        let inner = { (b: Int) -> Int in
            total += b
            return total
        }
        return inner(a)
    }
    return outer(3)
}
""")
    assert len(info.closures) == 2
    for clo in info.closures:
        assert any(c.name == "total" for c in clo.captures)


def test_closure_type_mismatch():
    expect_error("""
func f() {
    let g: (Int) -> Int = { (a: Int, b: Int) -> Int in
        return a
    }
}
""", "cannot initialize")


def test_function_as_value():
    info = check("""
func double(x: Int) -> Int { return x * 2 }
func apply(f: (Int) -> Int, x: Int) -> Int { return f(x) }
func main() { print(apply(f: double, x: 4)) }
""")
    assert info is not None


def test_call_non_function_value():
    expect_error("func f(x: Int) { x(1) }", "cannot call")


# -- arrays / strings -------------------------------------------------------------


def test_array_operations():
    check("""
func f() -> Int {
    var a = [1, 2]
    a.append(3)
    let last = a.removeLast()
    return a.count + a[0] + last
}
""")


def test_empty_array_needs_annotation():
    expect_error("func f() { let a = [] }", "needs a type annotation")


def test_empty_array_with_annotation():
    check("func f() { var a: [Int] = []\n a.append(1) }")


def test_heterogeneous_array_rejected():
    expect_error('func f() { let a = [1, "x"] }', "does not match")


def test_subscript_index_must_be_int():
    expect_error("func f(a: [Int]) { print(a[1.5]) }", "must be Int")


def test_string_operations():
    check("""
func f(s: String) -> Int {
    let t = s + "suffix"
    if t == "x" { return 0 }
    return t.count + t[0]
}
""")


def test_array_method_unknown():
    expect_error("func f(a: [Int]) { a.sort() }", "no method")


# -- modules ----------------------------------------------------------------------


def test_cross_module_calls():
    info = check_many(
        Lib="func helper(x: Int) -> Int { return x + 1 }\n"
            "class Thing { var v: Int\n init(v: Int) { self.v = v } }",
        App="import Lib\n"
            "func main() { let t = Thing(v: helper(x: 1))\n print(t.v) }",
    )
    assert "Lib::Thing" in info.classes_by_qualified_name


def test_unimported_module_invisible():
    with pytest.raises(SemaError):
        check_many(
            Lib="func helper() -> Int { return 1 }",
            App="func main() { print(helper()) }",
        )


def test_unknown_import():
    with pytest.raises(SemaError):
        check("import Nowhere\nfunc f() {}")


def test_duplicate_module_names():
    with pytest.raises(SemaError):
        analyze_program([parse_module("func a() {}", "M"),
                         parse_module("func b() {}", "M")])


def test_same_class_name_in_two_modules():
    info = check_many(
        A="class Node { var v: Int\n init(v: Int) { self.v = v } }\n"
          "func makeA() -> Node { return Node(v: 1) }",
        B="class Node { var w: Double\n init(w: Double) { self.w = w } }\n"
          "func makeB() -> Node { return Node(w: 2.0) }",
    )
    assert "A::Node" in info.classes_by_qualified_name
    assert "B::Node" in info.classes_by_qualified_name


def test_class_past_the_type_id_limit_rejected():
    """Every id up to MAX_CLASS_TYPE_ID fits the object header; the class
    that would need the next one is a SemaError, not an aliased id that
    traps at run time.  (Declarations are cloned, not parsed: parsing
    65k classes would dominate the test.)"""
    def program(num_classes):
        module = parse_module("class C {}\nfunc main() {}", "T")
        proto = module.classes[0]
        module.classes = [dataclasses.replace(proto, name=f"C{i}")
                          for i in range(num_classes)]
        return [module]

    fits = MAX_CLASS_TYPE_ID - FIRST_CLASS_TYPE_ID + 1
    info = analyze_program(program(fits))
    last = info.classes_by_qualified_name[f"T::C{fits - 1}"]
    assert last.decl.type_id == MAX_CLASS_TYPE_ID
    with pytest.raises(SemaError, match="too many classes"):
        analyze_program(program(fits + 1))


def test_user_function_shadows_builtin():
    check("func log(code: Int) { print(code) }\nfunc f() { log(code: 3) }")


def test_builtin_signatures():
    check("func f() -> Double { return sqrt(2.0) + pow(2.0, 3.0) }")
    expect_error("func f() -> Double { return sqrt(2) }", "does not match")


def test_break_outside_loop():
    expect_error("func f() { break }", "outside a loop")
