"""End-to-end language semantics: compile with the full pipeline, execute in
the interpreter, check exact output and zero leaks."""

import pytest

from repro.errors import TrapError
from repro.pipeline import BuildConfig, build_program, run_build


def run(source, module="T", **cfg):
    result = build_program({module: source}, BuildConfig(**cfg))
    execution = run_build(result)
    assert execution.leaked == [], "refcount leak"
    return execution.output


class TestArithmetic:
    def test_integer_ops(self):
        out = run("""
func main() {
    print(7 + 3 * 2)
    print(7 / 2)
    print(-7 / 2)
    print(7 % 3)
    print(-7 % 3)
    print(1 << 10)
    print(-16 >> 2)
    print(12 & 10)
    print(12 | 3)
    print(12 ^ 10)
}
""")
        assert out == ["13", "3", "-3", "1", "-1", "1024", "-4", "8", "15",
                       "6"]

    def test_double_ops(self):
        out = run("""
func main() {
    print(1.5 + 2.25)
    print(10.0 / 4.0)
    print(2.0 * -3.5)
    print(sqrt(16.0))
    print(floor(3.7))
    print(pow(2.0, 10.0))
}
""")
        assert out == ["3.75", "2.5", "-7.0", "4.0", "3.0", "1024.0"]

    def test_comparisons_and_logic(self):
        out = run("""
func main() {
    print(3 < 5)
    print(3.5 >= 3.5)
    print(1 == 2 || 3 != 4)
    print(!(true && false))
}
""")
        assert out == ["true", "true", "true", "true"]

    def test_division_by_zero_traps(self):
        with pytest.raises(TrapError):
            run("func main() { var d = 0\n print(5 / d) }")

    def test_conversion_round_trip(self):
        out = run("""
func main() {
    print(Int(3.99))
    print(Int(-3.99))
    print(Double(41) + 1.0)
}
""")
        assert out == ["3", "-3", "42.0"]


class TestControlFlow:
    def test_loops(self):
        out = run("""
func main() {
    var s = 0
    for i in 0..<5 { s += i }
    print(s)
    var t = 0
    for i in 1...5 { t += i }
    print(t)
    var u = 0
    while u < 100 { u += 7 }
    print(u)
}
""")
        assert out == ["10", "15", "105"]

    def test_break_continue(self):
        out = run("""
func main() {
    var s = 0
    for i in 0..<10 {
        if i % 2 == 0 { continue }
        if i > 6 { break }
        s += i
    }
    print(s)
}
""")
        assert out == ["9"]  # 1+3+5

    def test_nested_loops_with_break(self):
        out = run("""
func main() {
    var hits = 0
    for i in 0..<5 {
        for j in 0..<5 {
            if i * j > 6 { break }
            hits += 1
        }
    }
    print(hits)
}
""")
        assert out == ["19"]

    def test_recursion(self):
        out = run("""
func fact(n: Int) -> Int {
    if n <= 1 { return 1 }
    return n * fact(n: n - 1)
}
func main() { print(fact(n: 10)) }
""")
        assert out == ["3628800"]

    def test_mutual_recursion(self):
        out = run("""
func isEven(n: Int) -> Bool {
    if n == 0 { return true }
    return isOdd(n: n - 1)
}
func isOdd(n: Int) -> Bool {
    if n == 0 { return false }
    return isEven(n: n - 1)
}
func main() { print(isEven(n: 10))\n print(isOdd(n: 7)) }
""")
        assert out == ["true", "true"]


class TestClassesAndARC:
    def test_object_graph(self):
        out = run("""
class Node {
    var next: Node
    var value: Int
    init(value: Int) { self.value = value\n self.next = nil }
}
func main() {
    let a = Node(value: 1)
    a.next = Node(value: 2)
    a.next.next = Node(value: 3)
    var total = 0
    var cur = a
    while cur != nil {
        total += cur.value
        cur = cur.next
    }
    print(total)
}
""")
        assert out == ["6"]

    def test_field_reassignment_releases_old(self):
        out = run("""
class Leaf { var v: Int
    init(v: Int) { self.v = v } }
class Holder { var leaf: Leaf
    init() { self.leaf = nil } }
func main() {
    let h = Holder()
    h.leaf = Leaf(v: 1)
    h.leaf = Leaf(v: 2)
    h.leaf = Leaf(v: 3)
    print(h.leaf.v)
}
""")
        assert out == ["3"]

    def test_methods_and_self(self):
        out = run("""
class Counter {
    var n: Int
    init() { self.n = 0 }
    func bump() -> Int {
        self.n += 1
        return self.n
    }
    func reset() { self.n = 0 }
}
func main() {
    let c = Counter()
    print(c.bump() + c.bump() + c.bump())
    c.reset()
    print(c.n)
}
""")
        assert out == ["6", "0"]

    def test_multiple_inits(self):
        out = run("""
class P {
    var x: Int
    var y: Int
    init(x: Int) { self.x = x\n self.y = -1 }
    init(x: Int, y: Int) { self.x = x\n self.y = y }
}
func main() {
    print(P(x: 3).y)
    print(P(x: 3, y: 9).y)
}
""")
        assert out == ["-1", "9"]

    def test_object_identity_comparison(self):
        out = run("""
class Box { var v: Int\n init() { self.v = 0 } }
func main() {
    let a = Box()
    let b = a
    let c = Box()
    print(a == b)
    print(a == c)
    print(a != c)
}
""")
        assert out == ["true", "false", "true"]

    @pytest.mark.parametrize("target", ["arm64", "thumb2c"])
    def test_hundreds_of_classes(self, target):
        """Class type ids past 255 survive the object header: one object
        of each of 300 classes is allocated, read and released (each
        release looks its class up by the id in the header)."""
        n = 300
        classes = "".join(f"class C{i} {{ var v: Int\n"
                          f"    init(v: Int) {{ self.v = v }} }}\n"
                          for i in range(n))
        uses = "".join(f"    total += C{i}(v: {i}).v\n" for i in range(n))
        out = run(classes + "func main() {\n    var total = 0\n" + uses
                  + "    print(total)\n}\n", target=target)
        assert out == [str(sum(range(n)))]


class TestArraysAndStrings:
    def test_array_mutation(self):
        out = run("""
func main() {
    var a = [Int](repeating: 0, count: 4)
    for i in 0..<4 { a[i] = i * i }
    a.append(100)
    print(a.count)
    print(a[4])
    print(a.removeLast())
    print(a.count)
}
""")
        assert out == ["5", "100", "100", "4"]

    def test_array_out_of_bounds_traps(self):
        with pytest.raises(TrapError):
            run("func main() { let a = [1, 2]\n print(a[5]) }")

    def test_negative_index_traps(self):
        with pytest.raises(TrapError):
            run("func main() { let a = [1, 2]\n var i = -1\n print(a[i]) }")

    def test_nested_arrays(self):
        out = run("""
func main() {
    var grid = [[Int]](repeating: [0], count: 3)
    for i in 0..<3 {
        grid[i] = [Int](repeating: i, count: i + 1)
    }
    print(grid[2].count)
    print(grid[2][2])
}
""")
        assert out == ["3", "2"]

    def test_array_of_objects(self):
        out = run("""
class Item { var v: Int\n init(v: Int) { self.v = v } }
func main() {
    var items: [Item] = []
    for i in 0..<5 { items.append(Item(v: i * 10)) }
    var total = 0
    for item in items { total += item.v }
    print(total)
    items[0] = Item(v: 999)
    print(items[0].v)
}
""")
        assert out == ["100", "999"]

    def test_string_operations(self):
        out = run("""
func main() {
    let s = "hello" + " " + "world"
    print(s)
    print(s.count)
    print(s[0])
    print(s == "hello world")
    print(s == "other")
}
""")
        assert out == ["hello world", "11", "104", "true", "false"]

    def test_global_constants(self):
        out = run("""
let table = [10, 20, 30]
let banner = "app"
let factor = 6 * 7
var counter = 0
func main() {
    counter = counter + factor
    print(table[1] + counter)
    print(banner.count)
}
""")
        assert out == ["62", "3"]


class TestClosures:
    def test_capture_mutation_shared(self):
        out = run("""
func main() {
    var acc = 10
    let add = { (k: Int) -> Int in
        acc += k
        return acc
    }
    let sub = { (k: Int) -> Int in
        acc -= k
        return acc
    }
    print(add(5))
    print(sub(3))
    print(acc)
}
""")
        assert out == ["15", "12", "12"]

    def test_closure_as_argument(self):
        out = run("""
func twice(f: (Int) -> Int, x: Int) -> Int { return f(f(x)) }
func main() {
    print(twice(f: { (n: Int) -> Int in return n * 3 }, x: 2))
}
""")
        assert out == ["18"]

    def test_closure_escaping_function(self):
        out = run("""
func makeCounter() -> () -> Int {
    var n = 0
    return { () -> Int in
        n += 1
        return n
    }
}
func main() {
    let c1 = makeCounter()
    let c2 = makeCounter()
    print(c1())
    print(c1())
    print(c2())
}
""")
        assert out == ["1", "2", "1"]

    def test_function_reference_as_value(self):
        out = run("""
func double(x: Int) -> Int { return x * 2 }
func apply(f: (Int) -> Int, x: Int) -> Int { return f(x) }
func main() { print(apply(f: double, x: 21)) }
""")
        assert out == ["42"]


class TestErrors:
    def test_throw_and_catch(self):
        out = run("""
func risky(x: Int) throws -> Int {
    if x > 5 { throw x * 100 }
    return x * 2
}
func main() {
    do {
        print(try risky(x: 3))
        print(try risky(x: 9))
        print(9999)
    } catch {
        print(error)
    }
}
""")
        assert out == ["6", "900"]

    def test_error_propagation_through_layers(self):
        out = run("""
func inner(x: Int) throws -> Int {
    if x == 0 { throw 7 }
    return x
}
func middle(x: Int) throws -> Int {
    return (try inner(x: x)) + 100
}
func main() {
    do {
        print(try middle(x: 0))
    } catch {
        print(error)
    }
}
""")
        assert out == ["7"]

    def test_throwing_init_cleanup(self):
        out = run("""
class Res {
    let tag: String
    let extra: String
    init(fail: Bool) throws {
        self.tag = "first"
        if fail { throw 55 }
        self.extra = "second"
    }
}
func main() {
    do {
        let ok = try Res(fail: false)
        print(ok.tag)
        let bad = try Res(fail: true)
        print(bad.tag)
    } catch {
        print(error)
    }
}
""")
        assert out == ["first", "55"]

    def test_error_code_zero(self):
        out = run("""
func zeroThrow() throws -> Int { throw 0 }
func main() {
    do { print(try zeroThrow()) } catch { print(error + 1000) }
}
""")
        assert out == ["1000"]

    def test_nested_do_catch(self):
        out = run("""
func boom(code: Int) throws { throw code }
func main() {
    do {
        do {
            try boom(code: 1)
        } catch {
            try boom(code: error + 10)
        }
    } catch {
        print(error)
    }
}
""")
        assert out == ["11"]

    def test_loop_break_on_error(self):
        out = run("""
func checked(i: Int) throws -> Int {
    if i == 3 { throw i }
    return i
}
func main() {
    var total = 0
    for i in 0..<10 {
        do {
            total += try checked(i: i)
        } catch {
            total += 1000
        }
    }
    print(total)
}
""")
        assert out == [str(sum(i for i in range(10) if i != 3) + 1000)]


class TestModules:
    def test_cross_module_program(self):
        sources = {
            "Math": """
func square(x: Int) -> Int { return x * x }
let offset = 5
""",
            "Shapes": """
import Math
class Rect {
    var w: Int
    var h: Int
    init(w: Int, h: Int) { self.w = w\n self.h = h }
    func area() -> Int { return self.w * self.h + offset }
}
""",
            "Main": """
import Math
import Shapes
func main() {
    let r = Rect(w: 3, h: 4)
    print(r.area())
    print(square(x: 9))
}
""",
        }
        result = build_program(sources)
        execution = run_build(result)
        assert execution.output == ["17", "81"]
        assert execution.leaked == []

    def test_both_pipelines_agree(self):
        sources = {
            "Lib": "func triple(x: Int) -> Int { return x * 3 }",
            "Main": "import Lib\nfunc main() { print(triple(x: 14)) }",
        }
        wp = run_build(build_program(sources, BuildConfig(
            pipeline="wholeprogram")))
        default = run_build(build_program(sources, BuildConfig(
            pipeline="default")))
        assert wp.output == default.output == ["42"]


class TestBuiltins:
    def test_assert_passes(self):
        out = run("func main() { assert(1 + 1 == 2)\n print(1) }")
        assert out == ["1"]

    def test_assert_failure_traps(self):
        with pytest.raises(TrapError):
            run("func main() { assert(1 == 2) }")

    def test_random_deterministic(self):
        out = run("""
func main() {
    seedRandom(42)
    let a = random()
    seedRandom(42)
    let b = random()
    print(a == b)
    print(a >= 0)
}
""")
        assert out == ["true", "true"]

    def test_abs(self):
        out = run("func main() { print(abs(-5) + abs(3)) }")
        assert out == ["8"]
