"""SILGen structural tests: ARC insertion, error unwinding, init flags."""

import pytest

from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.pipeline import BuildConfig, build_program, run_build
from repro.sil import sil
from repro.sil.silgen import generate_sil


def gen(source, module="T"):
    info = analyze_program([parse_module(source, module)])
    return generate_sil(info)[0]


def func(module, suffix):
    for fn in module.functions:
        if fn.symbol.endswith(suffix):
            return fn
    raise KeyError(suffix)


def instrs_of(fn, kind):
    return [i for blk in fn.blocks for i in blk.instrs
            if isinstance(i, kind)]


def test_param_release_on_exit():
    m = gen("""
class Box { var v: Int
    init(v: Int) { self.v = v } }
func consume(b: Box) { print(b.v) }
""")
    fn = func(m, "::consume")
    # The +1 parameter convention: the ref param is released on exit.
    assert instrs_of(fn, sil.Release), "ref param must be released"


def test_int_params_not_released():
    m = gen("func f(x: Int) -> Int { return x + 1 }")
    fn = func(m, "::f")
    assert not instrs_of(fn, sil.Release)
    assert not instrs_of(fn, sil.Retain)


def test_call_args_retained():
    m = gen("""
class Box { var v: Int
    init(v: Int) { self.v = v } }
func use(b: Box) { }
func caller(b: Box) { use(b: b) }
""")
    fn = func(m, "::caller")
    # Borrowed local passed as +1 arg: retain before the call.
    retains = instrs_of(fn, sil.Retain)
    assert retains, "argument must be retained to +1"


def test_field_store_is_ref_flagged():
    m = gen("""
class Node { var next: Node\n var v: Int
    init() { self.next = nil\n self.v = 0 } }
func link(a: Node, b: Node) { a.next = b }
""")
    fn = func(m, "::link")
    stores = instrs_of(fn, sil.FieldStore)
    assert any(s.is_ref for s in stores)


def test_throwing_init_has_flags_and_cleanup_block():
    m = gen("""
class D {
    let name: String
    let label: String
    init(x: Int) throws {
        self.name = "a"
        if x > 0 { throw x }
        self.label = "b"
    }
}
""")
    fn = func(m, "D.init#1")
    # Per-ref-field init flags exist (AllocStack named <field>$init).
    flag_names = [i.name for i in instrs_of(fn, sil.AllocStack)]
    assert "name$init" in flag_names and "label$init" in flag_names
    # A shared cleanup block conditionally releases fields, deallocates the
    # partial object, and rethrows (the Figure 9 structure).
    labels = [blk.label for blk in fn.blocks]
    assert "init_error_cleanup" in labels
    cleanup = fn.block("init_error_cleanup")
    assert any(isinstance(i, sil.ApplyBuiltin) and
               i.builtin == "dealloc_partial"
               for blk in fn.blocks for i in blk.instrs)
    assert instrs_of(fn, sil.Throw)


def test_nonthrowing_init_has_no_flags():
    m = gen("""
class D {
    let name: String
    init() { self.name = "a" }
}
""")
    fn = func(m, "D.init#0")
    flag_names = [i.name for i in instrs_of(fn, sil.AllocStack)]
    assert "name$init" not in flag_names


def test_try_apply_terminator_shape():
    m = gen("""
func risky() throws -> Int { throw 1 }
func driver() -> Int {
    do { return try risky() } catch { return error }
}
""")
    fn = func(m, "::driver")
    try_applies = instrs_of(fn, sil.TryApply)
    assert len(try_applies) == 1
    ta = try_applies[0]
    labels = {blk.label for blk in fn.blocks}
    assert ta.normal_target in labels and ta.error_target in labels


def test_closure_gets_context_param_and_box_loads():
    m = gen("""
func f() -> Int {
    var acc = 0
    let add = { (k: Int) -> Int in
        acc += k
        return acc
    }
    return add(1)
}
""")
    clo = [fn for fn in m.functions if "closure#" in fn.symbol][0]
    # declared param + hidden context param
    assert len(clo.param_temps) == 2
    assert instrs_of(clo, sil.FieldLoad), "must extract captured box from ctx"
    assert instrs_of(clo, sil.BoxGet) or instrs_of(clo, sil.BoxSet)


def test_make_closure_captures_box():
    m = gen("""
func f() -> Int {
    var acc = 0
    let add = { (k: Int) -> Int in
        acc += k
        return acc
    }
    return add(1)
}
""")
    fn = func(m, "::f")
    boxes = instrs_of(fn, sil.AllocBox)
    closures = instrs_of(fn, sil.MakeClosure)
    assert len(boxes) == 1 and len(closures) == 1
    assert len(closures[0].captures) == 1


def test_function_as_value_creates_bare_thunk():
    m = gen("""
func double(x: Int) -> Int { return x * 2 }
func apply(f: (Int) -> Int) -> Int { return f(7) }
func main() { print(apply(f: double)) }
""")
    thunks = [fn for fn in m.functions if fn.symbol.endswith("$thunk")]
    assert len(thunks) == 1
    assert thunks[0].is_bare
    assert thunks[0].symbol == "T::double$thunk"


#: Two modules take the same imported function as a value.
THUNK_PROGRAM = {
    "Lib": "func twice(x: Int) -> Int { return x * 2 }\n",
    "A": "import Lib\nfunc fromA() -> Int {\n    let f = twice\n"
         "    return f(4)\n}\n",
    "Main": "import Lib\nimport A\nfunc main() {\n    print(fromA())\n"
            "    let f = twice\n    print(f(3))\n}\n",
}


@pytest.mark.parametrize("pipeline", ["default", "wholeprogram"])
def test_imported_function_thunk_is_named_in_each_referencing_module(
        pipeline, tmp_path):
    uncached = build_program(THUNK_PROGRAM, BuildConfig(pipeline=pipeline))
    assert {"A::Lib::twice$thunk", "Main::Lib::twice$thunk"} <= set(
        uncached.image.symbols)
    assert run_build(uncached).output == ["8", "6"]
    cached = BuildConfig(pipeline=pipeline, incremental=True,
                         cache_dir=str(tmp_path))
    build_program(THUNK_PROGRAM, cached)
    edited = {**THUNK_PROGRAM,
              "A": THUNK_PROGRAM["A"].replace("f(4)", "f(2) * 2")}
    warm = build_program(edited, cached)
    assert warm.report.cache_misses == 1
    assert run_build(warm).output == ["8", "6"]
    assert warm.image.text_section() == build_program(
        edited, BuildConfig(pipeline=pipeline)).image.text_section()


def test_entry_symbol_set():
    m = gen("func main() { }", module="Main")
    assert m.entry_symbol == "Main::main"


def test_no_entry_symbol_without_main():
    m = gen("func helper() { }")
    assert m.entry_symbol is None


def test_global_lowering():
    m = gen('let a = 5\nlet s = "hi"\nfunc f() { print(a)\n print(s) }')
    symbols = {g.symbol for g in m.globals}
    assert symbols == {"T::a", "T::s"}
    fn = func(m, "::f")
    loads = instrs_of(fn, sil.GlobalLoad)
    assert {l.is_object for l in loads} == {False, True}


def test_for_each_releases_iterable():
    m = gen("""
func make() -> [Int] { return [1, 2] }
func f() -> Int {
    var t = 0
    for x in make() { t += x }
    return t
}
""")
    fn = func(m, "::f")
    assert instrs_of(fn, sil.ArrayCount)
    assert instrs_of(fn, sil.Release), "owned iterable must be released"


def test_blocks_all_terminated():
    m = gen("""
func f(x: Int) -> Int {
    if x > 0 { return 1 }
    while x < 0 { break }
    return 0
}
""")
    for fn in m.functions:
        for blk in fn.blocks:
            assert blk.terminator is not None, f"{fn.symbol}:{blk.label}"
