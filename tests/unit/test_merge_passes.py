"""MergeFunctions, FMSA, and optimistic-merge pass tests."""

from repro.lir import ir
from repro.lir.passes import fmsa, mergefunctions, optmerge


def make_adder(symbol: str, constant: int) -> ir.LIRFunction:
    fn = ir.LIRFunction(symbol=symbol, has_return_value=True)
    p = fn.new_value()
    fn.params = [p]
    fn.param_is_float = [False]
    entry = fn.new_block("entry")
    out = fn.new_value()
    entry.instrs.append(ir.BinOp(result=out, op="+", lhs=p,
                                 rhs=ir.Const(constant)))
    entry.instrs.append(ir.Ret(value=out))
    return fn


def make_caller(symbol: str, targets) -> ir.LIRFunction:
    fn = ir.LIRFunction(symbol=symbol, has_return_value=True)
    entry = fn.new_block("entry")
    acc = ir.Const(0)
    for target in targets:
        r = fn.new_value()
        entry.instrs.append(ir.Call(result=r, callee=target,
                                    args=[ir.Const(1)]))
        s = fn.new_value()
        entry.instrs.append(ir.BinOp(result=s, op="+", lhs=acc, rhs=r))
        acc = s
    entry.instrs.append(ir.Ret(value=acc))
    return fn


class TestMergeFunctions:
    def test_identical_functions_merged(self):
        module = ir.LIRModule(name="m")
        module.functions = [make_adder("a", 5), make_adder("b", 5),
                            make_adder("c", 7),
                            make_caller("main", ["a", "b", "c"])]
        module.entry_symbol = "main"
        report = mergefunctions.run_on_module(module)
        assert report["functions_merged"] == 1
        names = {fn.symbol for fn in module.functions}
        assert "b" not in names and "a" in names and "c" in names
        # Calls to the duplicate are redirected.
        main = module.function("main")
        callees = [i.callee for i in main.instructions()
                   if isinstance(i, ir.Call)]
        assert callees == ["a", "a", "c"]

    def test_different_constants_not_merged(self):
        module = ir.LIRModule(name="m")
        module.functions = [make_adder("a", 5), make_adder("b", 6)]
        report = mergefunctions.run_on_module(module)
        assert report["functions_merged"] == 0

    def test_address_taken_not_merged(self):
        module = ir.LIRModule(name="m")
        module.functions = [make_adder("a", 5), make_adder("b", 5)]
        taker = ir.LIRFunction(symbol="taker", has_return_value=True)
        entry = taker.new_block("entry")
        fa = taker.new_value()
        entry.instrs.append(ir.FuncAddr(result=fa, symbol="b"))
        entry.instrs.append(ir.Ret(value=fa))
        module.functions.append(taker)
        report = mergefunctions.run_on_module(module)
        assert report["functions_merged"] == 0

    def test_entry_never_merged(self):
        module = ir.LIRModule(name="m", entry_symbol="a")
        module.functions = [make_adder("a", 5), make_adder("b", 5)]
        mergefunctions.run_on_module(module)
        assert any(fn.symbol == "a" for fn in module.functions)


class TestFMSA:
    def test_const_divergent_functions_merged(self):
        module = ir.LIRModule(name="m")
        module.functions = [make_adder("a", 5), make_adder("b", 9),
                            make_caller("main", ["a", "b"])]
        module.entry_symbol = "main"
        report = fmsa.run_on_module(module)
        assert report["functions_merged"] == 1
        # One representative remains, parameterised by the constant.
        rep = [fn for fn in module.functions if fn.symbol in ("a", "b")]
        assert len(rep) == 1
        assert len(rep[0].params) == 2  # original + hoisted constant
        # Callers pass the right constants.
        main = module.function("main")
        calls = [i for i in main.instructions() if isinstance(i, ir.Call)]
        passed = [c.args[-1] for c in calls]
        assert ir.Const(5) in passed and ir.Const(9) in passed

    def test_merged_function_execution_equivalent(self, build_and_run):
        """End-to-end: fmsa must preserve program output."""
        from repro.pipeline import BuildConfig

        source = """
func f1(x: Int) -> Int { return x * 3 + 10 }
func f2(x: Int) -> Int { return x * 3 + 99 }
func f3(x: Int) -> Int { return x * 3 + 42 }
func main() {
    print(f1(x: 5) + f2(x: 5) + f3(x: 5))
}
"""
        _, plain = build_and_run(source, BuildConfig(enable_fmsa=False))
        _, merged = build_and_run(source, BuildConfig(enable_fmsa=True))
        assert plain.output == merged.output

    def test_shape_mismatch_not_merged(self):
        module = ir.LIRModule(name="m")
        a = make_adder("a", 5)
        b = make_adder("b", 9)
        # Give b an extra instruction: shapes differ.
        extra = b.new_value()
        b.entry.instrs.insert(1, ir.BinOp(result=extra, op="*",
                                          lhs=b.params[0], rhs=ir.Const(2)))
        module.functions = [a, b]
        report = fmsa.run_on_module(module)
        assert report["functions_merged"] == 0

    def test_mergefunctions_execution_equivalent(self, build_and_run):
        from repro.pipeline import BuildConfig

        source = """
func dup1(x: Int) -> Int { return x * x + 1 }
func dup2(x: Int) -> Int { return x * x + 1 }
func main() { print(dup1(x: 3) + dup2(x: 4)) }
"""
        _, plain = build_and_run(source, BuildConfig(merge_mode="off"))
        merged_build, merged = build_and_run(source, BuildConfig(
            merge_mode="exact"))
        assert plain.output == merged.output == ["27"]
        assert merged_build.report.pass_reports["mergefunctions"][
            "functions_merged"] >= 1


def make_const_returner(symbol: str, const: ir.Const,
                        is_float: bool = False) -> ir.LIRFunction:
    fn = ir.LIRFunction(symbol=symbol, has_return_value=True,
                        ret_is_float=is_float)
    entry = fn.new_block("entry")
    entry.instrs.append(ir.Ret(value=const, is_float=is_float))
    return fn


class TestConstCanonicalization:
    """Crafted-collision regressions: Python ``==`` conflates constants
    the backend materialises differently, and the canonical key must
    not (0.0 == -0.0, True == 1, 2.0 == 2)."""

    def test_const_token_separates_python_equal_values(self):
        token = mergefunctions.const_token
        assert token(ir.Const(0.0, is_float=True)) \
            != token(ir.Const(-0.0, is_float=True))
        assert token(ir.Const(True)) != token(ir.Const(1))
        assert token(ir.Const(2.0, is_float=True)) != token(ir.Const(2))
        # Same value, same kind: still a stable, equal token.
        assert token(ir.Const(5)) == token(ir.Const(5))

    def test_positive_and_negative_float_zero_do_not_merge(self):
        module = ir.LIRModule(name="m")
        module.functions = [
            make_const_returner("pz", ir.Const(0.0, is_float=True), True),
            make_const_returner("nz", ir.Const(-0.0, is_float=True), True)]
        assert mergefunctions.run_on_module(module)["functions_merged"] == 0
        # FMSA sees them as const-divergent floats and must leave both
        # intact (float diffs are never hoisted), not fold them as equal.
        assert fmsa.run_on_module(module)["functions_merged"] == 0
        assert {fn.symbol for fn in module.functions} == {"pz", "nz"}

    def test_bool_true_and_int_one_do_not_merge(self):
        module = ir.LIRModule(name="m")
        module.functions = [make_const_returner("bt", ir.Const(True)),
                            make_const_returner("i1", ir.Const(1))]
        assert mergefunctions.run_on_module(module)["functions_merged"] == 0

    def test_differing_call_targets_do_not_merge(self):
        def make_forwarder(symbol, callee):
            fn = ir.LIRFunction(symbol=symbol, has_return_value=True)
            entry = fn.new_block("entry")
            r = fn.new_value()
            entry.instrs.append(ir.Call(result=r, callee=callee,
                                        args=[ir.Const(1)]))
            entry.instrs.append(ir.Ret(value=r))
            return fn

        module = ir.LIRModule(name="m")
        module.functions = [make_forwarder("f", "x"),
                            make_forwarder("g", "y"),
                            make_adder("x", 5), make_adder("y", 6)]
        assert mergefunctions.run_on_module(module)["functions_merged"] == 0
        # Positive control: same callee, same body => merged.
        module2 = ir.LIRModule(name="m2")
        module2.functions = [make_forwarder("f", "x"),
                             make_forwarder("g", "x"),
                             make_adder("x", 5)]
        assert mergefunctions.run_on_module(module2)[
            "functions_merged"] == 1


def make_bigfn(symbol: str, constant: int) -> ir.LIRFunction:
    """A body big enough that thunking a clone family pays for itself."""
    fn = ir.LIRFunction(symbol=symbol, has_return_value=True)
    p = fn.new_value()
    fn.params = [p]
    fn.param_is_float = [False]
    entry = fn.new_block("entry")
    cur = p
    for k in (3, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        nxt = fn.new_value()
        entry.instrs.append(ir.BinOp(result=nxt, op="+", lhs=cur,
                                     rhs=ir.Const(k)))
        cur = nxt
    out = fn.new_value()
    entry.instrs.append(ir.BinOp(result=out, op="*", lhs=cur,
                                 rhs=ir.Const(constant)))
    entry.instrs.append(ir.Ret(value=out))
    return fn


class TestOptMerge:
    # Profitability depends on the target's width model (thumb2c narrows
    # small-immediate arithmetic, shifting the break-even point), so the
    # mechanics tests pin arm64 pricing; per-target behaviour is covered
    # by the property harness and the mergeorder experiment.

    def test_const_divergent_family_merges_via_thunks(self):
        module = ir.LIRModule(name="m", entry_symbol="main")
        module.functions = [make_bigfn("a", 5), make_bigfn("b", 9),
                            make_bigfn("c", 13),
                            make_caller("main", ["a", "b", "c"])]
        report = optmerge.run_on_module(module, target="arm64")
        assert report["parameterized_merged"] == 3
        assert report["thunks_created"] == 3
        assert report["merged_bodies_created"] == 1
        assert report["bytes_saved"] > 0
        symbols = {fn.symbol for fn in module.functions}
        assert {"a", "b", "c", "main", "__merged.0"} <= symbols
        # Every original is now a 2-instruction thunk forwarding its own
        # diverging constant as the extra trailing argument.
        for name, constant in (("a", 5), ("b", 9), ("c", 13)):
            thunk = module.function(name)
            assert thunk.num_instrs == 2
            call = thunk.entry.instrs[0]
            assert call.callee == "__merged.0"
            assert call.args[-1] == ir.Const(constant)

    def test_entry_function_never_groups(self):
        module = ir.LIRModule(name="m", entry_symbol="a")
        module.functions = [make_bigfn("a", 5), make_bigfn("b", 9)]
        report = optmerge.run_on_module(module, target="arm64")
        assert report["functions_merged"] == 0
        assert module.function("a").num_instrs > 2

    def test_unprofitable_family_is_rejected(self):
        module = ir.LIRModule(name="m", entry_symbol="main")
        module.functions = [make_adder("a", 5), make_adder("b", 9),
                            make_caller("main", ["a", "b"])]
        report = optmerge.run_on_module(module, target="arm64")
        assert report["rejected_unprofitable"] >= 1
        assert report["functions_merged"] == 0
        assert not any("__merged" in fn.symbol for fn in module.functions)
        # The original body survives untouched — no call, just arithmetic.
        assert not any(isinstance(i, ir.Call)
                       for i in module.function("a").instructions())

    def test_address_taken_identical_bodies_merge_by_thunk(self):
        """Exact aliasing must skip address-taken functions; the thunk
        design keeps their symbols alive, so optmerge may fold them."""
        module = ir.LIRModule(name="m", entry_symbol="taker")
        module.functions = [make_bigfn("a", 5), make_bigfn("b", 5)]
        taker = ir.LIRFunction(symbol="taker", has_return_value=True)
        entry = taker.new_block("entry")
        fa, fb = taker.new_value(), taker.new_value()
        entry.instrs.append(ir.FuncAddr(result=fa, symbol="a"))
        entry.instrs.append(ir.FuncAddr(result=fb, symbol="b"))
        entry.instrs.append(ir.Ret(value=fb))
        module.functions.append(taker)
        report = optmerge.run_on_module(module, target="arm64")
        assert report["exact_merged"] == 0
        assert report["functions_merged"] == 1
        assert report["thunks_created"] == 1
        # Both symbols survive (pointer identity intact); one is a thunk.
        assert module.function("a").num_instrs > 2
        assert module.function("b").num_instrs == 2
