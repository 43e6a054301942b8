"""Trivial inliner tests (future-work #2 machinery)."""

from repro.lir import ir
from repro.lir.passes import inliner
from repro.pipeline import BuildConfig, build_program, run_build


def tiny_callee(symbol="inc"):
    fn = ir.LIRFunction(symbol=symbol, has_return_value=True)
    p = fn.new_value()
    fn.params = [p]
    fn.param_is_float = [False]
    blk = fn.new_block("entry")
    out = fn.new_value()
    blk.instrs.append(ir.BinOp(result=out, op="+", lhs=p, rhs=ir.Const(1)))
    blk.instrs.append(ir.Ret(value=out))
    return fn


def caller_of(symbol="inc"):
    fn = ir.LIRFunction(symbol="caller", has_return_value=True)
    p = fn.new_value()
    fn.params = [p]
    fn.param_is_float = [False]
    blk = fn.new_block("entry")
    r = fn.new_value()
    blk.instrs.append(ir.Call(result=r, callee=symbol, args=[p]))
    blk.instrs.append(ir.Ret(value=r))
    return fn


class TestMechanics:
    def test_tiny_call_inlined(self):
        module = ir.LIRModule(name="m",
                              functions=[tiny_callee(), caller_of()])
        report = inliner.run_on_module(module)
        assert report["sites_inlined"] == 1
        caller = module.function("caller")
        assert not any(isinstance(i, ir.Call)
                       for i in caller.instructions())

    def test_large_callee_skipped(self):
        big = tiny_callee("big")
        blk = big.blocks[0]
        pad = []
        for _ in range(inliner.MAX_INLINE_INSTRS + 2):
            v = big.new_value()
            pad.append(ir.BinOp(result=v, op="+", lhs=big.params[0],
                                rhs=ir.Const(1)))
        blk.instrs = pad + blk.instrs
        module = ir.LIRModule(name="m",
                              functions=[big, caller_of("big")])
        assert inliner.run_on_module(module)["sites_inlined"] == 0

    def test_multi_block_callee_skipped(self):
        callee = tiny_callee("branchy")
        callee.new_block("extra").instrs.append(ir.Ret(value=ir.Const(0)))
        module = ir.LIRModule(name="m",
                              functions=[callee, caller_of("branchy")])
        assert inliner.run_on_module(module)["sites_inlined"] == 0

    def test_recursive_callee_skipped(self):
        rec = ir.LIRFunction(symbol="rec", has_return_value=True)
        p = rec.new_value()
        rec.params = [p]
        rec.param_is_float = [False]
        blk = rec.new_block("entry")
        r = rec.new_value()
        blk.instrs.append(ir.Call(result=r, callee="rec", args=[p]))
        blk.instrs.append(ir.Ret(value=r))
        module = ir.LIRModule(name="m", functions=[rec, caller_of("rec")])
        assert inliner.run_on_module(module)["sites_inlined"] == 0

    def test_address_taken_callee_skipped(self):
        taker = ir.LIRFunction(symbol="taker", has_return_value=True)
        blk = taker.new_block("entry")
        fa = taker.new_value()
        blk.instrs.append(ir.FuncAddr(result=fa, symbol="inc"))
        blk.instrs.append(ir.Ret(value=fa))
        module = ir.LIRModule(
            name="m", functions=[tiny_callee(), caller_of(), taker])
        assert inliner.run_on_module(module)["sites_inlined"] == 0

    def test_throwing_call_site_skipped(self):
        module = ir.LIRModule(name="m",
                              functions=[tiny_callee(), caller_of()])
        call = [i for i in module.function("caller").instructions()
                if isinstance(i, ir.Call)][0]
        call.throws = True
        assert inliner.run_on_module(module)["sites_inlined"] == 0


class TestSemantics:
    SOURCE = """
class Pair {
    var a: Int
    var b: Int
    init(a: Int, b: Int) { self.a = a\n self.b = b }
    func first() -> Int { return self.a }
    func second() -> Int { return self.b }
}
func addOne(x: Int) -> Int { return x + 1 }
func main() {
    let p = Pair(a: 10, b: 32)
    var total = 0
    for i in 0..<5 {
        total += addOne(x: p.first()) + p.second() + i
    }
    print(total)
}
"""

    def test_end_to_end_equivalence(self):
        off = run_build(build_program({"M": self.SOURCE},
                                      BuildConfig(enable_inliner=False)))
        on_build = build_program({"M": self.SOURCE},
                                 BuildConfig(enable_inliner=True))
        on = run_build(on_build)
        assert off.output == on.output
        assert on.leaked == []
        assert on_build.report.pass_reports["inliner"]["sites_inlined"] >= 1

    def test_inliner_with_outlining_equivalence(self):
        configs = [
            BuildConfig(enable_inliner=True, outline_rounds=0),
            BuildConfig(enable_inliner=True, outline_rounds=5),
            BuildConfig(enable_inliner=False, outline_rounds=5),
        ]
        outputs = []
        for cfg in configs:
            outputs.append(run_build(build_program({"M": self.SOURCE},
                                                   cfg)).output)
        assert outputs[0] == outputs[1] == outputs[2]
