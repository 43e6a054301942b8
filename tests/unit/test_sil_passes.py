"""SIL pass tests: ARC optimizer and SIL outlining (Table I baselines)."""

from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.pipeline import BuildConfig, build_program, run_build
from repro.sil import sil
from repro.sil.passes import arc_opt
from repro.sil.passes import outline as sil_outline
from repro.sil.silgen import generate_sil


def gen(source, module="T"):
    info = analyze_program([parse_module(source, module)])
    return generate_sil(info)[0]


class TestArcOpt:
    def test_adjacent_pair_removed(self):
        fn = sil.SILFunction(symbol="t")
        blk = fn.new_block("entry")
        v = fn.new_temp()
        blk.instrs.append(sil.Retain(value=v))
        blk.instrs.append(sil.Release(value=v))
        blk.instrs.append(sil.Return())
        removed = arc_opt.run_on_function(fn)
        assert removed == 2
        assert len(blk.instrs) == 1

    def test_pair_with_neutral_instr_between_removed(self):
        fn = sil.SILFunction(symbol="t")
        blk = fn.new_block("entry")
        v = fn.new_temp()
        w = fn.new_temp()
        blk.instrs.append(sil.Retain(value=v))
        blk.instrs.append(sil.BinOp(result=w, op="+", lhs=v, rhs=v))
        blk.instrs.append(sil.Release(value=v))
        blk.instrs.append(sil.Return())
        assert arc_opt.run_on_function(fn) == 2

    def test_call_between_blocks_removal(self):
        fn = sil.SILFunction(symbol="t")
        blk = fn.new_block("entry")
        v = fn.new_temp()
        blk.instrs.append(sil.Retain(value=v))
        blk.instrs.append(sil.Apply(callee="g", args=(v,)))
        blk.instrs.append(sil.Release(value=v))
        blk.instrs.append(sil.Return())
        assert arc_opt.run_on_function(fn) == 0, \
            "a call can observe/alter refcounts: pair must survive"

    def test_different_values_not_paired(self):
        fn = sil.SILFunction(symbol="t")
        blk = fn.new_block("entry")
        blk.instrs.append(sil.Retain(value=1))
        blk.instrs.append(sil.Release(value=2))
        blk.instrs.append(sil.Return())
        assert arc_opt.run_on_function(fn) == 0

    def test_semantics_preserved_end_to_end(self):
        source = """
class Box { var v: Int
    init(v: Int) { self.v = v } }
func main() {
    let b = Box(v: 3)
    let c = b
    print(c.v + b.v)
}
"""
        result = run_build(build_program({"M": source}, BuildConfig()))
        assert result.output == ["6"]
        assert result.leaked == []


class TestSILOutlining:
    SOURCE = """
class Sink { var total: Int
    init() { self.total = 0 }
}
func record(s: Sink) { s.total += 1 }
func main() {
    let s = Sink()
    record(s: s)
    record(s: s)
    record(s: s)
    record(s: s)
    print(s.total)
}
"""

    def test_creates_helper_for_repeated_retain_apply(self):
        module = gen(self.SOURCE, module="M")
        report = sil_outline.run_on_module(module)
        assert report["helpers_created"] >= 1
        assert report["sites_outlined"] >= 3
        helpers = [fn for fn in module.functions
                   if "sil_outlined$" in fn.symbol]
        assert helpers and all(fn.is_bare for fn in helpers)

    def test_semantics_preserved(self):
        plain = run_build(build_program({"M": self.SOURCE}, BuildConfig(
            enable_sil_outlining=False)))
        outlined = run_build(build_program({"M": self.SOURCE}, BuildConfig(
            enable_sil_outlining=True)))
        assert plain.output == outlined.output == ["4"]
        assert outlined.leaked == []

    def test_below_threshold_not_outlined(self):
        source = """
class Sink { var total: Int
    init() { self.total = 0 } }
func record(s: Sink) { s.total += 1 }
func main() {
    let s = Sink()
    record(s: s)
    print(s.total)
}
"""
        module = gen(source, module="M")
        report = sil_outline.run_on_module(module)
        assert report["helpers_created"] == 0
