"""Pipeline driver tests: configs, reports, phase bookkeeping."""

import pytest

from repro.errors import ReproError
from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.pipeline import (
    BuildConfig,
    build_lir_modules,
    build_program,
    compile_frontend,
    run_build,
)

SOURCE = """
func helper(x: Int) -> Int { return x + 41 }
func main() { print(helper(x: 1)) }
"""


class TestFrontendToLIR:
    def test_produces_optimized_ssa_modules(self):
        modules = compile_frontend({"M": SOURCE}).lir_modules
        assert len(modules) == 1
        module = modules[0]
        assert module.entry_symbol == "M::main"
        from repro.lir import ir
        from repro.lir.verifier import verify_module

        verify_module(module, check_ssa=True)
        assert not any(isinstance(i, ir.Alloca)
                       for fn in module.functions
                       for i in fn.instructions())

    def test_accepts_pairs_and_dicts(self):
        from_dict = compile_frontend({"M": SOURCE}).lir_modules
        from_pairs = compile_frontend([("M", SOURCE)]).lir_modules
        assert from_dict[0].num_instrs == from_pairs[0].num_instrs


class TestBuildProgram:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ReproError):
            build_program({"M": SOURCE}, BuildConfig(pipeline="mystery"))

    def test_phase_work_recorded(self):
        result = build_program({"M": SOURCE},
                               BuildConfig(pipeline="wholeprogram"))
        for phase in ("llvm-link", "opt", "llc", "link"):
            assert result.phase_work[phase] > 0

    def test_default_pipeline_produces_module_per_input(self):
        sources = {
            "A": "func fa() -> Int { return 1 }",
            "Main": "import A\nfunc main() { print(fa()) }",
        }
        result = build_program(sources, BuildConfig(pipeline="default"))
        assert len(result.machine_modules) == 2

    def test_wholeprogram_merges_to_one(self):
        sources = {
            "A": "func fa() -> Int { return 1 }",
            "Main": "import A\nfunc main() { print(fa()) }",
        }
        result = build_program(sources, BuildConfig(pipeline="wholeprogram"))
        assert len(result.machine_modules) == 1

    def test_sizes_report_consistent(self):
        from repro.target import get_target

        result = build_program({"M": SOURCE})
        sizes = result.sizes
        spec = get_target(result.image.target_name)
        encoded = sum(spec.instr_bytes(i) for i in result.image.instrs)
        assert sizes.text_bytes == (encoded
                                    + result.image.alignment_padding_bytes)
        assert sizes.binary_bytes == (sizes.text_bytes + sizes.data_bytes
                                      + sizes.metadata_bytes)

    def test_sizes_memoized_and_stable(self):
        # Regression: `sizes` used to recompute SizeReport.from_image on
        # every access; it must now be computed once and stay stable.
        result = build_program({"M": SOURCE})
        first = result.sizes
        assert result.sizes is first
        assert result.sizes == first

    def test_report_has_phase_walls(self):
        result = build_program({"M": SOURCE})
        for phase in ("parse", "sema", "silgen", "lower", "llc", "link"):
            assert phase in result.report.phase_wall
        assert result.report.num_modules == 1
        assert result.report.total_wall > 0
        assert result.report.summary_lines()

    def test_run_build_executes_entry(self):
        result = build_program({"M": SOURCE})
        execution = run_build(result)
        assert execution.output == ["42"]

    def test_registry_reflects_classes(self):
        source = """
class Thing { var v: Int\n var other: Thing
    init() { self.v = 0\n self.other = nil } }
func main() { let t = Thing()\n print(t.v) }
"""
        result = build_program({"M": source})
        # Sema numbers the class the way the build did.
        program = analyze_program([parse_module(source, "M")])
        decl = program.modules[0].classes[0]
        layout = result.registry.class_layout(decl.type_id)
        assert layout.num_fields == 2
        assert layout.ref_field_indices == [1]


class TestBuildLIRModules:
    def test_standalone_lir_input(self):
        from repro.lir import ir

        fn = ir.LIRFunction(symbol="lib::f", has_return_value=True)
        p = fn.new_value()
        fn.params = [p]
        fn.param_is_float = [False]
        blk = fn.new_block("entry")
        out = fn.new_value()
        blk.instrs.append(ir.BinOp(result=out, op="*", lhs=p, rhs=ir.Const(2)))
        blk.instrs.append(ir.Ret(value=out))
        module = ir.LIRModule(name="lib", functions=[fn])
        result = build_lir_modules([module],
                                   BuildConfig(global_dce=False,
                                               outline_rounds=0))
        assert result.image.symbols["lib::f"]
