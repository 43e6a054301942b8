"""Outlined-code layout (future-work #3) and semantic headroom (#1) tests."""

from repro.analysis.semantic import measure_headroom
from repro.isa.instructions import MachineFunction, MachineInstr, Opcode
from repro.isa.registers import FP, LR, SP
from repro.pipeline import BuildConfig, build_program, run_build
from repro.target.arm64 import ARM64
from repro.workloads.appgen import AppSpec, generate_app


def framed(name, body):
    fn = MachineFunction(name=name)
    blk = fn.new_block("entry")
    blk.append(MachineInstr(Opcode.STPXpre, (FP, LR, SP, -16)))
    blk.instrs.extend(body)
    blk.append(MachineInstr(Opcode.LDPXpost, (FP, LR, SP, 16)))
    blk.append(MachineInstr(Opcode.RET))
    return fn


def seq(*ks):
    # Same immediate everywhere: sequences differ only in registers.
    return [MachineInstr(Opcode.ADDXri, (f"x{k}", f"x{k}", 7))
            for k in ks]


class TestNearCallersLayout:
    def _app(self):
        return generate_app(AppSpec(base_features=4, num_vendors=2))

    def test_layouts_semantics_identical(self):
        sources = self._app()
        appended = build_program(sources, BuildConfig(
            outline_rounds=3, layout="source"))
        near = build_program(sources, BuildConfig(
            outline_rounds=3, layout="near-callers"))
        assert run_build(appended).output == run_build(near).output
        # Reordering functions can change *alignment padding* on a
        # variable-width target; the encoded code bytes must not move.
        assert (appended.sizes.text_bytes
                - appended.image.alignment_padding_bytes
                == near.sizes.text_bytes
                - near.image.alignment_padding_bytes)

    def test_outlined_functions_relocate(self):
        sources = self._app()
        appended = build_program(sources, BuildConfig(
            outline_rounds=3, layout="source"))
        near = build_program(sources, BuildConfig(
            outline_rounds=3, layout="near-callers"))

        def positions(build):
            return {ext.name: ext.start for ext in build.image.functions
                    if ext.is_outlined}

        a, b = positions(appended), positions(near)
        assert set(a) == set(b) and a, "same outlined functions"
        assert a != b, "near-callers must change outlined placement"

    def test_outlined_adjacent_to_a_caller(self):
        sources = self._app()
        near = build_program(sources, BuildConfig(
            outline_rounds=1, layout="near-callers"))
        extents = near.image.functions
        # For at least half the outlined functions, the previous extent in
        # layout order calls them.
        call_targets = {}
        for module in near.machine_modules:
            for fn in module.functions:
                call_targets[fn.name] = {
                    i.callee() for i in fn.instructions() if i.callee()}
        adjacent = 0
        outlined = 0
        for i, ext in enumerate(extents):
            if not ext.is_outlined:
                continue
            outlined += 1
            window = extents[max(0, i - 3):i]
            if any(ext.name in call_targets.get(prev.name, set())
                   for prev in window):
                adjacent += 1
        assert outlined > 0
        assert adjacent >= outlined // 2


class TestSemanticHeadroom:
    def test_detects_renamed_sequences(self):
        # Same computation in different registers: invisible to exact
        # matching, visible to the abstract upper bound.
        fns = [
            framed("a", seq(1, 2, 3)),
            framed("b", seq(4, 5, 6)),
            framed("c", seq(7, 8, 9)),
            framed("d", seq(10, 11, 12)),
        ]
        # Pinned to the fixed-width spec: the profitability thresholds
        # below document the paper's AArch64 cost arithmetic.
        h = measure_headroom(fns, target=ARM64)
        assert h.exact_benefit_bytes == 0
        assert h.abstract_benefit_bytes > 0
        assert h.extra_benefit_bytes == h.abstract_benefit_bytes

    def test_abstract_at_least_exact(self):
        fns = [framed(f"f{k}", seq(1, 2, 3) + seq(20 + k))
               for k in range(4)]
        h = measure_headroom(fns, target=ARM64)
        assert h.abstract_benefit_bytes >= h.exact_benefit_bytes > 0

    def test_app_headroom_positive(self):
        sources = generate_app(AppSpec(base_features=3, num_vendors=2))
        build = build_program(sources, BuildConfig(outline_rounds=0))
        fns = [fn for m in build.machine_modules for fn in m.functions]
        h = measure_headroom(fns)
        assert h.exact_benefit_bytes > 0
        assert h.headroom_pct > 0, (
            "register-assignment diversity must leave headroom "
            "(Listings 1 vs 2)")
