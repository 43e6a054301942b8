"""MachineOutliner unit tests: legality, cost model, greedy round,
repeated rounds, statistics pass."""

import copy
import dataclasses
import itertools
import math

import pytest

from repro.backend.llc import LLCOptions, run_llc
from repro.isa.instructions import (
    Label,
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
)
from repro.isa.registers import FP, LR, SP
from repro.outliner import candidates as candidates_mod
from repro.outliner import repeated as repeated_mod
from repro.outliner.candidates import (
    InstructionMapper,
    function_saves_lr,
    is_legal_to_outline,
    prune_overlaps,
)
from repro.outliner.cost_model import OutlineClass, classify, cost_of
from repro.outliner.machine_outliner import OUTLINED_PREFIX, run_one_round
from repro.outliner.repeated import repeated_outline_functions
from repro.outliner.stats import collect_patterns
# Byte-exact cost assertions below document the paper's fixed-width
# AArch64 arithmetic, so they pin the arm64 spec rather than inheriting
# the session default (which CI varies via REPRO_TARGET).
from repro.target.arm64 import ARM64
from repro.workloads.appgen import AppSpec, generate_app
from tests.unit.test_isa import _one_object_per_key


def mi(opcode, *operands, **kw):
    return MachineInstr(opcode, tuple(operands), **kw)


def framed_function(name, body_instrs):
    fn = MachineFunction(name=name)
    blk = fn.new_block("entry")
    blk.append(mi(Opcode.STPXpre, FP, LR, SP, -16))
    blk.instrs.extend(body_instrs)
    blk.append(mi(Opcode.LDPXpost, FP, LR, SP, 16))
    blk.append(mi(Opcode.RET))
    return fn


def seq(*ks):
    return [mi(Opcode.ADDXri, f"x{k}", f"x{k}", k + 1) for k in ks]


class TestLegality:
    def test_plain_alu_legal(self):
        assert is_legal_to_outline(mi(Opcode.ADDXri, "x1", "x1", 4))

    def test_ret_is_legal_terminator(self):
        assert is_legal_to_outline(mi(Opcode.RET))

    def test_branches_illegal(self):
        assert not is_legal_to_outline(mi(Opcode.B, Label("x")))
        assert not is_legal_to_outline(mi(Opcode.Bcc, None, Label("x")))
        assert not is_legal_to_outline(mi(Opcode.CBZX, "x0", Label("x")))

    def test_lr_touching_illegal(self):
        assert not is_legal_to_outline(mi(Opcode.STPXpre, FP, LR, SP, -16))
        assert not is_legal_to_outline(
            mi(Opcode.ORRXrs, "x0", "xzr", "x30"))

    def test_sp_access_illegal(self):
        assert not is_legal_to_outline(mi(Opcode.LDRXui, "x16", SP, 0))
        assert not is_legal_to_outline(mi(Opcode.SUBXri, SP, SP, 32))

    def test_calls_legal(self):
        assert is_legal_to_outline(mi(Opcode.BL, Sym("f")))

    def test_function_saves_lr_detection(self):
        framed = framed_function("a", seq(1))
        assert function_saves_lr(framed)
        leaf = MachineFunction(name="leaf")
        leaf.new_block("entry").append(mi(Opcode.RET))
        assert not function_saves_lr(leaf)


class TestMapper:
    def test_identical_instrs_same_id(self):
        mapper = InstructionMapper()
        program = mapper.map_functions(
            [framed_function("a", seq(1, 2)),
             framed_function("b", seq(1, 2))])
        legal = [i for i in program.ids if i > 0]
        # Each function contributes [add1, add2, RET]: cross-function pairs
        # must intern to the same ids.
        assert len(legal) == 6
        assert legal[0] == legal[3] and legal[1] == legal[4] \
            and legal[2] == legal[5]

    def test_block_boundaries_are_unique(self):
        mapper = InstructionMapper()
        program = mapper.map_functions([framed_function("a", seq(1))])
        negatives = [i for i in program.ids if i < 0]
        assert len(negatives) == len(set(negatives))

    def test_call_implicits_distinguish(self):
        a = mi(Opcode.BL, Sym("f"), implicit_uses=("x0",))
        b = mi(Opcode.BL, Sym("f"), implicit_uses=("x0", "x1"))
        mapper = InstructionMapper()
        fa = MachineFunction(name="fa")
        fa.new_block("entry").instrs.extend([a, b])
        program = mapper.map_functions([fa])
        assert program.ids[0] != program.ids[1]


    def test_signed_zeros_map_to_different_ids(self):
        """Tuple equality says -0.0 == 0.0; the mapper must not."""
        fa = MachineFunction(name="fa")
        fa.new_block("entry").instrs.extend([
            mi(Opcode.FMOVDi, "d2", 0.0), mi(Opcode.FMOVDi, "d2", -0.0),
            mi(Opcode.FMOVDi, "d2", 0.0)])
        ids = InstructionMapper().map_functions([fa]).ids
        assert ids[0] == ids[2] != ids[1]


def _app_modules(rounds=0):
    """The machine modules of a small generated app, as llc returns them
    (interned: one object per distinct instruction)."""
    from repro.pipeline import compile_frontend

    lir = compile_frontend(generate_app(AppSpec(base_features=3)))
    return [run_llc(module, LLCOptions(outline_rounds=rounds)).module
            for module in lir.lir_modules]


def _app_functions(rounds=0):
    return [fn for module in _app_modules(rounds) for fn in module.functions]


def _reference_ids(functions):
    """The integer string mapped index by index: every index classified
    on its own, illegal ones (and block ends) drawing unique ids."""
    intern, ids, unique = {}, [], itertools.count(-2, -1)
    for fn in functions:
        for block in fn.blocks:
            for instr in block.instrs:
                if is_legal_to_outline(instr):
                    ids.append(intern.setdefault(instr.key(), len(intern) + 1))
                else:
                    ids.append(next(unique))
            ids.append(next(unique))
    return ids


class TestMapperTable:
    """The mapper classifies each instruction object once; the integer
    string is the one an index-by-index classification gives."""

    def test_interned_module_is_classified_once_per_object(self,
                                                          monkeypatch):
        functions = _app_functions()
        instrs = [i for fn in functions for i in fn.instructions()]
        distinct = len({id(i) for i in instrs})
        assert distinct < len(instrs) // 2
        calls = []

        def counting(instr):
            calls.append(instr)
            return is_legal_to_outline(instr)

        monkeypatch.setattr(candidates_mod, "is_legal_to_outline", counting)
        program = InstructionMapper().map_functions(functions)
        assert len(calls) == distinct
        monkeypatch.undo()
        assert program.ids == _reference_ids(functions)

    def test_fresh_objects_map_to_the_same_ids(self):
        functions = _app_functions()
        fresh = copy.deepcopy(functions)
        for fn in fresh:
            for block in fn.blocks:
                block.instrs = [dataclasses.replace(i) for i in block.instrs]
        instrs = [i for fn in fresh for i in fn.instructions()]
        assert len({id(i) for i in instrs}) == len(instrs)
        ids = InstructionMapper().map_functions(functions).ids
        assert InstructionMapper().map_functions(fresh).ids == ids
        assert ids == _reference_ids(fresh)

    def test_repeated_outline_classifies_each_object_once(self,
                                                          monkeypatch):
        """One mapper serves every round of a call: each object it maps,
        including the call sites and bodies earlier rounds made, is
        classified once per call, not once per round."""
        map_block = InstructionMapper.map_block
        mapped, calls = {}, []

        def recording(self, instrs):
            mapped.update((id(i), i) for i in instrs)
            return map_block(self, instrs)

        def counting(instr):
            calls.append(instr)
            return is_legal_to_outline(instr)

        rounds_run = []
        for module in _app_modules():
            mapped.clear()
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(InstructionMapper, "map_block", recording)
                patch.setattr(candidates_mod, "is_legal_to_outline", counting)
                stats = repeated_mod.repeated_outline(module, rounds=5)
            rounds_run.append(len(stats))
            assert len(calls) == len(mapped), module.name
            assert len({id(i) for i in calls}) == len(calls), module.name
        assert max(rounds_run) >= 3

    def test_llc_outlines_an_interned_module(self, monkeypatch):
        seen = []
        outline = repeated_mod.repeated_outline

        def spy(module, **kwargs):
            seen.append(_one_object_per_key(
                i for fn in module.functions for i in fn.instructions()))
            return outline(module, **kwargs)

        monkeypatch.setattr(repeated_mod, "repeated_outline", spy)
        functions = _app_functions(rounds=2)
        assert seen and all(seen)
        assert any(fn.is_outlined for fn in functions)


class TestSignedZeroProgram:
    """Regression: at one outlining round ``p*`` and ``n*`` below used to
    become one outlined body holding ``FMOVDi $d2, 0.0``, and the image's
    ``-0.0`` constants were gone."""

    SOURCE = """
    func p1(x: Double, y: Double) -> Double { return (x * 0.0 + y) * 3.25 }
    func p2(x: Double, y: Double) -> Double { return (x * 0.0 + y) * 3.25 }
    func n1(x: Double, y: Double) -> Double { return (x * -0.0 + y) * 3.25 }
    func n2(x: Double, y: Double) -> Double { return (x * -0.0 + y) * 3.25 }
    func main() {
        print(p1(x: 1.5, y: 2.0))
        print(p2(x: 2.5, y: 1.0))
        print(n1(x: 1.5, y: 2.0))
        print(n2(x: 2.5, y: 1.0))
    }
    """

    @staticmethod
    def _negative_zeros(image):
        return sum(1 for instr in image.instrs
                   if instr.opcode is Opcode.FMOVDi
                   and instr.operands[1] == 0.0
                   and math.copysign(1.0, instr.operands[1]) < 0)

    @pytest.mark.parametrize("merge_mode", ["off", "exact", "optimistic"])
    def test_outlining_keeps_negative_zero_constants(self, merge_mode):
        from repro.pipeline import BuildConfig, build_program, run_build

        # Merging folds the identical n1 and n2 (and p1 and p2) into one
        # body each, so one -0.0 constant is left before any outlining;
        # outlining must keep as many as it was given.
        negative_zeros = 2 if merge_mode == "off" else 1
        plain = build_program({"Main": self.SOURCE}, BuildConfig(
            outline_rounds=0, merge_mode=merge_mode))
        outlined = build_program({"Main": self.SOURCE}, BuildConfig(
            outline_rounds=1, merge_mode=merge_mode))
        assert self._negative_zeros(plain.image) == negative_zeros
        assert self._negative_zeros(outlined.image) == negative_zeros
        assert any(ext.is_outlined for ext in outlined.image.functions)
        assert run_build(outlined).output == run_build(plain).output


class TestCostModel:
    def test_classify_tail_call(self):
        assert classify(seq(1) + [mi(Opcode.RET)]) is OutlineClass.TAIL_CALL

    def test_classify_thunk(self):
        assert classify(seq(1) + [mi(Opcode.BL, Sym("f"))]) \
            is OutlineClass.THUNK

    def test_classify_no_lr_save(self):
        assert classify(seq(1, 2)) is OutlineClass.NO_LR_SAVE

    def test_classify_default(self):
        s = [mi(Opcode.BL, Sym("f"))] + seq(1)
        assert classify(s) is OutlineClass.DEFAULT

    def test_benefit_math_no_lr_save(self):
        cost = cost_of(seq(1, 2, 3), ARM64)
        # 3-instr sequence, 4 occurrences: before 4*12=48,
        # after 4*4 (calls) + 16 (fn = seq+RET) = 32 -> benefit 16.
        assert cost.benefit(4) == 16

    def test_two_instr_two_occurrences_unprofitable(self):
        cost = cost_of(seq(1, 2), ARM64)
        # before 2*8=16; after 2*4 + 12 = 20 -> negative.
        assert cost.benefit(2) < 1

    def test_thunk_benefit(self):
        cost = cost_of(seq(1) + [mi(Opcode.BL, Sym("f"))], ARM64)
        # 2-instr thunk, 3 occurrences: before 24, after 3*4 + 8 = 20.
        assert cost.benefit(3) == 4

    def test_prune_overlaps(self):
        assert prune_overlaps([0, 1, 2, 5, 6], 2) == [0, 2, 5]


class TestRounds:
    def test_round_outlines_repeats(self):
        fns = [framed_function("a", seq(1, 2, 3) + seq(9)),
               framed_function("b", seq(1, 2, 3) + seq(8)),
               framed_function("c", seq(1, 2, 3) + seq(7))]
        stats = run_one_round(fns, itertools.count(0), target=ARM64)
        assert stats.functions_created >= 1
        outlined = [f for f in fns if f.is_outlined]
        assert outlined
        assert all(f.name.startswith(OUTLINED_PREFIX) for f in outlined)

    def test_unprofitable_not_outlined(self):
        fns = [framed_function("a", seq(1, 2)),
               framed_function("b", seq(1, 2))]
        stats = run_one_round(fns, itertools.count(0))
        assert stats.functions_created == 0

    def test_size_never_increases(self):
        fns = [framed_function(f"f{k}", seq(1, 2, 3, 4) + seq(10 + k))
               for k in range(6)]
        before = sum(f.num_instrs for f in fns)
        repeated_outline_functions(fns, rounds=5)
        after = sum(f.num_instrs for f in fns)
        assert after <= before

    def test_rounds_monotone_decreasing_size(self):
        base = [framed_function(f"f{k}",
                                seq(1, 2, 3, 4) + seq(20 + k) + seq(2, 3, 4))
                for k in range(6)]
        sizes = []
        for rounds in (1, 2, 3, 4):
            fns = copy.deepcopy(base)
            repeated_outline_functions(fns, rounds=rounds)
            sizes.append(sum(f.num_instrs for f in fns))
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_early_stop_when_nothing_found(self):
        fns = [framed_function("a", seq(1, 2, 3) + seq(9)),
               framed_function("b", seq(1, 2, 3) + seq(8)),
               framed_function("c", seq(1, 2, 3) + seq(7))]
        stats = repeated_outline_functions(fns, rounds=10)
        assert len(stats) < 10, "must stop early once no round finds work"

    def test_name_prefix(self):
        fns = [framed_function("a", seq(1, 2, 3) + seq(9)),
               framed_function("b", seq(1, 2, 3) + seq(8)),
               framed_function("c", seq(1, 2, 3) + seq(7))]
        repeated_outline_functions(fns, rounds=1, name_prefix="Mod::")
        outlined = [f for f in fns if f.is_outlined]
        assert all(f.name.startswith("Mod::" + OUTLINED_PREFIX)
                   for f in outlined)

    def test_leaf_functions_only_tail_call_outlined(self):
        # Leaf (frameless) functions keep LR live: a BL call site would
        # clobber the return address, so only tail-call candidates apply.
        def leaf(name, ks):
            fn = MachineFunction(name=name)
            blk = fn.new_block("entry")
            blk.instrs.extend(seq(*ks))
            blk.append(mi(Opcode.RET))
            return fn

        fns = [leaf("a", (1, 2, 3, 9)), leaf("b", (1, 2, 3, 9)),
               leaf("c", (1, 2, 3, 9))]
        run_one_round(fns, itertools.count(0))
        for fn in fns:
            if fn.is_outlined:
                continue
            for instr in fn.instructions():
                assert instr.opcode is not Opcode.BL, (
                    "leaf call sites must use tail-call B, never BL")

    def test_default_class_saves_lr_in_outlined_function(self):
        body = [mi(Opcode.BL, Sym("ext"))] + seq(1, 2, 3)
        fns = [framed_function(f"f{k}", list(body) + seq(10 + k))
               for k in range(5)]
        run_one_round(fns, itertools.count(0), target=ARM64)
        outlined = [f for f in fns if f.is_outlined]
        defaults = [f for f in outlined
                    if any(i.opcode is Opcode.BL and i.callee() == "ext"
                           for i in f.instructions())]
        assert defaults, "the call-containing pattern should be outlined"
        for fn in defaults:
            instrs = list(fn.instructions())
            assert instrs[0].opcode is Opcode.STRXpre
            assert instrs[-2].opcode is Opcode.LDRXpost
            assert instrs[-1].opcode is Opcode.RET


class TestStats:
    def test_collect_patterns_counts(self):
        fns = [framed_function(f"f{k}", seq(1, 2, 3) + seq(30 + k))
               for k in range(4)]
        stats = collect_patterns(fns, target=ARM64)
        assert stats
        top = stats[0]
        assert top.num_candidates == 4
        assert top.pattern_id == 1
        assert top.functions == ("f0", "f1", "f2", "f3")

    def test_collect_is_readonly(self):
        fns = [framed_function(f"f{k}", seq(1, 2, 3) + seq(30 + k))
               for k in range(4)]
        before = sum(f.num_instrs for f in fns)
        collect_patterns(fns)
        assert sum(f.num_instrs for f in fns) == before
        assert not any(f.is_outlined for f in fns)

    def test_unprofitable_filtered(self):
        fns = [framed_function("a", seq(1, 2)),
               framed_function("b", seq(1, 2))]
        profitable = collect_patterns(fns, require_profitable=True)
        everything = collect_patterns(fns, require_profitable=False)
        assert len(everything) > len(profitable)
