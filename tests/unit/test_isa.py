"""ISA model unit tests: registers, instruction metadata, encoding, and
the frozen, interned instruction contract."""

import copy
import dataclasses
import math
import pickle
import sys

import pytest

from repro.backend.llc import LLCOptions, run_llc
from repro.frontend.tokens import TokenKind
from repro.isa.instructions import (
    _CALLS,
    _DEF_USE,
    _READS_FLAGS,
    _SETS_FLAGS,
    NZCV,
    Cond,
    Label,
    MachineFunction,
    MachineInstr,
    Opcode,
    Sym,
    intern_instrs,
    is_mov_rr,
    materialize_constant,
    mov_rr,
)
from repro.isa.registers import (
    ALLOCATABLE_FPRS,
    ALLOCATABLE_GPRS,
    CALLEE_SAVED_GPRS,
    ERROR_REG,
    LR,
    XZR,
    RegClass,
    VirtualRegisterAllocator,
    is_callee_saved,
    is_physical,
    is_virtual,
    reg_class,
)
from repro.sim.cpu import _DECODERS
from repro.workloads.appgen import AppSpec, generate_app


class TestRegisters:
    def test_classification(self):
        assert is_physical("x0") and is_physical("d31") and is_physical("sp")
        assert not is_physical("v3")
        assert is_virtual("v3") and is_virtual("fv12")
        assert not is_virtual("x3")

    def test_reg_class(self):
        assert reg_class("x5") is RegClass.GPR
        assert reg_class("d5") is RegClass.FPR
        assert reg_class("v1") is RegClass.GPR
        assert reg_class("fv1") is RegClass.FPR

    def test_error_register_reserved(self):
        assert ERROR_REG == "x21"
        assert ERROR_REG not in ALLOCATABLE_GPRS
        assert ERROR_REG not in CALLEE_SAVED_GPRS

    def test_scratch_not_allocatable(self):
        for scratch in ("x15", "x16", "x17", "x18"):
            assert scratch not in ALLOCATABLE_GPRS
        for scratch in ("d16", "d17"):
            assert scratch not in ALLOCATABLE_FPRS

    def test_callee_saved(self):
        assert is_callee_saved("x19") and is_callee_saved("d8")
        assert is_callee_saved("x29") and is_callee_saved("x30")
        assert not is_callee_saved("x0")

    def test_virtual_allocator(self):
        alloc = VirtualRegisterAllocator()
        assert alloc.new_gpr() == "v0"
        assert alloc.new_gpr() == "v1"
        assert alloc.new_fpr() == "fv0"
        assert alloc.new(RegClass.FPR) == "fv1"


class TestMachineInstr:
    def test_defs_uses_alu(self):
        instr = MachineInstr(Opcode.ADDXrr, ("x0", "x1", "x2"))
        assert instr.defs() == ("x0",)
        assert instr.uses() == ("x1", "x2")

    def test_xzr_filtered(self):
        instr = mov_rr("x0", "x3")
        assert "xzr" not in instr.uses()
        assert is_mov_rr(instr)

    def test_flags_def_use(self):
        subs = MachineInstr(Opcode.SUBSXrr, ("xzr", "x1", "x2"))
        assert "nzcv" in subs.defs()
        cset = MachineInstr(Opcode.CSETXi, ("x0", Cond.EQ))
        assert "nzcv" in cset.uses()

    def test_call_metadata(self):
        bl = MachineInstr(Opcode.BL, (Sym("f"),), implicit_uses=("x0",),
                          implicit_defs=("x0",))
        assert bl.is_call
        assert "x30" in bl.defs()
        assert bl.callee() == "f"
        assert not bl.is_tail_call

    def test_tail_call(self):
        b_sym = MachineInstr(Opcode.B, (Sym("f"),))
        assert b_sym.is_tail_call and b_sym.is_terminator
        b_label = MachineInstr(Opcode.B, (Label("loop"),))
        assert not b_label.is_tail_call
        assert b_label.branch_target() == "loop"

    def test_sp_predicates(self):
        push = MachineInstr(Opcode.STPXpre, ("x29", "x30", "sp", -16))
        assert push.writes_sp() and push.touches_lr()
        load = MachineInstr(Opcode.LDRXui, ("x16", "sp", 8))
        assert load.reads_sp() and not load.writes_sp()

    def test_key_identity(self):
        a = MachineInstr(Opcode.ADDXri, ("x0", "x1", 4))
        b = MachineInstr(Opcode.ADDXri, ("x0", "x1", 4))
        c = MachineInstr(Opcode.ADDXri, ("x0", "x1", 5))
        assert a.key() == b.key() != c.key()

    def test_render(self):
        instr = MachineInstr(Opcode.BL, (Sym("swift_retain"),))
        assert instr.render() == "BL @swift_retain"
        assert mov_rr("x0", "x20").render() == "ORRXrs $x0, $xzr, $x20"

    def test_cond_negate(self):
        assert Cond.EQ.negate() is Cond.NE
        assert Cond.HS.negate() is Cond.LO
        assert Cond.LT.negate() is Cond.GE

    def test_every_opcode_has_operands_and_simulator_semantics(self):
        """An opcode without a def/use row or a simulator decoder would
        fail only when a program first used it."""
        assert set(_DEF_USE) == set(Opcode)
        assert set(_DECODERS) == set(Opcode)


class TestExactIdentity:
    """``key()`` is exact, and ``==`` and ``hash`` agree with it."""

    def test_signed_zeros_differ(self):
        pos = MachineInstr(Opcode.FMOVDi, ("d0", 0.0))
        neg = MachineInstr(Opcode.FMOVDi, ("d0", -0.0))
        assert pos.key() != neg.key()
        assert pos != neg
        assert len({pos, neg}) == 2
        assert len({pos.key(): pos, neg.key(): neg}) == 2

    def test_int_float_and_bool_immediates_differ(self):
        instrs = [MachineInstr(Opcode.BRK, (imm,)) for imm in (1, 1.0, True)]
        assert len({instr.key() for instr in instrs}) == 3
        assert len(set(instrs)) == 3

    def test_equal_instructions_agree(self):
        a = MachineInstr(Opcode.FMOVDi, ("d1", 2.5))
        b = MachineInstr(Opcode.FMOVDi, ("d1", 2.5))
        assert a is not b
        assert a.key() == b.key() and a == b and hash(a) == hash(b)
        nan = float("nan")
        assert (MachineInstr(Opcode.FMOVDi, ("d1", nan)).key()
                == MachineInstr(Opcode.FMOVDi, ("d1", nan)).key())

    def test_fields_cannot_be_assigned(self):
        instr = MachineInstr(Opcode.BL, (Sym("f"),), ("x0",), ("x0",))
        for name in ("opcode", "operands", "implicit_uses", "implicit_defs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instr, name, getattr(instr, name))
        moved = dataclasses.replace(instr, operands=(Sym("g"),))
        assert instr.callee() == "f" and moved.callee() == "g"


def _reference_facts(instr):
    """``(defs, uses)`` recomputed from ``_DEF_USE`` on every call, as the
    uncached register facts were."""
    def_idxs, use_idxs = _DEF_USE[instr.opcode]
    ops = instr.operands
    defs = [ops[i] for i in def_idxs if isinstance(ops[i], str)]
    defs.extend(instr.implicit_defs)
    if instr.opcode in _SETS_FLAGS:
        defs.append(NZCV)
    if instr.opcode in _CALLS:
        defs.append(LR)
    uses = [ops[i] for i in use_idxs if isinstance(ops[i], str)]
    uses.extend(instr.implicit_uses)
    if instr.opcode in _READS_FLAGS:
        uses.append(NZCV)
    if instr.opcode is Opcode.RET:
        uses.append(LR)
    return (tuple(r for r in defs if r != XZR),
            tuple(r for r in uses if r != XZR))


class TestRegisterFacts:
    """``defs()`` and ``uses()`` are computed once per instruction object
    and stored on it, but never reach a pickle or a copy."""

    @pytest.mark.parametrize("target", ["arm64", "thumb2c"])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_facts_match_reference_on_a_generated_app(self, target, rounds):
        from repro.pipeline import compile_frontend

        lir = compile_frontend(generate_app(AppSpec(base_features=3)))
        instrs = []
        for module in lir.lir_modules:
            machine = run_llc(module, LLCOptions(outline_rounds=rounds,
                                                 target=target)).module
            instrs.extend(_module_instrs(machine))
        assert len(instrs) > 1000
        if rounds:
            assert any(i.callee() and "OUTLINED_FUNCTION_" in i.callee()
                       for i in instrs)
        for instr in instrs:
            assert (instr.defs(), instr.uses()) == _reference_facts(instr), \
                instr.render()

    def test_second_call_returns_the_same_tuples(self):
        for instr in (MachineInstr(Opcode.ADDXrr, ("x0", "x1", "x2")),
                      MachineInstr(Opcode.BL, (Sym("f"),), ("x0",), ("x0",))):
            assert instr.defs() is instr.defs()
            assert instr.uses() is instr.uses()
        cset = MachineInstr(Opcode.CSETXi, ("x0", Cond.EQ))
        uses = cset.uses()  # the first call of either computes both
        defs = cset.defs()
        assert cset.uses() is uses and cset.defs() is defs

    def test_cached_facts_reach_no_pickle_or_copy(self):
        fields = sorted(f.name for f in dataclasses.fields(MachineInstr))
        assert len(fields) == 4
        instr = MachineInstr(Opcode.BL, (Sym("f"),), ("x0", "x1"), ("x0",))
        before = pickle.dumps(instr)
        instr.defs(), instr.uses()
        assert pickle.dumps(instr) == before
        for clone in (pickle.loads(before), copy.deepcopy(instr),
                      copy.copy(instr)):
            assert sorted(vars(clone)) == fields
            assert clone == instr
            assert _reference_facts(clone) == (instr.defs(), instr.uses())


class TestIdentityHashing:
    """Enum members hash by identity, in C: hashing one, or a key tuple
    that holds them, calls no Python-level function."""

    @staticmethod
    def _python_calls(values):
        calls = []

        def profile(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for value in values:
                hash(value)
        finally:
            sys.setprofile(None)
        return calls

    def test_hashing_enums_and_keys_runs_no_python(self):
        keys = [MachineInstr(Opcode.CSETXi, ("x0", Cond.EQ)).key(),
                MachineInstr(Opcode.ADDXri, ("x0", "x1", 4)).key()]
        assert self._python_calls(
            [Opcode.ADDXri, Cond.EQ, TokenKind.IDENT] + keys) == []


def _one_object_per_key(instrs):
    """True when equal instructions are one object and distinct ones are
    distinct objects."""
    instrs = list(instrs)
    by_key = {}
    for instr in instrs:
        by_key.setdefault(instr.key(), set()).add(id(instr))
    return (all(len(ids) == 1 for ids in by_key.values())
            and len({id(instr) for instr in instrs}) == len(by_key))


def _module_instrs(module):
    return [instr for fn in module.functions for instr in fn.instructions()]


class TestInterning:
    SOURCE = """
    func f(x: Int) -> Int { return x * 3 + 1 }
    func g(x: Int) -> Int { return x * 3 + 1 }
    func h(x: Double) -> Double { return x * -0.0 + 0.0 }
    func main() {
        print(f(x: 2) + g(x: 3))
        print(h(x: 1.5))
    }
    """

    def _lir(self):
        from repro.pipeline import compile_frontend

        return compile_frontend({"T": self.SOURCE}).lir_modules[0]

    @pytest.mark.parametrize("rounds", [0, 1])
    def test_llc_result_shares_equal_instructions(self, rounds):
        module = run_llc(self._lir(), LLCOptions(outline_rounds=rounds)).module
        instrs = _module_instrs(module)
        assert len({id(i) for i in instrs}) < len(instrs)
        assert _one_object_per_key(instrs)
        copy = pickle.loads(pickle.dumps(module))
        assert _one_object_per_key(_module_instrs(copy))
        assert ([i.key() for i in _module_instrs(copy)]
                == [i.key() for i in instrs])

    def test_intern_keeps_order_and_signed_zeros(self):
        fn = MachineFunction(name="f")
        blk = fn.new_block("entry")
        blk.instrs.extend([MachineInstr(Opcode.FMOVDi, ("d0", 0.0)),
                           MachineInstr(Opcode.FMOVDi, ("d0", -0.0)),
                           MachineInstr(Opcode.FMOVDi, ("d0", 0.0)),
                           MachineInstr(Opcode.RET)])
        intern_instrs([fn])
        zero, neg, zero2, _ = blk.instrs
        assert zero is zero2 and neg is not zero
        assert math.copysign(1.0, neg.operands[1]) == -1.0


class TestContainers:
    def _function(self):
        fn = MachineFunction(name="f")
        entry = fn.new_block("entry")
        entry.append(MachineInstr(Opcode.CBZX, ("x0", Label("exit"))))
        body = fn.new_block("body")
        body.append(MachineInstr(Opcode.ADDXri, ("x0", "x0", 1)))
        exit_ = fn.new_block("exit")
        exit_.append(MachineInstr(Opcode.RET))
        return fn

    def test_block_navigation(self):
        fn = self._function()
        assert fn.block("body").instrs[0].opcode is Opcode.ADDXri
        with pytest.raises(KeyError):
            fn.block("nope")
        assert fn.blocks[0].successors() == ["exit"]
        assert fn.blocks[0].falls_through()
        assert not fn.blocks[2].falls_through()

    def test_size_accounting(self):
        fn = self._function()
        assert fn.num_instrs == 3

    def test_size_helpers_on_spec(self):
        from repro.target.arm64 import ARM64

        fn = self._function()
        assert ARM64.function_text_bytes(fn) == 12
        assert ARM64.total_text_bytes([fn, fn]) == 24
        assert (ARM64.total_metadata_bytes([fn, fn])
                == 2 * ARM64.function_metadata_bytes)


class TestMaterializeConstant:
    @pytest.mark.parametrize("value,max_instrs", [
        (0, 1), (1, 1), (0xFFFF, 1), (0x10000, 1), (-1, 1), (-2, 1),
        (0x12345678, 2), (-0x10000, 2),
    ])
    def test_instruction_counts(self, value, max_instrs):
        assert len(materialize_constant("x0", value)) <= max_instrs
