"""ISA model unit tests: registers, instruction metadata, encoding."""

import pytest

from repro.isa.instructions import (
    Cond,
    Label,
    MachineFunction,
    MachineInstr,
    MachineModule,
    Opcode,
    Sym,
    is_mov_rr,
    materialize_constant,
    mov_rr,
)
from repro.isa.registers import (
    ALLOCATABLE_FPRS,
    ALLOCATABLE_GPRS,
    CALLEE_SAVED_GPRS,
    ERROR_REG,
    RegClass,
    VirtualRegisterAllocator,
    is_callee_saved,
    is_physical,
    is_virtual,
    reg_class,
)


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
        assert fn.size_bytes == 12
        module = MachineModule(name="m", functions=[fn])
        assert module.text_bytes == 12

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
