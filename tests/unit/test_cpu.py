"""Interpreter semantics tests: hand-assembled machine programs."""

import pytest

from repro.errors import SimulationError, TrapError
from repro.isa.instructions import (
    Cond,
    Label,
    MachineFunction,
    MachineInstr,
    MachineModule,
    Opcode,
    Sym,
    materialize_constant,
)
from repro.link.linker import link_binary
from repro.sim.cpu import CPU


def mi(opcode, *operands, **kw):
    return MachineInstr(opcode, tuple(operands), **kw)


def assemble(body, extra_functions=()):
    """Wrap *body* (list of instrs) as function 'main' and link it."""
    fn = MachineFunction(name="main")
    blk = fn.new_block("entry")
    blk.instrs.extend(body)
    module = MachineModule(name="m", functions=[fn, *extra_functions])
    return link_binary([module], entry_symbol="main")


def run_and_get(body, reg="x0", extra_functions=()):
    image = assemble(body, extra_functions)
    cpu = CPU(image)
    cpu.run(check_leaks=False)
    return cpu.regs[reg]


class TestALU:
    def test_movz_movk_chain(self):
        value = 0x1234_5678_9ABC_DEF0
        body = materialize_constant("x0", value) + [mi(Opcode.RET)]
        assert run_and_get(body) == value

    def test_movz_movk_sign_wrap(self):
        value = 0xF234_5678_9ABC_DEF0  # top bit set: signed view negative
        body = materialize_constant("x0", value) + [mi(Opcode.RET)]
        assert run_and_get(body) == value - (1 << 64)

    def test_movn_negative(self):
        body = materialize_constant("x0", -5) + [mi(Opcode.RET)]
        assert run_and_get(body) == -5

    def test_add_sub_wrap(self):
        body = materialize_constant("x1", (1 << 63) - 1) + [
            mi(Opcode.ADDXri, "x0", "x1", 1),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == -(1 << 63)

    def test_madd_msub(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 7, 0),
            mi(Opcode.MOVZXi, "x2", 6, 0),
            mi(Opcode.MOVZXi, "x3", 100, 0),
            mi(Opcode.MADDXrrr, "x0", "x1", "x2", "x3"),
            mi(Opcode.MSUBXrrr, "x4", "x1", "x2", "x3"),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 142
        assert cpu.regs["x4"] == 58

    def test_sdiv_truncates_toward_zero(self):
        body = materialize_constant("x1", -7) + [
            mi(Opcode.MOVZXi, "x2", 2, 0),
            mi(Opcode.SDIVXrr, "x0", "x1", "x2"),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == -3

    def test_sdiv_by_zero_yields_zero(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 9, 0),
            mi(Opcode.MOVZXi, "x2", 0, 0),
            mi(Opcode.SDIVXrr, "x0", "x1", "x2"),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == 0

    def test_shifts(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 1, 0),
            mi(Opcode.MOVZXi, "x2", 4, 0),
            mi(Opcode.LSLVXrr, "x0", "x1", "x2"),
            mi(Opcode.MOVZXi, "x3", 32, 0),
            mi(Opcode.MOVZXi, "x4", 2, 0),
            mi(Opcode.ASRVXrr, "x5", "x3", "x4"),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 16
        assert cpu.regs["x5"] == 8

    def test_asr_negative(self):
        body = materialize_constant("x1", -16) + [
            mi(Opcode.MOVZXi, "x2", 2, 0),
            mi(Opcode.ASRVXrr, "x0", "x1", "x2"),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == -4

    def test_lsr_is_unsigned(self):
        body = materialize_constant("x1", -1) + [
            mi(Opcode.MOVZXi, "x2", 60, 0),
            mi(Opcode.LSRVXrr, "x0", "x1", "x2"),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == 15


class TestFlagsAndBranches:
    @pytest.mark.parametrize("a,b,cond,expect", [
        (3, 3, Cond.EQ, 1), (3, 4, Cond.EQ, 0),
        (3, 4, Cond.NE, 1),
        (-2, 3, Cond.LT, 1), (3, 3, Cond.LT, 0),
        (3, 3, Cond.GE, 1), (5, 3, Cond.GT, 1),
        (3, 3, Cond.LE, 1),
        (-1, 5, Cond.HS, 1),   # unsigned: -1 is huge
        (2, 5, Cond.LO, 1),
    ])
    def test_cset_conditions(self, a, b, cond, expect):
        body = (materialize_constant("x1", a)
                + materialize_constant("x2", b)
                + [mi(Opcode.SUBSXrr, "xzr", "x1", "x2"),
                   mi(Opcode.CSETXi, "x0", cond),
                   mi(Opcode.RET)])
        assert run_and_get(body) == expect

    def test_conditional_branch_taken(self):
        fn = MachineFunction(name="main")
        entry = fn.new_block("entry")
        entry.instrs.extend([
            mi(Opcode.MOVZXi, "x1", 1, 0),
            mi(Opcode.SUBSXri, "xzr", "x1", 5),
            mi(Opcode.Bcc, Cond.LT, Label("less")),
        ])
        other = fn.new_block("other")
        other.instrs.extend([mi(Opcode.MOVZXi, "x0", 99, 0), mi(Opcode.RET)])
        less = fn.new_block("less")
        less.instrs.extend([mi(Opcode.MOVZXi, "x0", 7, 0), mi(Opcode.RET)])
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 7

    def test_cbz_cbnz(self):
        fn = MachineFunction(name="main")
        entry = fn.new_block("entry")
        entry.instrs.extend([
            mi(Opcode.MOVZXi, "x1", 0, 0),
            mi(Opcode.CBZX, "x1", Label("zero")),
        ])
        no = fn.new_block("no")
        no.instrs.extend([mi(Opcode.BRK, 0)])
        zero = fn.new_block("zero")
        zero.instrs.extend([mi(Opcode.MOVZXi, "x0", 1, 0), mi(Opcode.RET)])
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 1

    def test_fallthrough_between_blocks(self):
        fn = MachineFunction(name="main")
        a = fn.new_block("a")
        a.append(mi(Opcode.MOVZXi, "x0", 5, 0))
        b = fn.new_block("b")
        b.instrs.extend([mi(Opcode.ADDXri, "x0", "x0", 1), mi(Opcode.RET)])
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 6


class TestCallsAndStack:
    def test_bl_ret(self):
        callee = MachineFunction(name="callee")
        cblk = callee.new_block("entry")
        cblk.instrs.extend([mi(Opcode.MOVZXi, "x0", 42, 0), mi(Opcode.RET)])
        body = [
            mi(Opcode.STPXpre, "x29", "x30", "sp", -16),
            mi(Opcode.BL, Sym("callee")),
            mi(Opcode.ADDXri, "x0", "x0", 1),
            mi(Opcode.LDPXpost, "x29", "x30", "sp", 16),
            mi(Opcode.RET),
        ]
        assert run_and_get(body, extra_functions=[callee]) == 43

    def test_tail_call(self):
        callee = MachineFunction(name="callee")
        cblk = callee.new_block("entry")
        cblk.instrs.extend([mi(Opcode.MOVZXi, "x0", 9, 0), mi(Opcode.RET)])
        # main tail-calls callee: callee's RET returns to the harness.
        body = [mi(Opcode.B, Sym("callee"))]
        assert run_and_get(body, extra_functions=[callee]) == 9

    def test_str_ldr_pre_post_index(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 77, 0),
            mi(Opcode.STRXpre, "x1", "sp", -16),
            mi(Opcode.MOVZXi, "x1", 0, 0),
            mi(Opcode.LDRXpost, "x0", "sp", 16),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == 77

    def test_stack_overflow_detected(self):
        fn = MachineFunction(name="main")
        blk = fn.new_block("entry")
        blk.instrs.extend([
            mi(Opcode.STPXpre, "x29", "x30", "sp", -16),
            mi(Opcode.BL, Sym("main")),  # infinite recursion
        ])
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        with pytest.raises(SimulationError):
            CPU(image).run(check_leaks=False)


class TestFloat:
    def test_float_arithmetic(self):
        body = [
            mi(Opcode.FMOVDi, "d1", 2.5),
            mi(Opcode.FMOVDi, "d2", 4.0),
            mi(Opcode.FMULDrr, "d0", "d1", "d2"),
            mi(Opcode.FSUBDrr, "d3", "d0", "d2"),
            mi(Opcode.FDIVDrr, "d4", "d3", "d1"),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["d0"] == 10.0
        assert cpu.regs["d3"] == 6.0
        assert cpu.regs["d4"] == 2.4

    def test_conversions(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 7, 0),
            mi(Opcode.SCVTFDX, "d1", "x1"),
            mi(Opcode.FMOVDi, "d2", 3.9),
            mi(Opcode.FCVTZSXD, "x0", "d2"),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["d1"] == 7.0
        assert cpu.regs["x0"] == 3

    def test_fcmp_branching(self):
        body = [
            mi(Opcode.FMOVDi, "d1", 1.5),
            mi(Opcode.FMOVDi, "d2", 2.5),
            mi(Opcode.FCMPDrr, "d1", "d2"),
            mi(Opcode.CSETXi, "x0", Cond.LT),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == 1

    def test_fsqrt(self):
        body = [
            mi(Opcode.FMOVDi, "d1", 9.0),
            mi(Opcode.FSQRTDr, "d0", "d1"),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["d0"] == 3.0


class TestTrapsAndErrors:
    def test_brk_raises_trap(self):
        with pytest.raises(TrapError) as exc:
            run_and_get([mi(Opcode.BRK, 1)])
        assert exc.value.code == 1

    def test_undefined_memory_read(self):
        body = [
            mi(Opcode.MOVZXi, "x1", 0x100, 0),
            mi(Opcode.LDRXui, "x0", "x1", 0),
            mi(Opcode.RET),
        ]
        with pytest.raises(SimulationError):
            run_and_get(body)

    def test_step_limit(self):
        fn = MachineFunction(name="main")
        blk = fn.new_block("entry")
        blk.append(mi(Opcode.B, Label("entry")))
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        with pytest.raises(SimulationError):
            CPU(image, max_steps=1000).run(check_leaks=False)

    def test_missing_entry_symbol(self):
        image = assemble([mi(Opcode.RET)])
        with pytest.raises(SimulationError):
            CPU(image).run(entry_symbol="nope")


class TestRegisterReads:
    """Every register operand reads through one rule: ``xzr`` is 0, and a
    register the file lacks is a typed error naming it and the pc."""

    def _memory_after(self, body):
        image = assemble(body)
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        return cpu

    def test_store_pair_of_zero_register(self):
        from repro.link.binary import STACK_BASE

        for opcode in (Opcode.STPXi, Opcode.STPXpre):
            cpu = self._memory_after([
                mi(Opcode.MOVZXi, "x1", 5, 0),
                mi(Opcode.STRXui, "x1", "sp", -16),
                mi(Opcode.STRXui, "x1", "sp", -8),
                mi(opcode, "xzr", "xzr", "sp", -16),
                mi(Opcode.RET),
            ])
            assert cpu.memory[STACK_BASE - 16] == 0
            assert cpu.memory[STACK_BASE - 8] == 0

    def test_push_of_zero_register(self):
        body = [
            mi(Opcode.MOVZXi, "x0", 9, 0),
            mi(Opcode.STRXpre, "xzr", "sp", -16),
            mi(Opcode.LDRXpost, "x0", "sp", 16),
            mi(Opcode.RET),
        ]
        assert run_and_get(body) == 0

    def test_float_operand_of_zero_register(self):
        body = [
            mi(Opcode.FMOVDi, "d1", 2.5),
            mi(Opcode.FADDDrr, "d0", "d1", "xzr"),
            mi(Opcode.RET),
        ]
        assert run_and_get(body, reg="d0") == 2.5

    @pytest.mark.parametrize("body", [
        [mi(Opcode.FADDDrr, "d0", "d1", "q9")],
        [mi(Opcode.STPXi, "x0", "q9", "sp", -16)],
        [mi(Opcode.STRXpre, "q9", "sp", -16)],
        [mi(Opcode.ADDXri, "x0", "q9", 1)],
        [mi(Opcode.FCMPDrr, "q9", "d0")],
    ], ids=["fadd", "stp", "str-pre", "add", "fcmp"])
    def test_unknown_register_is_typed(self, body):
        image = assemble([mi(Opcode.NOP)] + body + [mi(Opcode.RET)])
        with pytest.raises(SimulationError,
                           match=rf"'q9' \(pc=0x{image.addr_of_index(1):x}\)"):
            CPU(image).run(check_leaks=False)

    def test_unknown_register_never_fetched_is_not_an_error(self):
        fn = MachineFunction(name="main")
        fn.new_block("entry").instrs.extend([
            mi(Opcode.MOVZXi, "x0", 3, 0), mi(Opcode.RET)])
        fn.new_block("dead").append(mi(Opcode.FADDDrr, "d0", "d1", "q9"))
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        cpu = CPU(image)
        cpu.run(check_leaks=False)
        assert cpu.regs["x0"] == 3


class TestRuntimeDispatch:
    def test_native_call_via_bl(self):
        body = [
            mi(Opcode.STPXpre, "x29", "x30", "sp", -16),
            mi(Opcode.MOVZXi, "x0", 123, 0),
            mi(Opcode.BL, Sym("print_int")),
            mi(Opcode.LDPXpost, "x29", "x30", "sp", 16),
            mi(Opcode.RET),
        ]
        image = assemble(body)
        cpu = CPU(image)
        result = cpu.run(check_leaks=False)
        assert result.output == ["123"]

    def test_native_tail_call(self):
        body = [
            mi(Opcode.MOVZXi, "x0", 5, 0),
            mi(Opcode.B, Sym("print_int")),
        ]
        image = assemble(body)
        cpu = CPU(image)
        result = cpu.run(check_leaks=False)
        assert result.output == ["5"]
