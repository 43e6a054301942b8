"""Machine-code interpreter for the AArch64-like target.

Executes a linked :class:`BinaryImage` with full semantics: registers,
NZCV flags, word-addressed memory, a refcounting heap, and native runtime
functions.  An optional :class:`TimingModel` accumulates cycles.

The interpreter is strict: reads of undefined memory, type-confused cells
(int load of a float cell), over-releases, and out-of-range jumps all raise
— this is what lets the test suite prove outlining preserves semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import SimulationError, TrapError
from repro.isa.instructions import Cond, MachineInstr, Opcode
from repro.link.binary import BinaryImage, HEAP_BASE, STACK_BASE
from repro.obs import trace as obs_trace
from repro.runtime.functions import HANDLERS
from repro.runtime.objects import Heap, TypeRegistry
from repro.sim.profile import ProfileCollector
from repro.sim.timing import TimingModel
from repro.target import get_target

EXIT_SENTINEL = 0xDEAD0000
_INT_MASK = (1 << 64) - 1
_TRAP_NAMES = {0: "unreachable", 1: "array index out of range",
               2: "assertion failed", 3: "division by zero", 4: "trap"}


def _wrap(value: int) -> int:
    value &= _INT_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


@dataclass
class ExecutionResult:
    output: List[str]
    steps: int
    outlined_steps: int
    cycles: Optional[int]
    leaked: List[int]
    heap_stats: object
    timing: Optional[TimingModel] = None

    @property
    def stdout(self) -> str:
        return "\n".join(self.output)


class CPU:
    """Interprets a linked binary image."""

    def __init__(self, image: BinaryImage,
                 registry: Optional[TypeRegistry] = None,
                 timing: Optional[TimingModel] = None,
                 max_steps: int = 100_000_000,
                 profile: Optional[ProfileCollector] = None):
        self.image = image
        self.timing = timing
        self.profile = profile
        self.max_steps = max_steps
        self.regs: Dict[str, Union[int, float]] = {}
        for i in range(31):
            self.regs[f"x{i}"] = 0
        for i in range(32):
            self.regs[f"d{i}"] = 0.0
        self.regs["sp"] = STACK_BASE
        self.flags = (False, True, True, False)  # n z c v
        self.memory: Dict[int, Union[int, float]] = dict(image.data_init)
        self.heap = Heap(self.memory, HEAP_BASE, registry)
        self.output: List[str] = []
        self.runtime_state: Dict[str, int] = {}
        self.steps = 0
        self.outlined_steps = 0
        self.pc = 0
        self._stack_limit = STACK_BASE - (1 << 22)  # 4 MiB stack
        self._outlined_index = self._compute_outlined_indices()
        self._data_lo = image.data_base
        self._data_hi = image.data_end
        # Variable-width fetch state: address -> instruction index, and the
        # per-instruction encoded widths.  ``None`` selects the uniform
        # fixed-width fast path (pc -> index by shift).
        if image.instr_addrs is not None:
            spec = get_target(image.target_name)
            self._addr_to_idx: Optional[Dict[int, int]] = {
                addr: i for i, addr in enumerate(image.instr_addrs)}
            self._widths: Optional[List[int]] = [
                spec.instr_bytes(i) for i in image.instrs]
        else:
            self._addr_to_idx = None
            self._widths = None

    def _compute_outlined_indices(self) -> List[bool]:
        flags = [False] * len(self.image.instrs)
        for ext in self.image.functions:
            if ext.is_outlined:
                lo = self.image.index_of_addr(ext.start)
                hi = self.image.index_of_addr(ext.end)
                for i in range(lo, hi):
                    flags[i] = True
        return flags

    # -- register access ----------------------------------------------------

    def _r(self, reg: str) -> int:
        if reg == "xzr":
            return 0
        return self.regs[reg]  # type: ignore[return-value]

    def _read_int(self, addr: int) -> int:
        value = self.memory.get(addr)
        if value is None:
            raise SimulationError(
                f"read of undefined memory at 0x{addr:x} (pc=0x{self.pc:x})")
        if isinstance(value, float):
            raise SimulationError(
                f"integer load of float cell at 0x{addr:x} (pc=0x{self.pc:x})")
        return value

    def _read_any(self, addr: int):
        """Raw read for pair save/restore (register class agnostic)."""
        value = self.memory.get(addr)
        if value is None:
            raise SimulationError(
                f"read of undefined memory at 0x{addr:x} (pc=0x{self.pc:x})")
        return value

    def _read_float(self, addr: int) -> float:
        value = self.memory.get(addr)
        if value is None:
            raise SimulationError(
                f"read of undefined memory at 0x{addr:x} (pc=0x{self.pc:x})")
        return float(value)

    def _write(self, addr: int, value: Union[int, float]) -> None:
        if addr < 0:
            raise SimulationError(f"write to negative address 0x{addr:x}")
        self.memory[addr] = value
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)

    def _read_mem_int(self, addr: int) -> int:
        value = self._read_int(addr)
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)
        return value

    def _read_mem_float(self, addr: int) -> float:
        value = self._read_float(addr)
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)
        return value

    # -- flags ------------------------------------------------------------------

    def _set_flags_sub(self, a: int, b: int) -> int:
        result = _wrap(a - b)
        ua = a & _INT_MASK
        ub = b & _INT_MASK
        n = result < 0
        z = result == 0
        c = ua >= ub
        v = ((a < 0) != (b < 0)) and ((a < 0) != (result < 0))
        self.flags = (n, z, c, v)
        return result

    def _set_flags_fcmp(self, a: float, b: float) -> None:
        if a != a or b != b:  # NaN
            self.flags = (False, False, True, True)
            return
        self.flags = (a < b, a == b, a >= b, False)

    def _cond(self, cond: Cond) -> bool:
        n, z, c, v = self.flags
        if cond is Cond.EQ:
            return z
        if cond is Cond.NE:
            return not z
        if cond is Cond.LT:
            return n != v
        if cond is Cond.GE:
            return n == v
        if cond is Cond.GT:
            return (not z) and n == v
        if cond is Cond.LE:
            return z or n != v
        if cond is Cond.HS:
            return c
        if cond is Cond.LO:
            return not c
        raise SimulationError(f"unknown condition {cond}")

    # -- execution ---------------------------------------------------------------

    def run(self, entry_symbol: Optional[str] = None,
            check_leaks: bool = True) -> ExecutionResult:
        symbol = entry_symbol or self.image.entry_symbol
        if symbol is None or symbol not in self.image.symbols:
            raise SimulationError(f"no entry symbol {symbol!r}")
        self.pc = self.image.symbols[symbol]
        self.regs["x30"] = EXIT_SENTINEL
        self.regs["sp"] = STACK_BASE
        instrs = self.image.instrs
        base = self.image.text_base
        timing = self.timing
        while True:
            if self.pc == EXIT_SENTINEL:
                break
            if self._addr_to_idx is None:
                idx = (self.pc - base) >> 2
                if idx < 0 or idx >= len(instrs):
                    raise SimulationError(
                        f"pc out of text range: 0x{self.pc:x}")
            else:
                idx = self._addr_to_idx.get(self.pc, -1)
                if idx < 0:
                    raise SimulationError(
                        f"pc is not an instruction start: 0x{self.pc:x}")
            self.steps += 1
            if self.steps > self.max_steps:
                raise SimulationError(
                    f"step limit exceeded ({self.max_steps})")
            if self._outlined_index[idx]:
                self.outlined_steps += 1
            if timing is not None:
                timing.on_instr(self.pc,
                                4 if self._widths is None
                                else self._widths[idx])
            self._execute(instrs[idx], idx)
        leaked = self.heap.leaked_objects() if check_leaks else []
        self._record_metrics(leaked)
        return ExecutionResult(
            output=self.output,
            steps=self.steps,
            outlined_steps=self.outlined_steps,
            cycles=timing.cycles if timing is not None else None,
            leaked=leaked,
            heap_stats=self.heap.stats,
            timing=timing,
        )

    def _record_metrics(self, leaked: List[int]) -> None:
        """Publish execution counters to the ambient metrics registry
        (run-end only: the fetch/execute loop stays uninstrumented)."""
        metrics = obs_trace.metrics()
        if not metrics.enabled:
            return
        metrics.inc("sim.instructions_retired", self.steps)
        metrics.inc("sim.outlined_instructions", self.outlined_steps)
        metrics.inc("sim.leaked_objects", len(leaked))
        timing = self.timing
        if timing is None:
            return
        metrics.inc("sim.cycles", timing.cycles)
        icache = timing.icache
        accesses = icache.hits + icache.misses
        metrics.inc("sim.icache_hits", icache.hits)
        metrics.inc("sim.icache_misses", icache.misses)
        metrics.set_gauge("sim.icache_hit_rate",
                          icache.hits / accesses if accesses else 1.0)
        metrics.inc("sim.taken_branches", timing.taken_branches)
        metrics.inc("sim.mispredicts", timing.mispredicts)
        metrics.inc("sim.text_page_faults", timing.text_page_faults)
        metrics.inc("sim.data_page_faults", timing.data_page_faults)

    # -- native dispatch ----------------------------------------------------------

    def _native(self, addr: int) -> bool:
        name = self.image.runtime_stubs.get(addr)
        if name is None:
            return False
        handler, cost = HANDLERS[name]
        handler(self)
        if self.timing is not None:
            self.timing.on_native_call(cost)
        return True

    # -- the big switch --------------------------------------------------------------

    def _execute(self, instr: MachineInstr, idx: int) -> None:
        op = instr.opcode
        ops = instr.operands
        regs = self.regs
        pc = self.pc
        next_pc = pc + (4 if self._widths is None else self._widths[idx])

        if op is Opcode.ORRXrs:
            regs[ops[0]] = self._r(ops[1]) | self._r(ops[2])
        elif op is Opcode.MOVZXi:
            regs[ops[0]] = _wrap(ops[1] << ops[2])
        elif op is Opcode.MOVKXi:
            old = self._r(ops[0]) & _INT_MASK
            shift = ops[2]
            old = (old & ~(0xFFFF << shift)) | (ops[1] << shift)
            regs[ops[0]] = _wrap(old)
        elif op is Opcode.MOVNXi:
            regs[ops[0]] = _wrap(~(ops[1] << ops[2]))
        elif op is Opcode.ADDXri:
            regs[ops[0]] = _wrap(self._r(ops[1]) + ops[2])
        elif op is Opcode.ADDXrr:
            regs[ops[0]] = _wrap(self._r(ops[1]) + self._r(ops[2]))
        elif op is Opcode.SUBXri:
            regs[ops[0]] = _wrap(self._r(ops[1]) - ops[2])
        elif op is Opcode.SUBXrr:
            regs[ops[0]] = _wrap(self._r(ops[1]) - self._r(ops[2]))
        elif op is Opcode.SUBSXri:
            result = self._set_flags_sub(self._r(ops[1]), ops[2])
            if ops[0] != "xzr":
                regs[ops[0]] = result
        elif op is Opcode.SUBSXrr:
            result = self._set_flags_sub(self._r(ops[1]), self._r(ops[2]))
            if ops[0] != "xzr":
                regs[ops[0]] = result
        elif op is Opcode.MADDXrrr:
            regs[ops[0]] = _wrap(
                self._r(ops[1]) * self._r(ops[2]) + self._r(ops[3]))
        elif op is Opcode.MSUBXrrr:
            regs[ops[0]] = _wrap(
                self._r(ops[3]) - self._r(ops[1]) * self._r(ops[2]))
        elif op is Opcode.SDIVXrr:
            a, b = self._r(ops[1]), self._r(ops[2])
            if b == 0:
                regs[ops[0]] = 0
            else:
                q = abs(a) // abs(b)
                regs[ops[0]] = _wrap(-q if (a < 0) != (b < 0) else q)
        elif op is Opcode.ANDXrr:
            regs[ops[0]] = self._r(ops[1]) & self._r(ops[2])
        elif op is Opcode.EORXrr:
            regs[ops[0]] = _wrap(self._r(ops[1]) ^ self._r(ops[2]))
        elif op is Opcode.LSLVXrr:
            regs[ops[0]] = _wrap(self._r(ops[1]) << (self._r(ops[2]) & 63))
        elif op is Opcode.LSRVXrr:
            regs[ops[0]] = _wrap(
                (self._r(ops[1]) & _INT_MASK) >> (self._r(ops[2]) & 63))
        elif op is Opcode.ASRVXrr:
            regs[ops[0]] = self._r(ops[1]) >> (self._r(ops[2]) & 63)
        elif op is Opcode.CSETXi:
            regs[ops[0]] = 1 if self._cond(ops[1]) else 0
        elif op is Opcode.ADRP:
            regs[ops[0]] = self.image.resolved_sym[idx] & ~0xFFF
        elif op is Opcode.ADDlo:
            regs[ops[0]] = self._r(ops[1]) + (
                self.image.resolved_sym[idx] & 0xFFF)
        elif op is Opcode.LDRXui:
            regs[ops[0]] = self._read_mem_int(self._r(ops[1]) + ops[2])
        elif op is Opcode.STRXui:
            self._write(self._r(ops[1]) + ops[2], self._r(ops[0]))
        elif op is Opcode.LDRXroX:
            regs[ops[0]] = self._read_mem_int(
                self._r(ops[1]) + (self._r(ops[2]) << 3))
        elif op is Opcode.STRXroX:
            self._write(self._r(ops[1]) + (self._r(ops[2]) << 3),
                        self._r(ops[0]))
        elif op is Opcode.LDPXi:
            addr = self._r(ops[2]) + ops[3]
            regs[ops[0]] = self._read_any(addr)
            regs[ops[1]] = self._read_any(addr + 8)
        elif op is Opcode.STPXi:
            addr = self._r(ops[2]) + ops[3]
            self._write(addr, regs[ops[0]])
            self._write(addr + 8, regs[ops[1]])
        elif op is Opcode.STPXpre:
            addr = self._r(ops[2]) + ops[3]
            if addr < self._stack_limit:
                raise SimulationError("stack overflow")
            self._write(addr, regs[ops[0]])
            self._write(addr + 8, regs[ops[1]])
            regs[ops[2]] = addr
        elif op is Opcode.LDPXpost:
            addr = self._r(ops[2])
            regs[ops[0]] = self._read_any(addr)
            regs[ops[1]] = self._read_any(addr + 8)
            regs[ops[2]] = addr + ops[3]
        elif op is Opcode.STRXpre:
            addr = self._r(ops[1]) + ops[2]
            if addr < self._stack_limit:
                raise SimulationError("stack overflow")
            self._write(addr, regs[ops[0]])
            regs[ops[1]] = addr
        elif op is Opcode.LDRXpost:
            addr = self._r(ops[1])
            regs[ops[0]] = self._read_any(addr)
            regs[ops[1]] = addr + ops[2]
        elif op is Opcode.FMOVDr:
            regs[ops[0]] = float(regs[ops[1]])  # type: ignore[arg-type]
        elif op is Opcode.FMOVDi:
            regs[ops[0]] = float(ops[1])
        elif op is Opcode.FADDDrr:
            regs[ops[0]] = float(regs[ops[1]]) + float(regs[ops[2]])
        elif op is Opcode.FSUBDrr:
            regs[ops[0]] = float(regs[ops[1]]) - float(regs[ops[2]])
        elif op is Opcode.FMULDrr:
            regs[ops[0]] = float(regs[ops[1]]) * float(regs[ops[2]])
        elif op is Opcode.FDIVDrr:
            b = float(regs[ops[2]])
            if b == 0.0:
                a = float(regs[ops[1]])
                regs[ops[0]] = float("nan") if a == 0.0 else (
                    float("inf") if a > 0 else float("-inf"))
            else:
                regs[ops[0]] = float(regs[ops[1]]) / b
        elif op is Opcode.FSQRTDr:
            value = float(regs[ops[1]])
            regs[ops[0]] = value ** 0.5 if value >= 0 else float("nan")
        elif op is Opcode.FNEGDr:
            regs[ops[0]] = -float(regs[ops[1]])
        elif op is Opcode.FCMPDrr:
            self._set_flags_fcmp(float(regs[ops[0]]), float(regs[ops[1]]))
        elif op is Opcode.SCVTFDX:
            regs[ops[0]] = float(self._r(ops[1]))
        elif op is Opcode.FCVTZSXD:
            regs[ops[0]] = _wrap(int(float(regs[ops[1]])))
        elif op is Opcode.LDRDui:
            regs[ops[0]] = self._read_mem_float(self._r(ops[1]) + ops[2])
        elif op is Opcode.STRDui:
            self._write(self._r(ops[1]) + ops[2], float(regs[ops[0]]))
        elif op is Opcode.LDRDroX:
            regs[ops[0]] = self._read_mem_float(
                self._r(ops[1]) + (self._r(ops[2]) << 3))
        elif op is Opcode.STRDroX:
            self._write(self._r(ops[1]) + (self._r(ops[2]) << 3),
                        float(regs[ops[0]]))
        elif op is Opcode.B:
            target = self.image.resolved_target[idx]
            if self.profile is not None and instr.is_tail_call:
                self.profile.on_call(pc, target)
            if instr.is_tail_call and self._native(target):
                # Tail call into the runtime: return to the caller.
                next_pc = self._r("x30")
            else:
                if self.timing is not None:
                    self.timing.on_uncond_branch(pc, target)
                next_pc = target
        elif op is Opcode.Bcc:
            if self._cond(ops[0]):
                target = self.image.resolved_target[idx]
                if self.timing is not None:
                    self.timing.on_taken_branch(pc, target)
                next_pc = target
        elif op is Opcode.CBZX:
            if self._r(ops[0]) == 0:
                target = self.image.resolved_target[idx]
                if self.timing is not None:
                    self.timing.on_taken_branch(pc, target)
                next_pc = target
        elif op is Opcode.CBNZX:
            if self._r(ops[0]) != 0:
                target = self.image.resolved_target[idx]
                if self.timing is not None:
                    self.timing.on_taken_branch(pc, target)
                next_pc = target
        elif op is Opcode.BL:
            target = self.image.resolved_target[idx]
            regs["x30"] = next_pc
            if self.profile is not None:
                self.profile.on_call(pc, target)
            if not self._native(target):
                if self.timing is not None:
                    self.timing.on_uncond_branch(pc, target)
                    self.timing.on_call_return()
                next_pc = target
        elif op is Opcode.BLR:
            target = self._r(ops[0])
            regs["x30"] = next_pc
            if self.profile is not None:
                self.profile.on_call(pc, target)
            if not self._native(target):
                if self.timing is not None:
                    self.timing.on_taken_branch(pc, target)
                    self.timing.on_call_return()
                next_pc = target
        elif op is Opcode.RET:
            target = self._r("x30")
            if self.timing is not None and target != EXIT_SENTINEL:
                self.timing.on_return()
            next_pc = target
        elif op is Opcode.BRK:
            code = ops[0] if ops else 0
            raise TrapError(
                f"trap: {_TRAP_NAMES.get(code, 'trap')} (pc=0x{pc:x})",
                code=code)
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover
            raise SimulationError(f"unimplemented opcode {op}")
        self.pc = next_pc


def run_binary(image: BinaryImage, registry: Optional[TypeRegistry] = None,
               timing: Optional[TimingModel] = None,
               entry_symbol: Optional[str] = None,
               max_steps: int = 100_000_000,
               check_leaks: bool = True,
               profile: Optional[ProfileCollector] = None) -> ExecutionResult:
    """Convenience wrapper: build a CPU and run the image's entry point."""
    cpu = CPU(image, registry=registry, timing=timing, max_steps=max_steps,
              profile=profile)
    with obs_trace.span("sim-run", kind="sim",
                        entry=entry_symbol or image.entry_symbol or "",
                        timed=timing is not None) as span:
        result = cpu.run(entry_symbol=entry_symbol, check_leaks=check_leaks)
        span.annotate(steps=result.steps,
                      outlined_steps=result.outlined_steps)
    return result
