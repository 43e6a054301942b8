"""Machine-code interpreter for the AArch64-like target.

Executes a linked :class:`BinaryImage` with full semantics: registers,
NZCV flags, word-addressed memory, a refcounting heap, and native runtime
functions.  An optional :class:`TimingModel` accumulates cycles.

The interpreter is strict: reads of undefined memory, type-confused cells
(int load of a float cell), over-releases, and out-of-range jumps all raise
— this is what lets the test suite prove outlining preserves semantics.

Instructions are decoded on first fetch.  :meth:`CPU.run` keeps one
handler per instruction index, built the first time the index executes
by its opcode's entry in :data:`_DECODERS`.  A handler is a closure over
everything static about its instruction (register names, immediates, the
resolved target, the condition and the width); it takes the instruction's
pc and returns the next pc.  The table is a local of ``run``, so nothing
of the decode outlives the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Union

from repro.errors import SimulationError, TrapError
from repro.isa.instructions import Cond, MachineInstr, Opcode
from repro.isa.registers import XZR
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

#: What a read of the zero register indexes.  Each handler picks, per
#: source operand, the register file or this mapping at decode, so reads
#: of ``xzr`` are 0 without a test at run time.
_ZERO_REG = MappingProxyType({XZR: 0})

#: A decoded instruction: takes its pc, returns the next pc.
Handler = Callable[[int], int]


def _wrap(value: int) -> int:
    value &= _INT_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class _MissingRegister(Exception):
    """A decoder's source register is not in the register file."""


def _src(regs: Dict[str, Union[int, float]], reg: str):
    """The mapping a read of *reg* indexes: xzr reads are folded to 0.

    A register the file lacks raises :class:`_MissingRegister` here, at
    decode, which :meth:`CPU._decode` turns into a typed error; no handler
    tests for it.
    """
    if reg == XZR:
        return _ZERO_REG
    if reg not in regs:
        raise _MissingRegister(reg)
    return regs


#: Each condition as a predicate over the ``(n, z, c, v)`` flags.
_CONDITIONS: Dict[Cond, Callable[[tuple], bool]] = {
    Cond.EQ: lambda f: f[1],
    Cond.NE: lambda f: not f[1],
    Cond.LT: lambda f: f[0] != f[3],
    Cond.GE: lambda f: f[0] == f[3],
    Cond.GT: lambda f: (not f[1]) and f[0] == f[3],
    Cond.LE: lambda f: f[1] or f[0] != f[3],
    Cond.HS: lambda f: f[2],
    Cond.LO: lambda f: not f[2],
}


def _condition(cond: Cond) -> Callable[[tuple], bool]:
    predicate = _CONDITIONS.get(cond)
    if predicate is None:
        raise SimulationError(f"unknown condition {cond}")
    return predicate


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
        # Each index's encoded width.  Variable-width fetch maps each
        # address to its instruction index; ``None`` selects the uniform
        # fixed-width rule (pc -> index by shift).
        spec = get_target(image.target_name)
        self._widths = [spec.instr_bytes(i) for i in image.instrs]
        self._addr_to_idx: Optional[Dict[int, int]] = None
        if image.instr_addrs is not None:
            self._addr_to_idx = {
                addr: i for i, addr in enumerate(image.instr_addrs)}

    def _compute_outlined_indices(self) -> List[bool]:
        flags = [False] * len(self.image.instrs)
        for ext in self.image.functions:
            if ext.is_outlined:
                lo = self.image.index_of_addr(ext.start)
                hi = self.image.index_of_addr(ext.end)
                for i in range(lo, hi):
                    flags[i] = True
        return flags

    # -- memory (*pc* is the accessing instruction's, for the message) -------

    def _read(self, addr: int, pc: int):
        """Raw read, register class agnostic (pair save/restore)."""
        value = self.memory.get(addr)
        if value is None:
            raise SimulationError(
                f"read of undefined memory at 0x{addr:x} (pc=0x{pc:x})")
        return value

    def _load_int(self, addr: int, pc: int) -> int:
        value = self._read(addr, pc)
        if isinstance(value, float):
            raise SimulationError(
                f"integer load of float cell at 0x{addr:x} (pc=0x{pc:x})")
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)
        return value

    def _load_float(self, addr: int, pc: int) -> float:
        value = float(self._read(addr, pc))
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)
        return value

    def _write(self, addr: int, value: Union[int, float]) -> None:
        if addr < 0:
            raise SimulationError(f"write to negative address 0x{addr:x}")
        self.memory[addr] = value
        if self.timing is not None and self._data_lo <= addr < self._data_hi:
            self.timing.on_data_access(addr)

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

    # -- execution ---------------------------------------------------------------

    def run(self, entry_symbol: Optional[str] = None,
            check_leaks: bool = True) -> ExecutionResult:
        image = self.image
        symbol = entry_symbol or image.entry_symbol
        if symbol is None or symbol not in image.symbols:
            raise SimulationError(f"no entry symbol {symbol!r}")
        self.regs["x30"] = EXIT_SENTINEL
        self.regs["sp"] = STACK_BASE
        timing = self.timing
        on_instr = timing.on_instr if timing is not None else None
        count = len(image.instrs)
        base = image.text_base
        addr_to_idx = self._addr_to_idx
        widths = self._widths
        outlined = self._outlined_index
        max_steps = self.max_steps
        steps = self.steps
        outlined_steps = self.outlined_steps
        # Indexed like image.instrs; an entry is decoded on first fetch.
        handlers: List[Optional[Handler]] = [None] * count
        pc = image.symbols[symbol]
        try:
            while pc != EXIT_SENTINEL:
                if addr_to_idx is None:
                    idx = (pc - base) >> 2
                    if idx < 0 or idx >= count:
                        raise SimulationError(
                            f"pc out of text range: 0x{pc:x}")
                else:
                    idx = addr_to_idx.get(pc, -1)
                    if idx < 0:
                        raise SimulationError(
                            f"pc is not an instruction start: 0x{pc:x}")
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"step limit exceeded ({max_steps})")
                if outlined[idx]:
                    outlined_steps += 1
                if on_instr is not None:
                    on_instr(pc, widths[idx])
                handler = handlers[idx]
                if handler is None:
                    handler = handlers[idx] = self._decode(idx)
                pc = handler(pc)
        finally:
            self.pc = pc
            self.steps = steps
            self.outlined_steps = outlined_steps
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

    def _decode(self, idx: int) -> Handler:
        instr = self.image.instrs[idx]
        decoder = _DECODERS.get(instr.opcode)
        if decoder is None:
            raise SimulationError(f"unimplemented opcode {instr.opcode}")
        try:
            return decoder(self, instr, idx, self._widths[idx])
        except _MissingRegister as missing:
            # Decoded at first fetch, so this is the first execution.
            raise SimulationError(
                f"read of unknown register {missing.args[0]!r} "
                f"(pc=0x{self.image.addr_of_index(idx):x})") from None

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

    def _native_call(self, name: str) -> None:
        handler, cost = HANDLERS[name]
        handler(self)
        if self.timing is not None:
            self.timing.on_native_call(cost)

    def _native(self, addr: int) -> bool:
        name = self.image.runtime_stubs.get(addr)
        if name is None:
            return False
        self._native_call(name)
        return True


# -- decoders ---------------------------------------------------------------
#
# ``_DECODERS[opcode](cpu, instr, idx, width)`` returns the handler of the
# instruction at index *idx*.  Every register operand is read through
# ``_src``, which folds ``xzr`` to 0 and rejects a register the file lacks;
# only the link register, always present, is read from the file directly.

Decoder = Callable[[CPU, MachineInstr, int, int], Handler]
_DECODERS: Dict[Opcode, Decoder] = {}


def _decodes(*opcodes: Opcode):
    def register(decoder: Decoder) -> Decoder:
        for opcode in opcodes:
            _DECODERS[opcode] = decoder
        return decoder
    return register


# Integer moves, arithmetic and logic.

@_decodes(Opcode.MOVZXi, Opcode.MOVNXi, Opcode.FMOVDi, Opcode.ADRP)
def _constant(cpu, instr, idx, width):
    op, ops = instr.opcode, instr.operands
    if op is Opcode.MOVZXi:
        value = _wrap(ops[1] << ops[2])
    elif op is Opcode.MOVNXi:
        value = _wrap(~(ops[1] << ops[2]))
    elif op is Opcode.FMOVDi:
        value = float(ops[1])
    else:
        value = cpu.image.resolved_sym[idx] & ~0xFFF
    regs, dst = cpu.regs, ops[0]

    def handler(pc):
        regs[dst] = value
        return pc + width
    return handler


@_decodes(Opcode.MOVKXi)
def _movk(cpu, instr, idx, width):
    dst, imm, shift = instr.operands
    regs = cpu.regs
    src = _src(regs, dst)
    keep = ~(0xFFFF << shift)
    bits = imm << shift

    def handler(pc):
        regs[dst] = _wrap((src[dst] & _INT_MASK & keep) | bits)
        return pc + width
    return handler


@_decodes(Opcode.ADDXri, Opcode.SUBXri)
def _add_imm(cpu, instr, idx, width):
    dst, a, imm = instr.operands
    regs = cpu.regs
    ra = _src(regs, a)
    if instr.opcode is Opcode.SUBXri:
        imm = -imm

    def handler(pc):
        regs[dst] = _wrap(ra[a] + imm)
        return pc + width
    return handler


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return _wrap(-q if (a < 0) != (b < 0) else q)


#: Three-register integer operations, as functions of the two source
#: values.
_ALU_RR: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ORRXrs: lambda a, b: a | b,
    Opcode.ADDXrr: lambda a, b: _wrap(a + b),
    Opcode.SUBXrr: lambda a, b: _wrap(a - b),
    Opcode.ANDXrr: lambda a, b: a & b,
    Opcode.EORXrr: lambda a, b: _wrap(a ^ b),
    Opcode.LSLVXrr: lambda a, b: _wrap(a << (b & 63)),
    Opcode.LSRVXrr: lambda a, b: _wrap((a & _INT_MASK) >> (b & 63)),
    Opcode.ASRVXrr: lambda a, b: a >> (b & 63),
    Opcode.SDIVXrr: _sdiv,
}


@_decodes(*_ALU_RR)
def _alu_rr(cpu, instr, idx, width):
    dst, a, b = instr.operands
    regs = cpu.regs
    ra, rb = _src(regs, a), _src(regs, b)
    fn = _ALU_RR[instr.opcode]

    def handler(pc):
        regs[dst] = fn(ra[a], rb[b])
        return pc + width
    return handler


@_decodes(Opcode.MADDXrrr, Opcode.MSUBXrrr)
def _multiply(cpu, instr, idx, width):
    dst, a, b, acc = instr.operands
    regs = cpu.regs
    ra, rb, rc = _src(regs, a), _src(regs, b), _src(regs, acc)
    if instr.opcode is Opcode.MADDXrrr:
        def handler(pc):
            regs[dst] = _wrap(ra[a] * rb[b] + rc[acc])
            return pc + width
    else:
        def handler(pc):
            regs[dst] = _wrap(rc[acc] - ra[a] * rb[b])
            return pc + width
    return handler


@_decodes(Opcode.SUBSXri, Opcode.SUBSXrr)
def _subs(cpu, instr, idx, width):
    dst, a, b = instr.operands
    regs = cpu.regs
    ra = _src(regs, a)
    out = {} if dst == XZR else regs  # a compare keeps only the flags
    set_flags_sub = cpu._set_flags_sub
    if instr.opcode is Opcode.SUBSXri:
        def handler(pc):
            out[dst] = set_flags_sub(ra[a], b)
            return pc + width
    else:
        rb = _src(regs, b)

        def handler(pc):
            out[dst] = set_flags_sub(ra[a], rb[b])
            return pc + width
    return handler


@_decodes(Opcode.CSETXi)
def _cset(cpu, instr, idx, width):
    dst, cond = instr.operands
    regs = cpu.regs
    holds = _condition(cond)

    def handler(pc):
        regs[dst] = 1 if holds(cpu.flags) else 0
        return pc + width
    return handler


@_decodes(Opcode.ADDlo)
def _add_lo(cpu, instr, idx, width):
    dst, a = instr.operands[:2]
    regs = cpu.regs
    ra = _src(regs, a)
    offset = cpu.image.resolved_sym[idx] & 0xFFF

    def handler(pc):
        regs[dst] = ra[a] + offset
        return pc + width
    return handler


# Memory.

@_decodes(Opcode.LDRXui, Opcode.LDRDui, Opcode.LDRXroX, Opcode.LDRDroX)
def _load(cpu, instr, idx, width):
    dst, base, offset = instr.operands
    regs = cpu.regs
    rb = _src(regs, base)
    load = (cpu._load_float if instr.opcode in (Opcode.LDRDui, Opcode.LDRDroX)
            else cpu._load_int)
    if instr.opcode in (Opcode.LDRXui, Opcode.LDRDui):
        def handler(pc):
            regs[dst] = load(rb[base] + offset, pc)
            return pc + width
    else:  # offset is an index register, scaled by 8
        ri = _src(regs, offset)

        def handler(pc):
            regs[dst] = load(rb[base] + (ri[offset] << 3), pc)
            return pc + width
    return handler


@_decodes(Opcode.STRXui, Opcode.STRDui)
def _store_imm(cpu, instr, idx, width):
    src, base, imm = instr.operands
    regs = cpu.regs
    rb = _src(regs, base)
    write = cpu._write
    if instr.opcode is Opcode.STRXui:
        rs = _src(regs, src)

        def handler(pc):
            write(rb[base] + imm, rs[src])
            return pc + width
    else:
        rs = _src(regs, src)

        def handler(pc):
            write(rb[base] + imm, float(rs[src]))
            return pc + width
    return handler


@_decodes(Opcode.STRXroX, Opcode.STRDroX)
def _store_indexed(cpu, instr, idx, width):
    src, base, index = instr.operands
    regs = cpu.regs
    rb, ri, rs = _src(regs, base), _src(regs, index), _src(regs, src)
    write = cpu._write
    if instr.opcode is Opcode.STRXroX:
        def handler(pc):
            write(rb[base] + (ri[index] << 3), rs[src])
            return pc + width
    else:
        def handler(pc):
            write(rb[base] + (ri[index] << 3), float(rs[src]))
            return pc + width
    return handler


@_decodes(Opcode.LDPXi, Opcode.LDPXpost)
def _load_pair(cpu, instr, idx, width):
    r1, r2, base, imm = instr.operands
    regs = cpu.regs
    rb = _src(regs, base)
    read = cpu._read
    if instr.opcode is Opcode.LDPXi:
        def handler(pc):
            addr = rb[base] + imm
            regs[r1] = read(addr, pc)
            regs[r2] = read(addr + 8, pc)
            return pc + width
    else:
        def handler(pc):
            addr = rb[base]
            regs[r1] = read(addr, pc)
            regs[r2] = read(addr + 8, pc)
            regs[base] = addr + imm
            return pc + width
    return handler


@_decodes(Opcode.STPXi, Opcode.STPXpre)
def _store_pair(cpu, instr, idx, width):
    r1, r2, base, imm = instr.operands
    regs = cpu.regs
    ra, rb, rc = _src(regs, r1), _src(regs, r2), _src(regs, base)
    write = cpu._write
    if instr.opcode is Opcode.STPXi:
        def handler(pc):
            addr = rc[base] + imm
            write(addr, ra[r1])
            write(addr + 8, rb[r2])
            return pc + width
    else:
        limit = cpu._stack_limit

        def handler(pc):
            addr = rc[base] + imm
            if addr < limit:
                raise SimulationError("stack overflow")
            write(addr, ra[r1])
            write(addr + 8, rb[r2])
            regs[base] = addr
            return pc + width
    return handler


@_decodes(Opcode.STRXpre)
def _push(cpu, instr, idx, width):
    src, base, imm = instr.operands
    regs = cpu.regs
    rs, rb = _src(regs, src), _src(regs, base)
    write = cpu._write
    limit = cpu._stack_limit

    def handler(pc):
        addr = rb[base] + imm
        if addr < limit:
            raise SimulationError("stack overflow")
        write(addr, rs[src])
        regs[base] = addr
        return pc + width
    return handler


@_decodes(Opcode.LDRXpost)
def _pop(cpu, instr, idx, width):
    dst, base, imm = instr.operands
    regs = cpu.regs
    rb = _src(regs, base)
    read = cpu._read

    def handler(pc):
        addr = rb[base]
        regs[dst] = read(addr, pc)
        regs[base] = addr + imm
        return pc + width
    return handler


# Floating point.

def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        return float("nan") if a == 0.0 else (
            float("inf") if a > 0 else float("-inf"))
    return a / b


#: Two-source double operations, as functions of the two values.
_FPU_RR: Dict[Opcode, Callable[[float, float], float]] = {
    Opcode.FADDDrr: lambda a, b: a + b,
    Opcode.FSUBDrr: lambda a, b: a - b,
    Opcode.FMULDrr: lambda a, b: a * b,
    Opcode.FDIVDrr: _fdiv,
}


@_decodes(*_FPU_RR)
def _fpu_rr(cpu, instr, idx, width):
    dst, a, b = instr.operands
    regs = cpu.regs
    ra, rb = _src(regs, a), _src(regs, b)
    fn = _FPU_RR[instr.opcode]

    def handler(pc):
        regs[dst] = fn(float(ra[a]), float(rb[b]))
        return pc + width
    return handler


#: One-source conversions and double operations.
_FPU_R: Dict[Opcode, Callable] = {
    Opcode.FMOVDr: float,
    Opcode.FSQRTDr: lambda v: v ** 0.5 if v >= 0 else float("nan"),
    Opcode.FNEGDr: lambda v: -v,
    Opcode.FCVTZSXD: lambda v: _wrap(int(v)),
}


@_decodes(*_FPU_R, Opcode.SCVTFDX)
def _fpu_r(cpu, instr, idx, width):
    dst, src = instr.operands
    regs = cpu.regs
    rs = _src(regs, src)
    if instr.opcode is Opcode.SCVTFDX:
        def handler(pc):
            regs[dst] = float(rs[src])
            return pc + width
    else:
        fn = _FPU_R[instr.opcode]

        def handler(pc):
            regs[dst] = fn(float(rs[src]))
            return pc + width
    return handler


@_decodes(Opcode.FCMPDrr)
def _fcmp(cpu, instr, idx, width):
    a, b = instr.operands
    regs = cpu.regs
    ra, rb = _src(regs, a), _src(regs, b)
    set_flags_fcmp = cpu._set_flags_fcmp

    def handler(pc):
        set_flags_fcmp(float(ra[a]), float(rb[b]))
        return pc + width
    return handler


# Control flow.  The profile hooks fire at BL, BLR and tail-call B with the
# branch's (pc, target); the timing hooks as each branch kind is taken.

@_decodes(Opcode.B)
def _jump(cpu, instr, idx, width):
    target = cpu.image.resolved_target[idx]
    timing, profile = cpu.timing, cpu.profile
    on_call = (profile.on_call if profile is not None and instr.is_tail_call
               else None)
    native = (cpu.image.runtime_stubs.get(target) if instr.is_tail_call
              else None)
    if native is not None:  # tail call into the runtime: return to caller
        regs, native_call = cpu.regs, cpu._native_call

        def handler(pc):
            if on_call is not None:
                on_call(pc, target)
            native_call(native)
            return regs["x30"]
        return handler

    on_branch = timing.on_uncond_branch if timing is not None else None

    def handler(pc):
        if on_call is not None:
            on_call(pc, target)
        if on_branch is not None:
            on_branch(pc, target)
        return target
    return handler


@_decodes(Opcode.Bcc)
def _branch_cond(cpu, instr, idx, width):
    target = cpu.image.resolved_target[idx]
    holds = _condition(instr.operands[0])
    timing = cpu.timing

    def handler(pc):
        if holds(cpu.flags):
            if timing is not None:
                timing.on_taken_branch(pc, target)
            return target
        return pc + width
    return handler


@_decodes(Opcode.CBZX, Opcode.CBNZX)
def _branch_zero(cpu, instr, idx, width):
    target = cpu.image.resolved_target[idx]
    reg = instr.operands[0]
    rr = _src(cpu.regs, reg)
    timing = cpu.timing
    # CBZ branches when the register is zero, CBNZ when it is not.
    on_zero = instr.opcode is Opcode.CBZX

    def handler(pc):
        if (rr[reg] == 0) is on_zero:
            if timing is not None:
                timing.on_taken_branch(pc, target)
            return target
        return pc + width
    return handler


@_decodes(Opcode.BL)
def _call(cpu, instr, idx, width):
    target = cpu.image.resolved_target[idx]
    regs, timing, profile = cpu.regs, cpu.timing, cpu.profile
    on_call = profile.on_call if profile is not None else None
    native = cpu.image.runtime_stubs.get(target)
    if native is not None:
        native_call = cpu._native_call

        def handler(pc):
            regs["x30"] = pc + width
            if on_call is not None:
                on_call(pc, target)
            native_call(native)
            return pc + width
        return handler

    def handler(pc):
        regs["x30"] = pc + width
        if on_call is not None:
            on_call(pc, target)
        if timing is not None:
            timing.on_uncond_branch(pc, target)
            timing.on_call_return()
        return target
    return handler


@_decodes(Opcode.BLR)
def _call_indirect(cpu, instr, idx, width):
    reg = instr.operands[0]
    regs, timing, profile = cpu.regs, cpu.timing, cpu.profile
    rr = _src(regs, reg)
    on_call = profile.on_call if profile is not None else None
    native = cpu._native

    def handler(pc):
        target = rr[reg]
        regs["x30"] = pc + width
        if on_call is not None:
            on_call(pc, target)
        if native(target):
            return pc + width
        if timing is not None:
            timing.on_taken_branch(pc, target)
            timing.on_call_return()
        return target
    return handler


@_decodes(Opcode.RET)
def _ret(cpu, instr, idx, width):
    regs, timing = cpu.regs, cpu.timing

    def handler(pc):
        target = regs["x30"]
        if timing is not None and target != EXIT_SENTINEL:
            timing.on_return()
        return target
    return handler


@_decodes(Opcode.BRK)
def _trap(cpu, instr, idx, width):
    ops = instr.operands
    code = ops[0] if ops else 0
    name = _TRAP_NAMES.get(code, "trap")

    def handler(pc):
        raise TrapError(f"trap: {name} (pc=0x{pc:x})", code=code)
    return handler


@_decodes(Opcode.NOP)
def _nop(cpu, instr, idx, width):
    def handler(pc):
        return pc + width
    return handler


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
