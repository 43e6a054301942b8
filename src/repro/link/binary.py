"""Final binary image: a Mach-O-like executable model.

The system linker flattens machine modules into:

* ``__text`` — all instructions at 4-byte granularity, function by function
  in link order, with every branch/symbol reference resolved to an absolute
  address;
* ``__data`` — globals in the order the IR linker chose (this ordering is
  the subject of the Section VI-3 data-layout experiment);
* a symbol table and per-function metadata (whose bytes are why the whole
  binary shrinks slightly less than the code section in Figure 12).

Runtime functions get stub addresses in a reserved range; the interpreter
dispatches them natively.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from repro.isa.instructions import INSTR_BYTES, MachineInstr, Opcode, Sym
from repro.target.arm64 import ARM64

TEXT_BASE = 0x1_0000_0000
PAGE_SIZE = 4096
#: Runtime stubs live below the text base; each gets one slot.
RUNTIME_STUB_BASE = 0x0_F000_0000
STACK_BASE = 0x7_FFFF_F000
HEAP_BASE = 0x2_0000_0000


class Ref(Enum):
    """What the linker resolves for an instruction (:func:`reference_of`)."""

    NONE = "none"
    #: A local branch: ``resolved_target`` holds its label's address.
    LABEL = "label"
    #: ``BL`` or a tail-call ``B`` through a ``Sym``: ``resolved_target``
    #: holds the symbol's address.
    CALL = "call"
    #: ``ADRP``/``ADDlo`` naming a ``Sym``: ``resolved_sym`` holds its address.
    ADDR = "addr"


def reference_of(instr: MachineInstr) -> Tuple[Ref, Optional[str]]:
    """The kind of reference *instr* makes, and the label or symbol name.

    A pure function of the instruction, so the linker and the verifier
    classify each distinct (shared) instruction once, not once per index.
    """
    target = instr.branch_target()
    if target is not None:
        return Ref.LABEL, target
    if instr.opcode is Opcode.BL or instr.is_tail_call:
        sym = instr.operands[0]
        if isinstance(sym, Sym):
            return Ref.CALL, sym.name
        return Ref.NONE, None
    if instr.opcode in (Opcode.ADRP, Opcode.ADDlo):
        for op in instr.operands:
            if isinstance(op, Sym):
                return Ref.ADDR, op.name
    return Ref.NONE, None


@dataclass
class FunctionExtent:
    name: str
    start: int  # address
    end: int    # address one past the last instruction
    source_module: str = ""
    is_outlined: bool = False


@dataclass
class BinaryImage:
    """A linked, loadable executable."""

    #: One entry per instruction index; the linker makes equal
    #: instructions one shared object, so an entry is written once.
    instrs: List[MachineInstr] = field(default_factory=list)
    text_base: int = TEXT_BASE
    #: Per-instruction resolved branch/symbol target address (by index).
    resolved_target: Dict[int, int] = field(default_factory=dict)
    #: Per-instruction resolved data/function symbol address (ADRP/ADDlo).
    resolved_sym: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    runtime_stubs: Dict[int, str] = field(default_factory=dict)
    functions: List[FunctionExtent] = field(default_factory=list)
    #: Initial data memory (word address -> int or float).
    data_init: Dict[int, Union[int, float]] = field(default_factory=dict)
    data_base: int = 0
    data_end: int = 0
    entry_symbol: Optional[str] = None
    #: Data addresses grouped by origin module (for locality metrics).
    data_extent_of_module: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Name of the target this image was linked for.
    target_name: str = "arm64"
    #: Per-instruction start addresses for variable-width layouts; ``None``
    #: means the uniform fixed-width address rule (base + i * INSTR_BYTES).
    instr_addrs: Optional[List[int]] = None
    #: One past the last instruction byte (0 = derive from the fixed rule).
    text_end_addr: int = 0
    #: Function-start alignment padding the linker inserted into __text.
    alignment_padding_bytes: int = 0
    #: Per-function metadata bytes (symbol table entry + unwind info).
    metadata_bytes_per_function: int = ARM64.function_metadata_bytes

    # -- size accounting (what Figure 12 plots) ------------------------------

    @property
    def text_bytes(self) -> int:
        return self.text_end_address() - self.text_base

    @property
    def data_bytes(self) -> int:
        return self.data_end - self.data_base

    @property
    def metadata_bytes(self) -> int:
        return self.metadata_bytes_per_function * len(self.functions)

    @property
    def binary_bytes(self) -> int:
        return self.text_bytes + self.data_bytes + self.metadata_bytes

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    # -- canonical serialization (determinism harness) -----------------------

    def text_section(self) -> bytes:
        """Canonical byte serialization of ``__text``.

        One record per instruction: its rendered form plus the resolved
        branch/symbol addresses.  Two images with equal text sections decode
        and execute identically; the determinism tests compare these bytes
        across serial/parallel/cached builds.
        """
        lines = []
        for i, instr in enumerate(self.instrs):
            target = self.resolved_target.get(i, -1)
            sym = self.resolved_sym.get(i, -1)
            lines.append(f"{instr.render()}|{target}|{sym}")
        return "\n".join(lines).encode("utf-8")

    def data_section(self) -> bytes:
        """Canonical byte serialization of ``__data`` (address -> value)."""
        items = ";".join(f"{addr}:{value!r}"
                         for addr, value in sorted(self.data_init.items()))
        return f"{self.data_base}..{self.data_end}|{items}".encode("utf-8")

    # -- lookup helpers --------------------------------------------------------

    def text_end_address(self) -> int:
        """One past the last instruction byte of __text."""
        if self.text_end_addr:
            return self.text_end_addr
        return self.text_base + len(self.instrs) * INSTR_BYTES

    @property
    def uniform_stride(self) -> Optional[int]:
        """Bytes between consecutive instructions under the uniform
        fixed-width address rule; ``None`` for a variable-width layout."""
        return INSTR_BYTES if self.instr_addrs is None else None

    def addr_of_index(self, index: int) -> int:
        if self.instr_addrs is not None:
            return self.instr_addrs[index]
        return self.text_base + index * INSTR_BYTES

    def index_of_addr(self, addr: int) -> int:
        """Index of the instruction at *addr*.

        For an address between instructions (alignment padding, or one past
        a function end) this returns the index of the *next* instruction —
        so ``index_of_addr(extent.end) - 1`` is always the extent's last
        instruction, on fixed- and variable-width layouts alike.
        """
        if self.instr_addrs is not None:
            return bisect_left(self.instr_addrs, addr)
        return (addr - self.text_base) // INSTR_BYTES

    def is_instr_addr(self, addr: int) -> bool:
        """True when *addr* is the start of an instruction."""
        if self.instr_addrs is not None:
            i = bisect_left(self.instr_addrs, addr)
            return i < len(self.instr_addrs) and self.instr_addrs[i] == addr
        return (self.text_base <= addr < self.text_end_address()
                and (addr - self.text_base) % INSTR_BYTES == 0)

    def function_at(self, addr: int) -> Optional[FunctionExtent]:
        # Binary search over sorted extents.
        lo, hi = 0, len(self.functions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            ext = self.functions[mid]
            if addr < ext.start:
                hi = mid - 1
            elif addr >= ext.end:
                lo = mid + 1
            else:
                return ext
        return None
