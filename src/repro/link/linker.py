"""System linker: machine modules -> :class:`BinaryImage`.

Lays out text function-by-function in link order, resolves local labels and
cross-module symbols, materialises data globals (with immortal object
headers for const arrays and string literals), and assigns runtime stubs.
The image holds one shared object per distinct instruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.target import get_target
from repro.target.spec import TargetSpec

from repro.errors import LinkError
from repro.link.funclayout import order_functions
from repro.isa.instructions import (
    INSTR_BYTES,
    MachineFunction,
    MachineGlobal,
    MachineInstr,
    MachineModule,
)
from repro.link.binary import (
    BinaryImage,
    FunctionExtent,
    PAGE_SIZE,
    RUNTIME_STUB_BASE,
    TEXT_BASE,
    Ref,
    reference_of,
)
from repro.obs import trace
from repro.runtime import layout
from repro.runtime.names import ALL_RUNTIME_SYMBOLS


#: A distinct instruction in the image: its shared object, and what the
#: linker resolves for it (:func:`~repro.link.binary.reference_of`).
_Shared = Tuple[MachineInstr, Ref, Optional[str]]


def link_binary(modules: Sequence[MachineModule],
                entry_symbol: Optional[str] = None,
                target: Union[str, TargetSpec, None] = None,
                layout: str = "source",
                layout_profile=None,
                layout_seed: int = 0) -> BinaryImage:
    """Link machine modules into an executable image.

    ``layout`` selects the whole-image function ordering (see
    :mod:`repro.link.funclayout`): ``"source"`` keeps link order, with
    outlined functions wherever the outliner appended them (what the
    paper shipped); ``"near-callers"`` places each outlined function
    directly after the function with the most call sites to it (the
    paper's future work #3); ``"callgraph-c3"`` clusters hot call chains
    using *layout_profile* (a :class:`~repro.sim.profile.LayoutProfile`;
    falls back to a static call-site census when ``None``); ``"random"``
    is a *layout_seed*-ed shuffle.  An unknown ``layout`` raises
    :class:`LinkError`.

    ``target`` selects the width/alignment model: on a fixed-width target
    the classic uniform layout is kept (address = base + index * 4); on a
    variable-width target each instruction advances by its encoded width
    and function starts are padded up to ``spec.function_alignment``.
    """
    spec = get_target(target)
    image = BinaryImage(entry_symbol=entry_symbol, target_name=spec.name,
                        metadata_bytes_per_function=spec.function_metadata_bytes)
    # The uniform address rule holds iff every instruction has one width
    # and alignment can never insert padding between functions.
    uniform = (spec.is_fixed_width
               and spec.function_alignment <= spec.widths.default_bytes
               and TEXT_BASE % spec.function_alignment == 0)

    input_functions: List[MachineFunction] = []
    for module in modules:
        input_functions.extend(module.functions)
    with trace.span("layout", target=spec.name, mode=layout):
        decision = order_functions(input_functions, layout=layout,
                                   profile=layout_profile, seed=layout_seed,
                                   spec=spec)
    ordered_functions = decision.order
    # Permutation guard: an ordering that drops, duplicates, or invents a
    # function must die here as a typed error, never as an image that only
    # verify_image (or worse, the simulator) can reject.
    if sorted(fn.name for fn in ordered_functions) != \
            sorted(fn.name for fn in input_functions):
        raise LinkError(
            f"layout {layout!r} is not a permutation of "
            f"the input: {len(input_functions)} functions in, "
            f"{len(ordered_functions)} out")

    # Pass 1: lay out functions and record symbol addresses.
    addr = TEXT_BASE
    label_addr: Dict[Tuple[str, str], int] = {}
    all_functions: List[MachineFunction] = []
    instr_addrs: List[int] = []
    padding = 0
    for fn in ordered_functions:
        if fn.name in image.symbols:
            raise LinkError(f"duplicate symbol {fn.name!r}")
        aligned = spec.align_up(addr)
        padding += aligned - addr
        addr = aligned
        image.symbols[fn.name] = addr
        start = addr
        for blk in fn.blocks:
            label_addr[(fn.name, blk.label)] = addr
            if uniform:
                addr += INSTR_BYTES * len(blk.instrs)
            else:
                for instr in blk.instrs:
                    instr_addrs.append(addr)
                    addr += spec.instr_bytes(instr)
        image.functions.append(
            FunctionExtent(name=fn.name, start=start, end=addr,
                           source_module=fn.source_module,
                           is_outlined=fn.is_outlined))
        all_functions.append(fn)
    if not uniform:
        image.instr_addrs = instr_addrs
        image.text_end_addr = addr
        image.alignment_padding_bytes = padding

    # Runtime stubs for unresolved runtime symbols.
    stub_addr = RUNTIME_STUB_BASE
    for name in sorted(ALL_RUNTIME_SYMBOLS):
        image.symbols.setdefault(name, stub_addr)
        image.runtime_stubs[stub_addr] = name
        stub_addr += INSTR_BYTES

    # Pass 2: data layout (in the order the IR linker fixed).
    data_base = _page_align(addr)
    image.data_base = data_base
    daddr = data_base
    module_extents: Dict[str, List[int]] = {}
    for module in modules:
        for gbl in module.globals:
            if gbl.name in image.symbols:
                raise LinkError(f"duplicate data symbol {gbl.name!r}")
            image.symbols[gbl.name] = daddr
            size = _emit_global(image, gbl, daddr)
            module_extents.setdefault(gbl.origin_module, []).extend(
                [daddr, daddr + size])
            daddr += size
    image.data_end = daddr
    for name, points in module_extents.items():
        image.data_extent_of_module[name] = (min(points), max(points))

    # Pass 3: flatten instructions and resolve references.  Equal
    # instructions become one shared object (one table per link), and
    # each distinct one is classified once; only the indices that hold a
    # reference are resolved.  llc output is already interned per module,
    # so an object seen before skips its key.
    distinct: Dict[Tuple, _Shared] = {}
    by_object: Dict[int, _Shared] = {}
    instrs = image.instrs
    for fn in all_functions:
        for blk in fn.blocks:
            for instr in blk.instrs:
                entry = by_object.get(id(instr))
                if entry is None:
                    key = instr.key()
                    entry = distinct.get(key)
                    if entry is None:
                        entry = distinct[key] = (instr, *reference_of(instr))
                    by_object[id(instr)] = entry
                shared, ref, name = entry
                if ref is not Ref.NONE:
                    _resolve(image, fn, ref, name, len(instrs), label_addr)
                instrs.append(shared)

    metrics = trace.metrics()
    if metrics.enabled:
        metrics.set_gauge("link.alignment_padding_bytes",
                          image.alignment_padding_bytes)
        metrics.set_gauge("link.input_modules", len(modules))
        metrics.set_gauge("link.functions", len(all_functions))
        metrics.set_gauge("link.outlined_functions",
                          sum(1 for fn in all_functions if fn.is_outlined))
        metrics.set_gauge("link.text_bytes", image.text_bytes)
        metrics.set_gauge("link.data_bytes", image.data_bytes)
        metrics.set_gauge("link.layout_profile_edges", decision.profile_edges)
        metrics.set_gauge("link.layout_clusters", decision.clusters)
        metrics.set_gauge("link.layout_used_profile",
                          int(decision.used_profile))
    return image


def _page_align(addr: int) -> int:
    rem = addr % PAGE_SIZE
    return addr + (PAGE_SIZE - rem) if rem else addr


def _resolve(image: BinaryImage, fn: MachineFunction, ref: Ref, name: str,
             idx: int, label_addr: Dict[Tuple[str, str], int]) -> None:
    if ref is Ref.LABEL:
        addr = label_addr.get((fn.name, name))
        if addr is None:
            raise LinkError(f"{fn.name}: unresolved local label {name!r}")
        image.resolved_target[idx] = addr
        return
    addr = image.symbols.get(name)
    if addr is None:
        raise LinkError(f"{fn.name}: undefined symbol {name!r}")
    if ref is Ref.CALL:
        image.resolved_target[idx] = addr
    else:
        image.resolved_sym[idx] = addr


def _emit_global(image: BinaryImage, gbl: MachineGlobal, addr: int) -> int:
    """Write a global's initial bytes into data_init; returns its size."""
    mem = image.data_init
    if isinstance(gbl.values, str):
        # Immortal string object followed by its character buffer.
        text = gbl.values
        buf = addr + layout.STRING_OBJECT_BYTES
        mem[addr + layout.HEADER_TYPEID] = layout.TYPE_ID_STRING
        mem[addr + layout.HEADER_RC] = layout.IMMORTAL_RC
        mem[addr + layout.STRING_COUNT] = len(text)
        mem[addr + layout.STRING_BUF] = buf
        for i, ch in enumerate(text):
            mem[buf + 8 * i] = ord(ch)
        return layout.STRING_OBJECT_BYTES + 8 * max(1, len(text))
    if gbl.is_object:
        # Immortal array object followed by its payload buffer.
        values = gbl.values
        buf = addr + layout.ARRAY_OBJECT_BYTES
        kind = layout.ELEM_FLOAT if gbl.elem_is_float else layout.ELEM_PLAIN
        mem[addr + layout.HEADER_TYPEID] = layout.pack_typeid(
            layout.TYPE_ID_ARRAY, kind)
        mem[addr + layout.HEADER_RC] = layout.IMMORTAL_RC
        mem[addr + layout.ARRAY_COUNT] = len(values)
        mem[addr + layout.ARRAY_CAPACITY] = len(values)
        mem[addr + layout.ARRAY_BUF] = buf
        for i, value in enumerate(values):
            mem[buf + 8 * i] = value
        return layout.ARRAY_OBJECT_BYTES + 8 * max(1, len(values))
    # Raw slot(s).
    values = gbl.values
    for i, value in enumerate(values):
        mem[addr + 8 * i] = value
    return 8 * max(1, len(values))
