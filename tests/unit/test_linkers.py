"""IR linker (llvm-link analog) and system linker / binary image tests."""

import math
import pickle

import pytest

from repro.errors import GCMetadataConflict, LinkError
from repro.isa.instructions import (
    MachineFunction,
    MachineGlobal,
    MachineInstr,
    MachineModule,
    Opcode,
    Sym,
)
from repro.lir import ir
from repro.lir.linker import LinkOptions, link_modules
from repro.link.binary import PAGE_SIZE, TEXT_BASE
from repro.link.linker import link_binary
from repro.runtime import layout


def lir_module(name, gc_word=100, entry=None, globals_=()):
    module = ir.LIRModule(name=name, entry_symbol=entry, metadata={
        "objc_gc": ("monolithic", gc_word),
        "objc_gc_attrs": {"mode": "none", f"{name}_tag": 1},
    })
    fn = ir.LIRFunction(symbol=f"{name}::f")
    fn.new_block("entry").instrs.append(ir.Ret())
    module.functions.append(fn)
    for gname, init in globals_:
        module.globals.append(ir.LIRGlobal(symbol=f"{name}::{gname}",
                                           init=init, origin_module=name))
    return module


class TestIRLinker:
    def test_merges_functions_and_globals(self):
        merged = link_modules([lir_module("A", globals_=[("g", 1)]),
                               lir_module("B", globals_=[("h", 2)])])
        assert {f.symbol for f in merged.functions} == {"A::f", "B::f"}
        assert {g.symbol for g in merged.globals} == {"A::g", "B::h"}

    def test_duplicate_function_rejected(self):
        a = lir_module("A")
        b = lir_module("B")
        b.functions[0].symbol = "A::f"
        with pytest.raises(LinkError):
            link_modules([a, b])

    def test_entry_propagates(self):
        merged = link_modules([lir_module("A"),
                               lir_module("Main", entry="Main::f")])
        assert merged.entry_symbol == "Main::f"

    def test_two_entries_rejected(self):
        with pytest.raises(LinkError):
            link_modules([lir_module("A", entry="A::f"),
                          lir_module("B", entry="B::f")])

    def test_monolithic_gc_conflict(self):
        with pytest.raises(GCMetadataConflict):
            link_modules([lir_module("A", gc_word=100),
                          lir_module("B", gc_word=200)],
                         LinkOptions(gc_metadata_mode="monolithic"))

    def test_monolithic_same_word_ok(self):
        merged = link_modules([lir_module("A", gc_word=100),
                               lir_module("B", gc_word=100)],
                              LinkOptions(gc_metadata_mode="monolithic"))
        assert merged.metadata["objc_gc"] == ("monolithic", 100)

    def test_attribute_mode_merges_producers(self):
        merged = link_modules([lir_module("A", gc_word=1),
                               lir_module("B", gc_word=2)],
                              LinkOptions(gc_metadata_mode="attributes"))
        attrs = merged.metadata["objc_gc_attrs"]
        assert "A_tag" in attrs and "B_tag" in attrs

    def test_attribute_mode_rejects_mode_disagreement(self):
        a = lir_module("A")
        b = lir_module("B")
        b.metadata["objc_gc_attrs"]["mode"] = "strict"
        with pytest.raises(GCMetadataConflict):
            link_modules([a, b], LinkOptions(gc_metadata_mode="attributes"))

    def test_module_order_layout_preserves_grouping(self):
        mods = [lir_module("A", globals_=[("g0", 1), ("g1", 2)]),
                lir_module("B", globals_=[("g0", 3), ("g1", 4)])]
        merged = link_modules(mods, LinkOptions(data_layout="module-order"))
        origins = [g.origin_module for g in merged.globals]
        assert origins == ["A", "A", "B", "B"]

    def test_interleaved_layout_mixes_modules(self):
        mods = [lir_module("A", globals_=[(f"g{i}", i) for i in range(8)]),
                lir_module("B", globals_=[(f"h{i}", i) for i in range(8)])]
        merged = link_modules(mods, LinkOptions(data_layout="interleaved"))
        origins = [g.origin_module for g in merged.globals]
        # Not grouped: at least one A appears after a B.
        first_b = origins.index("B")
        assert "A" in origins[first_b:]


def make_machine_module():
    fn = MachineFunction(name="main")
    blk = fn.new_block("entry")
    blk.instrs.extend([
        MachineInstr(Opcode.ADRP, ("x0", Sym("m::g"))),
        MachineInstr(Opcode.ADDlo, ("x0", "x0", Sym("m::g"))),
        MachineInstr(Opcode.LDRXui, ("x0", "x0", 0)),
        MachineInstr(Opcode.BL, (Sym("helper"),)),
        MachineInstr(Opcode.RET,),
    ])
    helper = MachineFunction(name="helper")
    helper.new_block("entry").append(MachineInstr(Opcode.RET))
    return MachineModule(
        name="m", functions=[fn, helper],
        globals=[MachineGlobal(name="m::g", values=[41], origin_module="m")],
    )


class TestSystemLinker:
    def test_layout_and_symbols(self):
        # Pinned to arm64: the addresses below document the uniform
        # fixed-width layout rule (base + index * 4).
        image = link_binary([make_machine_module()], entry_symbol="main",
                            target="arm64")
        assert image.symbols["main"] == TEXT_BASE
        assert image.symbols["helper"] == TEXT_BASE + 5 * 4
        assert image.data_base % PAGE_SIZE == 0
        assert image.data_init[image.symbols["m::g"]] == 41

    def test_branch_and_sym_resolution(self):
        image = link_binary([make_machine_module()], entry_symbol="main")
        # BL at index 3 resolves to helper's entry.
        assert image.resolved_target[3] == image.symbols["helper"]
        assert image.resolved_sym[0] == image.symbols["m::g"]

    def test_runtime_stub_assignment(self):
        image = link_binary([make_machine_module()])
        assert "swift_retain" in image.symbols
        stub = image.symbols["swift_retain"]
        assert image.runtime_stubs[stub] == "swift_retain"

    def test_duplicate_symbol_rejected(self):
        a = make_machine_module()
        b = make_machine_module()
        b.globals = []
        with pytest.raises(LinkError):
            link_binary([a, b])

    def test_undefined_symbol_rejected(self):
        fn = MachineFunction(name="main")
        fn.new_block("entry").append(
            MachineInstr(Opcode.BL, (Sym("missing"),)))
        with pytest.raises(LinkError):
            link_binary([MachineModule(name="m", functions=[fn])])

    def test_string_global_materialized_as_object(self):
        module = MachineModule(name="m", globals=[
            MachineGlobal(name="m::s", values="hi", origin_module="m")])
        image = link_binary([module])
        addr = image.symbols["m::s"]
        assert image.data_init[addr + layout.HEADER_RC] == layout.IMMORTAL_RC
        assert image.data_init[addr + layout.STRING_COUNT] == 2
        buf = image.data_init[addr + layout.STRING_BUF]
        assert image.data_init[buf] == ord("h")

    def test_const_array_global_header(self):
        module = MachineModule(name="m", globals=[
            MachineGlobal(name="m::a", values=[5, 6, 7], origin_module="m",
                          is_object=True)])
        image = link_binary([module])
        addr = image.symbols["m::a"]
        word = image.data_init[addr + layout.HEADER_TYPEID]
        assert layout.unpack_typeid(word) == layout.TYPE_ID_ARRAY
        assert image.data_init[addr + layout.ARRAY_COUNT] == 3

    def test_function_extent_lookup(self):
        image = link_binary([make_machine_module()], entry_symbol="main")
        ext = image.function_at(image.symbols["helper"])
        assert ext.name == "helper"
        assert image.function_at(image.symbols["main"] + 8).name == "main"
        assert image.function_at(0x5) is None

    def test_size_accounting(self):
        image = link_binary([make_machine_module()], target="arm64")
        assert image.text_bytes == 6 * 4
        assert image.metadata_bytes == 2 * 32
        assert image.binary_bytes == (image.text_bytes + image.data_bytes
                                      + image.metadata_bytes)

    def test_data_extent_per_module(self):
        image = link_binary([make_machine_module()])
        lo, hi = image.data_extent_of_module["m"]
        assert lo == image.symbols["m::g"]
        assert hi > lo


def _one_object_per_key(instrs):
    by_key = {}
    for instr in instrs:
        by_key.setdefault(instr.key(), set()).add(id(instr))
    return (all(len(ids) == 1 for ids in by_key.values())
            and len({id(instr) for instr in instrs}) == len(by_key))


class TestSharedInstructions:
    """The image holds one frozen object per distinct instruction, made
    by a table that lives for one link."""

    @pytest.fixture(scope="class")
    def sources(self):
        from repro.workloads.appgen import AppSpec, generate_app

        return generate_app(AppSpec(base_features=2, num_vendors=1))

    def _build(self, sources):
        from repro.pipeline import BuildConfig, build_program

        # Per-module llc: the image meets modules from separate llc calls.
        return build_program(sources, BuildConfig(pipeline="default",
                                                  outline_rounds=1))

    def test_image_holds_one_object_per_key(self, sources):
        image = self._build(sources).image
        assert len({id(i) for i in image.instrs}) < len(image.instrs) / 2
        assert _one_object_per_key(image.instrs)
        copy = pickle.loads(pickle.dumps(image))
        assert _one_object_per_key(copy.instrs)
        assert copy.text_section() == image.text_section()

    def test_signed_zeros_stay_distinct(self):
        fn = MachineFunction(name="main")
        fn.new_block("entry").instrs.extend([
            MachineInstr(Opcode.FMOVDi, ("d0", 0.0)),
            MachineInstr(Opcode.FMOVDi, ("d0", -0.0)),
            MachineInstr(Opcode.FMOVDi, ("d0", 0.0)),
            MachineInstr(Opcode.FMOVDi, ("d0", -0.0)),
            MachineInstr(Opcode.RET),
        ])
        image = link_binary([MachineModule(name="m", functions=[fn])],
                            entry_symbol="main")
        zero, neg, zero2, neg2, _ = image.instrs
        assert zero is zero2 and neg is neg2 and zero is not neg
        assert [math.copysign(1.0, i.operands[1]) for i in image.instrs[:4]] \
            == [1.0, -1.0, 1.0, -1.0]

    def test_builds_share_no_instruction_object(self, sources):
        first = self._build(sources)
        second = self._build(sources)
        assert first.image.text_section() == second.image.text_section()
        ids = {id(i) for i in first.image.instrs}
        assert ids.isdisjoint(id(i) for i in second.image.instrs)
        for a, b in zip(first.machine_modules, second.machine_modules):
            mine = {id(i) for fn in a.functions for i in fn.instructions()}
            assert mine.isdisjoint(
                id(i) for fn in b.functions for i in fn.instructions())
