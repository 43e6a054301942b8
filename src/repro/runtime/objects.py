"""Heap, refcounting, and type layouts for the simulated Swift runtime.

The heap operates directly on the interpreter's flat memory (a word-address
-> value mapping).  Freed objects have their words *deleted*, so any
use-after-free in generated code faults loudly in tests.  The leak check
(`live_objects` empty at exit) is what validates SILGen's ARC insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import RuntimeTrap
from repro.runtime import layout


@dataclass
class ClassLayout:
    type_id: int
    name: str
    num_fields: int
    ref_field_indices: List[int]


class TypeRegistry:
    """Maps runtime type ids to class layouts (for deinit recursion)."""

    def __init__(self) -> None:
        self._classes: Dict[int, ClassLayout] = {}

    def register(self, layout_info: ClassLayout) -> None:
        self._classes[layout_info.type_id] = layout_info

    def class_layout(self, type_id: int) -> ClassLayout:
        if type_id not in self._classes:
            raise RuntimeTrap(f"unknown class type id {type_id}")
        return self._classes[type_id]

    @classmethod
    def from_program(cls, program) -> "TypeRegistry":
        """Build from a sema :class:`ProgramInfo`."""
        registry = cls()
        for info in program.classes_by_qualified_name.values():
            decl = info.decl
            refs = [f.index for f in decl.fields if f.ty.is_ref()]
            registry.register(ClassLayout(type_id=decl.type_id,
                                          name=decl.qualified_name,
                                          num_fields=len(decl.fields),
                                          ref_field_indices=refs))
        return registry


@dataclass
class HeapStats:
    allocations: int = 0
    frees: int = 0
    retains: int = 0
    releases: int = 0
    peak_live: int = 0


class Heap:
    """Bump allocator + refcount machinery over the CPU memory."""

    def __init__(self, memory: Dict[int, Union[int, float]], base: int,
                 registry: Optional[TypeRegistry] = None):
        self.memory = memory
        self.next_addr = base
        self.base = base
        self.registry = registry or TypeRegistry()
        self.live_objects: Dict[int, int] = {}
        self.live_buffers: Dict[int, int] = {}
        self.stats = HeapStats()

    # -- raw allocation -----------------------------------------------------

    def _alloc_raw(self, size: int) -> int:
        size = (size + 15) & ~15
        addr = self.next_addr
        self.next_addr += size
        return addr

    def alloc_buffer(self, count: int) -> int:
        addr = self._alloc_raw(8 * max(1, count))
        self.live_buffers[addr] = 8 * max(1, count)
        for i in range(count):
            self.memory[addr + 8 * i] = 0
        return addr

    def free_buffer(self, addr: int) -> None:
        size = self.live_buffers.pop(addr, None)
        if size is None:
            raise RuntimeTrap(f"double free of buffer 0x{addr:x}")
        for off in range(0, size, 8):
            self.memory.pop(addr + off, None)

    def _alloc_object(self, size: int) -> int:
        addr = self._alloc_raw(size)
        self.live_objects[addr] = size
        self.stats.allocations += 1
        self.stats.peak_live = max(self.stats.peak_live,
                                   len(self.live_objects))
        for off in range(0, size, 8):
            self.memory[addr + off] = 0
        return addr

    def _free_object(self, addr: int) -> None:
        size = self.live_objects.pop(addr, None)
        if size is None:
            raise RuntimeTrap(f"double free of object 0x{addr:x}")
        for off in range(0, size, 8):
            self.memory.pop(addr + off, None)
        self.stats.frees += 1

    # -- typed allocation ----------------------------------------------------

    def alloc_class(self, type_id: int, size: int) -> int:
        addr = self._alloc_object(size)
        self.memory[addr + layout.HEADER_TYPEID] = layout.pack_typeid(type_id)
        self.memory[addr + layout.HEADER_RC] = 1
        return addr

    def alloc_array(self, count: int, initial: Union[int, float],
                    kind: int) -> int:
        if count < 0:
            raise RuntimeTrap(f"negative array count {count}")
        addr = self._alloc_object(layout.ARRAY_OBJECT_BYTES)
        buf = self.alloc_buffer(count)
        mem = self.memory
        mem[addr + layout.HEADER_TYPEID] = layout.pack_typeid(
            layout.TYPE_ID_ARRAY, kind)
        mem[addr + layout.HEADER_RC] = 1
        mem[addr + layout.ARRAY_COUNT] = count
        mem[addr + layout.ARRAY_CAPACITY] = max(1, count)
        mem[addr + layout.ARRAY_BUF] = buf
        for i in range(count):
            mem[buf + 8 * i] = initial
        if kind == layout.ELEM_REF and initial:
            # The array holds `count` new references to the initial object.
            for _ in range(count):
                self.retain(int(initial))
        return addr

    def alloc_string(self, text: str) -> int:
        addr = self._alloc_object(layout.STRING_OBJECT_BYTES)
        buf = self.alloc_buffer(len(text))
        mem = self.memory
        mem[addr + layout.HEADER_TYPEID] = layout.pack_typeid(
            layout.TYPE_ID_STRING)
        mem[addr + layout.HEADER_RC] = 1
        mem[addr + layout.STRING_COUNT] = len(text)
        mem[addr + layout.STRING_BUF] = buf
        for i, ch in enumerate(text):
            mem[buf + 8 * i] = ord(ch)
        return addr

    def alloc_box(self, kind: int) -> int:
        addr = self._alloc_object(layout.BOX_OBJECT_BYTES)
        mem = self.memory
        mem[addr + layout.HEADER_TYPEID] = layout.pack_typeid(
            layout.TYPE_ID_BOX, kind)
        mem[addr + layout.HEADER_RC] = 1
        mem[addr + layout.BOX_CONTENT] = 0.0 if kind == layout.ELEM_FLOAT else 0
        return addr

    def alloc_closure(self, fnptr: int, ncaptures: int) -> int:
        size = layout.CLOSURE_CAPS_OFFSET + 8 * ncaptures
        addr = self._alloc_object(size)
        mem = self.memory
        mem[addr + layout.HEADER_TYPEID] = layout.pack_typeid(
            layout.TYPE_ID_CLOSURE)
        mem[addr + layout.HEADER_RC] = 1
        mem[addr + layout.CLOSURE_FN] = fnptr
        mem[addr + layout.CLOSURE_NCAPS] = ncaptures
        return addr

    # -- refcounting -------------------------------------------------------------

    def retain(self, addr: int) -> None:
        self.stats.retains += 1
        if addr == 0:
            return
        rc_addr = addr + layout.HEADER_RC
        rc = self.memory.get(rc_addr)
        if rc is None:
            raise RuntimeTrap(f"retain of non-object 0x{addr:x}")
        if rc == layout.IMMORTAL_RC:
            return
        if rc <= 0:
            raise RuntimeTrap(f"retain of dead object 0x{addr:x} (rc={rc})")
        self.memory[rc_addr] = rc + 1

    def release(self, addr: int) -> None:
        self.stats.releases += 1
        if addr == 0:
            return
        worklist = [addr]
        while worklist:
            obj = worklist.pop()
            if obj == 0:
                continue
            rc_addr = obj + layout.HEADER_RC
            rc = self.memory.get(rc_addr)
            if rc is None:
                raise RuntimeTrap(f"release of non-object 0x{obj:x}")
            if rc == layout.IMMORTAL_RC:
                continue
            if rc <= 0:
                raise RuntimeTrap(
                    f"over-release of object 0x{obj:x} (rc={rc})")
            if rc > 1:
                self.memory[rc_addr] = rc - 1
                continue
            worklist.extend(self._destroy(obj))

    def _destroy(self, obj: int) -> List[int]:
        """Free *obj*; returns child references to release."""
        mem = self.memory
        word = int(mem[obj + layout.HEADER_TYPEID])
        type_id = layout.unpack_typeid(word)
        kind = layout.unpack_kind(word)
        children: List[int] = []
        if type_id == layout.TYPE_ID_ARRAY:
            count = int(mem[obj + layout.ARRAY_COUNT])
            buf = int(mem[obj + layout.ARRAY_BUF])
            if kind == layout.ELEM_REF:
                children.extend(
                    int(mem[buf + 8 * i]) for i in range(count))
            self.free_buffer(buf)
        elif type_id == layout.TYPE_ID_STRING:
            self.free_buffer(int(mem[obj + layout.STRING_BUF]))
        elif type_id == layout.TYPE_ID_BOX:
            if kind == layout.ELEM_REF:
                children.append(int(mem[obj + layout.BOX_CONTENT]))
        elif type_id == layout.TYPE_ID_CLOSURE:
            ncaps = int(mem[obj + layout.CLOSURE_NCAPS])
            children.extend(
                int(mem[obj + layout.closure_capture_offset(i)])
                for i in range(ncaps))
        else:
            cls = self.registry.class_layout(type_id)
            children.extend(
                int(mem[obj + layout.class_field_offset(i)])
                for i in cls.ref_field_indices)
        self._free_object(obj)
        return [child for child in children if child]

    def dealloc_partial(self, addr: int) -> None:
        """Free a partially initialised object without touching children."""
        rc = self.memory.get(addr + layout.HEADER_RC)
        if rc is None:
            raise RuntimeTrap(f"dealloc_partial of non-object 0x{addr:x}")
        if rc != 1:
            raise RuntimeTrap(
                f"dealloc_partial of object 0x{addr:x} with rc={rc}")
        self._free_object(addr)

    # -- array operations ---------------------------------------------------------

    def array_append(self, arr: int, value: Union[int, float]) -> None:
        mem = self.memory
        count = int(mem[arr + layout.ARRAY_COUNT])
        cap = int(mem[arr + layout.ARRAY_CAPACITY])
        buf = int(mem[arr + layout.ARRAY_BUF])
        if count == cap:
            new_cap = max(4, cap * 2)
            new_buf = self.alloc_buffer(new_cap)
            for i in range(count):
                mem[new_buf + 8 * i] = mem[buf + 8 * i]
            self.free_buffer(buf)
            mem[arr + layout.ARRAY_BUF] = new_buf
            mem[arr + layout.ARRAY_CAPACITY] = new_cap
            buf = new_buf
        mem[buf + 8 * count] = value
        mem[arr + layout.ARRAY_COUNT] = count + 1

    def array_remove_last(self, arr: int) -> Union[int, float]:
        mem = self.memory
        count = int(mem[arr + layout.ARRAY_COUNT])
        if count == 0:
            raise RuntimeTrap("removeLast on empty array")
        buf = int(mem[arr + layout.ARRAY_BUF])
        value = mem[buf + 8 * (count - 1)]
        mem[arr + layout.ARRAY_COUNT] = count - 1
        return value

    # -- strings --------------------------------------------------------------------

    def read_string(self, addr: int) -> str:
        mem = self.memory
        count = int(mem[addr + layout.STRING_COUNT])
        buf = int(mem[addr + layout.STRING_BUF])
        return "".join(chr(int(mem[buf + 8 * i])) for i in range(count))

    def box_set_ref(self, box: int, value: int) -> None:
        """Store a +1 reference into a box, releasing the displaced one."""
        old = int(self.memory[box + layout.BOX_CONTENT])
        self.memory[box + layout.BOX_CONTENT] = value
        if old:
            self.release(old)
        elif old == 0:
            # Releasing nil is a no-op but still counted by callers; the
            # box-set path performs the release itself, so account nothing.
            pass

    # -- diagnostics ------------------------------------------------------------------

    def leaked_objects(self) -> List[int]:
        return sorted(self.live_objects)
