"""llvm-link analog: merge many LIR modules into one.

Models the two practical challenges of Section VI:

* **GC-metadata conflicts (VI-2)** — in ``monolithic`` metadata mode each
  module carries a single packed word encoding its producer compiler and
  version; merging a Swift-produced module with a clang-produced module
  raises :class:`GCMetadataConflict`, exactly as stock llvm-link did.  The
  upstreamed fix is the ``attributes`` mode, which merges per-key attribute
  dicts and only rejects *semantically* conflicting keys (the GC mode).

* **Data-layout destruction (VI-3)** — ``data_layout="interleaved"``
  reorders the merged globals by symbol hash, intermixing data from
  disparate modules and destroying the programmer's module locality (the
  behaviour that caused Uber's +10% page-fault regression).
  ``data_layout="module-order"`` is the paper's fix: globals stay grouped
  in their original per-module order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import GCMetadataConflict, LinkError
from repro.lir import ir


@dataclass
class LinkOptions:
    #: "attributes" (fixed, upstreamed) or "monolithic" (conflict-prone).
    gc_metadata_mode: str = "attributes"
    #: "module-order" (fixed) or "interleaved" (llvm-link legacy behaviour).
    data_layout: str = "module-order"
    merged_name: str = "merged"


def link_modules(modules: Sequence[ir.LIRModule],
                 options: Optional[LinkOptions] = None) -> ir.LIRModule:
    """Merge *modules* into a single module (the Figure 10 llvm-link step)."""
    options = options or LinkOptions()
    if not modules:
        raise LinkError("nothing to link")
    merged = ir.LIRModule(name=options.merged_name)
    merged.metadata["objc_gc_attrs"] = {}
    seen_functions: Dict[str, str] = {}
    seen_globals: Dict[str, str] = {}
    entry: Optional[str] = None

    for module in modules:
        _merge_metadata(merged, module, options.gc_metadata_mode)
        for fn in module.functions:
            if fn.symbol in seen_functions:
                raise LinkError(
                    f"duplicate symbol {fn.symbol!r} defined in both "
                    f"{seen_functions[fn.symbol]!r} and {module.name!r}")
            seen_functions[fn.symbol] = module.name
            if not fn.source_module:
                fn.source_module = module.name
            merged.functions.append(fn)
        for gbl in module.globals:
            if gbl.symbol in seen_globals:
                raise LinkError(
                    f"duplicate global {gbl.symbol!r} defined in both "
                    f"{seen_globals[gbl.symbol]!r} and {module.name!r}")
            seen_globals[gbl.symbol] = module.name
            if not gbl.origin_module:
                gbl.origin_module = module.name
            merged.globals.append(gbl)
        if module.entry_symbol:
            if entry is not None and entry != module.entry_symbol:
                raise LinkError(
                    f"two entry points: {entry!r} and "
                    f"{module.entry_symbol!r}")
            entry = module.entry_symbol
    merged.entry_symbol = entry
    _order_globals(merged, options.data_layout)
    return merged


def _merge_metadata(merged: ir.LIRModule, module: ir.LIRModule,
                    mode: str) -> None:
    if mode == "monolithic":
        incoming = module.metadata.get("objc_gc")
        if incoming is None:
            return
        existing = merged.metadata.get("objc_gc")
        if existing is None:
            merged.metadata["objc_gc"] = incoming
        elif existing != incoming:
            raise GCMetadataConflict(
                "conflicting 'Objective-C Garbage Collection' module flags: "
                f"{existing!r} (merged so far) vs {incoming!r} "
                f"(module {module.name!r}); use attribute-based GC metadata")
        return
    if mode == "attributes":
        incoming_attrs: Dict[str, object] = dict(
            module.metadata.get("objc_gc_attrs", {}))
        target: Dict[str, object] = merged.metadata["objc_gc_attrs"]
        for key, value in incoming_attrs.items():
            if key == "mode":
                existing_mode = target.get("mode")
                if existing_mode is not None and existing_mode != value:
                    raise GCMetadataConflict(
                        f"modules disagree on GC *mode*: {existing_mode!r} vs "
                        f"{value!r} (module {module.name!r})")
                target["mode"] = value
            else:
                # Producer-specific attributes coexist side by side; the
                # link phase only inspects the keys relevant to it.
                target.setdefault(key, value)
        return
    raise LinkError(f"unknown gc metadata mode {mode!r}")


def _order_globals(merged: ir.LIRModule, layout: str) -> None:
    if layout == "module-order":
        # Already appended module by module: preserve as-is.
        return
    if layout == "interleaved":
        # Deterministic hash order intermixes globals from all modules,
        # modelling upstream llvm-link's disregard for module data affinity.
        merged.globals.sort(
            key=lambda g: hashlib.sha1(g.symbol.encode()).hexdigest())
        return
    raise LinkError(f"unknown data layout mode {layout!r}")
