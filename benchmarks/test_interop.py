"""E15 — §VI-2: Swift + Objective-C llvm-link GC-metadata interop."""

import pytest
from conftest import run_once

from repro.errors import GCMetadataConflict
from repro.lir.linker import LinkOptions, link_modules
from repro.pipeline import compile_frontend
from repro.workloads.corpora import objc_module

_SWIFT_SOURCE = """
func bridgeHelper(x: Int) -> Int {
    return x * 3 + 1
}
func main() {
    print(bridgeHelper(x: 13))
}
"""


def _link(mode: str):
    swift_mods = compile_frontend({"SwiftSide": _SWIFT_SOURCE}).lir_modules
    objc = objc_module()
    return link_modules(swift_mods + [objc],
                        LinkOptions(gc_metadata_mode=mode))


def test_interop(benchmark):
    # Legacy monolithic GC words from different compilers conflict...
    with pytest.raises(GCMetadataConflict):
        _link("monolithic")
    # ... the attribute-based fix merges cleanly (upstreamed to llvm-link).
    merged = run_once(benchmark, _link, "attributes")
    names = {fn.symbol for fn in merged.functions}
    assert "SwiftSide::bridgeHelper" in names
    assert any(n.startswith("ObjCBridge::") for n in names)
    attrs = merged.metadata["objc_gc_attrs"]
    assert attrs["mode"] == "none"
    # Producer-specific attributes from both compilers coexist.
    assert "swift_abi" in attrs and "clang_abi" in attrs
    print("\n§VI-2 interop: monolithic conflicts, attribute mode links "
          f"{len(merged.functions)} functions cleanly")
