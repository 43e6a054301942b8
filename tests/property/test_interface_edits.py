"""Edit-sequence differential for the interface-keyed frontend.

A warm build compiles only the modules whose key missed and checks them
against the cached headers of the rest, so the one thing that must never
happen is a module kept from the cache although an edit changed what it
compiles to.  hypothesis draws random edit sequences over a six-module
program whose import graph has a chain (Core -> Left -> Top -> Main) and
a diamond (Core -> Left, Right -> Top):

* body-only edits (which must miss exactly the edited module's key);
* signature edits: a parameter type, a return type, ``throws``;
* a field added to a class, a new class, a new closure, a new import.

Every call site follows its callee's current signature, so each edited
program compiles.  After every edit, on both pipeline shapes and both
targets, and once more with SIL outlining on (every importer of a module
with a class forms a helper for that class's method), the warm build must
equal an uncached serial build in text, data, outlining stats and pass
reports.
"""

import dataclasses
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import BuildConfig, build_program

#: Program order; each module may import only modules before it.
MODULES = ("Core", "Side", "Left", "Right", "Top", "Main")
IMPORTS = {"Core": [], "Side": [], "Left": ["Core"], "Right": ["Core"],
           "Top": ["Left", "Right"], "Main": ["Top", "Core"]}
EDIT_KINDS = ("body", "param", "ret", "throws", "field", "class",
              "closure", "import")


@dataclass
class Fn:
    param: str = "Int"
    ret: str = "Int"
    throws: bool = False
    k: int = 3


@dataclass
class Mod:
    imports: List[str]
    fns: List[Fn] = field(default_factory=lambda: [Fn(), Fn(k=5)])
    #: Field count of each class.
    classes: List[int] = field(default_factory=lambda: [2])
    closures: int = 0


def _call(lines: List[str], symbol: str, fn: Fn, arg: str) -> None:
    """Append a call to *symbol* that type-checks against *fn*."""
    call = f"{symbol}(x: {fn.param}({arg}))"
    if fn.throws:
        lines += ["    do {",
                  f"        let v = try {call}",
                  "        acc = acc + Int(v)",
                  "    } catch {",
                  "        acc = acc + error",
                  "    }"]
    else:
        lines.append(f"    acc = acc + Int({call})")


def render(program: Dict[str, Mod]) -> Dict[str, str]:
    sources = {}
    for name in MODULES:
        mod, low = program[name], name.lower()
        lines = [f"import {dep}" for dep in mod.imports]
        lines.append(f"let {low}Seed = {len(name)}")
        for i, fn in enumerate(mod.fns):
            throws = " throws" if fn.throws else ""
            lines += [f"func {low}F{i}(x: {fn.param}){throws} -> {fn.ret} {{",
                      "    let y = Int(x)"]
            if fn.throws:
                lines.append("    if y == 99991 { throw 1 }")
            lines += [f"    return {fn.ret}((y * {fn.k} + 1) % 9973)", "}"]
        for j, nfields in enumerate(mod.classes):
            # Newest field first: adding one moves every other field's
            # index, which importers read without any change to their text.
            lines.append(f"class {name}C{j} {{")
            lines += [f"    var f{f}: Int" for f in reversed(range(nfields))]
            lines.append("    init(v: Int) {")
            lines += [f"        self.f{f} = v + {f}" for f in range(nfields)]
            lines += ["    }", "    func total() -> Int {",
                      "        return " + " + ".join(
                          f"self.f{f}" for f in range(nfields)),
                      "    }", "}"]
        lines += [f"func {low}Run(x: Int) -> Int {{",
                  f"    var acc = x + {low}Seed"]
        for i, fn in enumerate(mod.fns):
            _call(lines, f"{low}F{i}", fn, "acc % 97")
        for dep in mod.imports:
            _call(lines, f"{dep.lower()}F0", program[dep].fns[0], "acc % 89")
            lines.append(f"    acc = acc + {dep.lower()}Run(x: acc % 13)")
            if program[dep].classes:
                # Four calls of one imported method on a retained
                # receiver: SIL outlining forms a helper for them.
                lines += [f"    let d{dep} = {dep}C0(v: acc % 11)",
                          f"    acc = acc + d{dep}.f0 + d{dep}.total()",
                          f"    acc = acc + d{dep}.total() + d{dep}.total()"
                          f" + d{dep}.total()"]
        for j in range(len(mod.classes)):
            lines += [f"    let o{j} = {name}C{j}(v: acc % 17)",
                      f"    acc = acc + o{j}.total()"]
        for c in range(mod.closures):
            lines += [f"    let c{c} = {{ (z: Int) -> Int in "
                      f"return z * {c + 2} }}",
                      f"    acc = acc + c{c}(acc % 7)"]
        lines += ["    return acc % 100003", "}"]
        if name == "Main":
            lines += ["func main() {", "    print(mainRun(x: 1))", "}"]
        sources[name] = "\n".join(lines) + "\n"
    return sources


def apply_edit(program: Dict[str, Mod], edit) -> str:
    """Apply one drawn edit in place; returns the kind actually applied."""
    kind, m, i = edit
    name = MODULES[m % len(MODULES)]
    mod = program[name]
    fn = mod.fns[i % len(mod.fns)]
    if kind == "body":
        fn.k += 1
    elif kind == "param":
        fn.param = "Double" if fn.param == "Int" else "Int"
    elif kind == "ret":
        fn.ret = "Double" if fn.ret == "Int" else "Int"
    elif kind == "throws":
        fn.throws = not fn.throws
    elif kind == "field" and mod.classes:
        mod.classes[i % len(mod.classes)] += 1
    elif kind == "import":
        earlier = [dep for dep in MODULES[:MODULES.index(name)]
                   if dep not in mod.imports]
        if not earlier:
            fn.k += 1
            return "body"
        mod.imports.append(earlier[i % len(earlier)])
    elif kind == "closure":
        mod.closures += 1
    else:  # "class", or a field for a module without classes
        mod.classes.append(1 + i % 3)
        return "class"
    return kind


def _artifact(result):
    return (result.image.text_section(), result.image.data_section(),
            result.outline_stats, result.report.pass_reports)


_EDITS = st.lists(st.tuples(st.sampled_from(EDIT_KINDS),
                            st.integers(min_value=0, max_value=5),
                            st.integers(min_value=0, max_value=7)),
                  min_size=1, max_size=5)


@pytest.mark.parametrize("pipeline,target,sil_outlining", [
    pytest.param(pipeline, target, False, id=f"{pipeline}-{target}")
    for pipeline in ("default", "wholeprogram")
    for target in ("arm64", "thumb2c")
] + [pytest.param("default", "arm64", True, id="default-arm64-sil-outlining")])
@settings(max_examples=8, deadline=None)
@given(edits=_EDITS)
def test_warm_builds_after_edits_equal_uncached(pipeline, target,
                                                sil_outlining, edits):
    program = {name: Mod(imports=list(IMPORTS[name])) for name in MODULES}
    cache_dir = tempfile.mkdtemp(prefix="repro-iface-")
    config = BuildConfig(pipeline=pipeline, target=target, outline_rounds=1,
                         incremental=True, cache_dir=cache_dir,
                         enable_sil_outlining=sil_outlining)
    try:
        build_program(render(program), config)
        for edit in edits:
            kind = apply_edit(program, edit)
            sources = render(program)
            warm = build_program(sources, config)
            uncached = build_program(sources, dataclasses.replace(
                config, incremental=False, workers=1))
            assert _artifact(warm) == _artifact(uncached), (kind, edit)
            if kind == "body":
                assert warm.report.cache_misses == 1, edit
                assert warm.report.functions_recompiled == 1, edit
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
