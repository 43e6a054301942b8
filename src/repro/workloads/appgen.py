"""Synthetic UberRider-style app generator.

Produces a deterministic multi-module Swiftlet code base with the traits the
paper attributes to production iOS apps:

* many feature modules plus shared vendor libraries and a Base module;
* reference-counted model classes and view-controller-style handler chains
  (lots of retain/release + calling-convention shuffles after lowering);
* per-feature JSON-style decoder classes whose throwing inits reproduce the
  Listing 10 / Figure 9 out-of-SSA pattern;
* closures capturing mutable state;
* per-module constant globals read by that module's code (the data-locality
  property the §VI-3 llvm-link ordering experiment depends on);
* cold, run-once span entry points (`mK_span`) for the Figure 13 study;
* a linear *weekly growth* model (new modules + new handlers per module) for
  the Figure 1 code-size-over-time experiment.

Everything is parameterised by :class:`AppSpec` and fully seeded.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class AppSpec:
    """Knobs for one generated app snapshot."""

    seed: int = 2021
    #: Feature modules at week 0 and added per week.
    base_features: int = 12
    features_per_week: float = 0.75
    #: Handlers per feature at week 0 and added per 4 weeks.
    base_handlers: int = 4
    handler_growth_per_week: float = 0.1
    num_vendors: int = 4
    #: Decoder record field count range (min, max).
    record_fields: Tuple[int, int] = (8, 20)
    week: int = 0

    @property
    def num_features(self) -> int:
        return self.base_features + int(self.features_per_week * self.week)

    @property
    def handlers_per_feature(self) -> int:
        return self.base_handlers + int(self.handler_growth_per_week * self.week)

    def at_week(self, week: int) -> "AppSpec":
        return AppSpec(seed=self.seed, base_features=self.base_features,
                       features_per_week=self.features_per_week,
                       base_handlers=self.base_handlers,
                       handler_growth_per_week=self.handler_growth_per_week,
                       num_vendors=self.num_vendors,
                       record_fields=self.record_fields, week=week)


# --- Base module -----------------------------------------------------------

_BASE_MODULE = '''
var logCount = 0
var eventCount = 0
let appBuild = 4021
let retryLimit = 3

func log(code: Int) {
    logCount = logCount + code
}

func bump() {
    eventCount = eventCount + 1
}

func clamp(x: Int, lo: Int, hi: Int) -> Int {
    if x < lo { return lo }
    if x > hi { return hi }
    return x
}

func mix(a: Int, b: Int) -> Int {
    return (a * 31 + b) % 65537
}

class Box {
    var value: Int
    init(value: Int) {
        self.value = value
    }
    func add(k: Int) {
        self.value = self.value + k
    }
}

class FieldSource {
    var values: [Int]
    var failKey: Int
    init(n: Int, failKey: Int) {
        self.values = [Int](repeating: 7, count: n)
        var i = 0
        while i < n {
            self.values[i] = mix(a: i, b: n)
            i += 1
        }
        self.failKey = failKey
    }
    func getInt(key: Int) throws -> Int {
        if key == self.failKey { throw key }
        return self.values[key % self.values.count]
    }
    func getString(key: Int) throws -> String {
        if key == self.failKey { throw key }
        if self.values[key % self.values.count] % 2 == 0 {
            return "even"
        }
        return "odd"
    }
    func getDouble(key: Int) throws -> Double {
        if key == self.failKey { throw key }
        return Double(self.values[key % self.values.count]) * 0.5
    }
}
'''


def _vendor_module(v: int, rng: random.Random) -> str:
    k1 = rng.randint(3, 29)
    k2 = rng.randint(2, 13)
    cap = rng.randint(6, 14)
    return f'''
import Base

let vnd{v}Factor = {k1}
let vnd{v}Bias = {k2}

func vnd{v}Transform(x: Int, y: Int) -> Int {{
    return mix(a: x * vnd{v}Factor + vnd{v}Bias, b: y)
}}

func vnd{v}Fold(a: [Int]) -> Int {{
    var total = 0
    for x in a {{
        total = mix(a: total, b: x)
    }}
    return total
}}

class Vnd{v}Buffer {{
    var data: [Int]
    var size: Int
    init() {{
        self.data = [Int](repeating: 0, count: {cap})
        self.size = 0
    }}
    func push(x: Int) {{
        if self.size < self.data.count {{
            self.data[self.size] = x
            self.size += 1
        }} else {{
            self.data[self.size % self.data.count] = x
        }}
    }}
    func sum() -> Int {{
        var total = 0
        for i in 0..<self.size {{
            total += self.data[i]
        }}
        return total
    }}
}}
'''


def _feature_module(m: int, spec: AppSpec, rng: random.Random) -> str:
    vendor = rng.randrange(spec.num_vendors)
    nfields = rng.randint(*spec.record_fields)
    handlers = spec.handlers_per_feature
    # Spans traverse several modules (a real UI flow touches many features'
    # code): depend on up to five earlier features.
    deps = [d for d in (m - 1, m - 2, m - 3, m - 4, m - 5) if d >= 0][:5]
    imports = [f"import Vendor{vendor}"]
    imports.extend(f"import Feature{d}" for d in deps)
    parts: List[str] = ["import Base\n" + "\n".join(imports) + "\n"]

    # Per-module constant globals (module data affinity for §VI-3): each
    # feature owns a non-trivial slab of data that its handlers read, so
    # llvm-link's global ordering decides how many pages a span touches.
    nglobals = rng.randint(3, 6)
    for g in range(nglobals):
        parts.append(f"let m{m}Cfg{g} = {rng.randint(1, 5000)}")
    parts.append(f'let m{m}Name = "feature-{m}-{rng.randint(100, 999)}"')
    weights = ", ".join(str(rng.randint(1, 99))
                        for _ in range(rng.randint(48, 120)))
    parts.append(f"let m{m}Weights = [{weights}]")
    lookup = ", ".join(str(rng.randint(1, 9999))
                       for _ in range(rng.randint(32, 96)))
    parts.append(f"let m{m}Lookup = [{lookup}]")

    # Model class.
    parts.append(f'''
class M{m}Item {{
    var id: Int
    var score: Double
    var label: String
    var child: M{m}Item
    init(id: Int) {{
        self.id = id
        self.score = Double(id) * 0.25
        self.label = m{m}Name
        self.child = nil
    }}
    func touch(k: Int) {{
        self.id = self.id + k * {1 + m % 3}
        self.score = self.score + Double(k)
        log(code: {1 + m % 5})
    }}
    func chainDepth() -> Int {{
        var depth = 0
        var cur = self.child
        while cur != nil {{
            depth += 1
            if depth > {64 + m} {{ return depth }}
            cur = cur.child
        }}
        return depth
    }}
}}
''')

    # Decoder record with a throwing init over many fields (Listing 10).
    field_decls = []
    field_inits = []
    for f in range(nfields):
        # f0 stays Int: the decode driver accumulates it.
        kind = ("Int" if f == 0
                else rng.choice(["Int", "Int", "Int", "String", "Double"]))
        field_decls.append(f"    let f{f}: {kind}")
        getter = {"Int": "getInt", "String": "getString",
                  "Double": "getDouble"}[kind]
        field_inits.append(
            f"        self.f{f} = try src.{getter}(key: {f})")
    parts.append(
        f"class M{m}Record {{\n"
        + "\n".join(field_decls)
        + f"\n    init(src: FieldSource) throws {{\n"
        + "\n".join(field_inits)
        + "\n    }\n}\n"
    )

    # Handlers: view-controller-style cold code.
    for h in range(handlers):
        const1 = rng.randint(1, 400)
        const2 = rng.randint(2, 30)
        loop_n = rng.randint(2, 5)
        shape = rng.randrange(3)
        if shape == 0:
            body = f'''
    let buf = Vnd{vendor}Buffer()
    var acc = ctx + {const1}
    for i in 0..<{loop_n} {{
        buf.push(x: vnd{vendor}Transform(x: acc, y: i))
        acc = clamp(x: acc + i, lo: 0, hi: m{m}Cfg{h % nglobals})
    }}
    let item = M{m}Item(id: acc)
    item.touch(k: {const2})
    bump()
    return acc + buf.sum() + item.id + m{m}Weights[{h} % m{m}Weights.count]'''
        elif shape == 1:
            body = f'''
    var acc = mix(a: ctx, b: {const1})
    let item = M{m}Item(id: acc)
    let extra = M{m}Item(id: acc + {const2})
    item.child = extra
    item.touch(k: {const2})
    acc += item.chainDepth() * m{m}Cfg{h % nglobals}
    log(code: acc % 13)
    return acc + vnd{vendor}Transform(x: ctx, y: {const1})'''
        else:
            body = f'''
    var acc = ctx
    let step = {{ (d: Int) -> Int in
        acc = acc + d + {const2}
        return acc
    }}
    var total = 0
    for i in 0..<{loop_n} {{
        total += step(i)
    }}
    let box = Box(value: total)
    box.add(k: m{m}Cfg{h % nglobals})
    bump()
    return box.value + acc'''
        parts.append(
            f"func m{m}Handler{h}(ctx: Int) -> Int {{{body}\n}}\n")

    # Decode driver: success-heavy with a failing tail (error paths run).
    parts.append(f'''
func m{m}Decode(count: Int) -> Int {{
    var ok = 0
    for i in 0..<count {{
        var failKey = 9999
        if i % 5 == 4 {{ failKey = i % {max(2, nfields)} }}
        let src = FieldSource(n: {max(4, nfields)}, failKey: failKey)
        do {{
            let rec = try M{m}Record(src: src)
            ok += rec.f0
        }} catch {{
            ok -= error
        }}
    }}
    return ok
}}
''')

    # The module's flow: every handler once, plus its own data slab (the
    # affinity llvm-link ordering can destroy, §VI-3).
    calls = "\n".join(
        f"    total += m{m}Handler{h}(ctx: {rng.randint(1, 50)})"
        for h in range(handlers))
    parts.append(f'''
func m{m}Flow(ctx: Int) -> Int {{
    var total = ctx
{calls}
    total += m{m}Weights[0] + m{m}Weights[total % m{m}Weights.count]
    total += m{m}Lookup[total % m{m}Lookup.count]
    return total
}}
''')

    # The cold span entry (Figure 13): a UI flow traversing this module and
    # its dependencies exactly once — large code footprint, few hot loops.
    dep_calls = "\n".join(
        f"    total += m{d}Flow(ctx: {rng.randint(1, 50)})" for d in deps)
    parts.append(f'''
func m{m}Span() {{
    var total = m{m}Flow(ctx: 7)
{dep_calls}
    total += m{m}Decode(count: 2)
    log(code: total % 97)
}}
''')
    return "\n".join(parts)


def _main_module(num_features: int) -> str:
    imports = "\n".join(f"import Feature{m}" for m in range(num_features))
    calls = "\n".join(f"    m{m}Span()" for m in range(num_features))
    return f'''import Base
{imports}

func main() {{
{calls}
    print(logCount)
    print(eventCount)
}}
'''


def generate_app(spec: AppSpec) -> Dict[str, str]:
    """Generate the app's source modules (name -> Swiftlet source)."""
    rng = random.Random(spec.seed)
    modules: Dict[str, str] = {"Base": _BASE_MODULE}
    for v in range(spec.num_vendors):
        vendor_rng = random.Random(rng.randint(0, 2 ** 31) + v)
        modules[f"Vendor{v}"] = _vendor_module(v, vendor_rng)
    for m in range(spec.num_features):
        # Module content depends only on (seed, m) so that week N+1 keeps
        # week N's modules byte-identical (realistic incremental growth).
        feature_rng = random.Random((spec.seed * 1_000_003 + m) & 0x7FFFFFFF)
        modules[f"Feature{m}"] = _feature_module(m, spec, feature_rng)
    modules["Main"] = _main_module(spec.num_features)
    return modules


def module_fingerprints(spec: AppSpec) -> Dict[str, str]:
    """Stable per-module source fingerprint (sha256 of the module text).

    Because module content depends only on ``(seed, module index)``, week
    N+1 keeps every week-N fingerprint unchanged; the build cache keys off
    exactly these hashes, so weekly-growth experiments re-lower only the
    modules that week added.
    """
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in generate_app(spec).items()}


def span_symbols(spec: AppSpec) -> List[str]:
    """Entry symbols of every span in the generated app."""
    return [f"Feature{m}::m{m}Span" for m in range(spec.num_features)]


#: A top-level function definition (column 0; methods are indented).
_TOP_LEVEL_FUNC = re.compile(r"^func (\w+)\(", re.MULTILINE)


def _function_extents(source: str) -> List[Tuple[str, int, int]]:
    """(name, start, end) character extents of each top-level function.

    A definition runs from its ``func`` line to the next line that is a
    lone ``}`` at column 0 — how the generator closes every top-level
    function it emits.
    """
    extents: List[Tuple[str, int, int]] = []
    for match in _TOP_LEVEL_FUNC.finditer(source):
        close = source.find("\n}", match.start())
        end = close + 2 if close >= 0 else len(source)
        extents.append((match.group(1), match.start(), end))
    return extents


def function_fingerprints(spec: AppSpec) -> Dict[str, Dict[str, str]]:
    """module -> {function name -> sha256 of its source text}.

    The function-level analogue of :func:`module_fingerprints`: an edit
    that touches one function changes exactly one entry, which is what
    the scale benchmark asserts against the build's per-function cache
    gauges (one changed fingerprint => one function recompiled).
    """
    out: Dict[str, Dict[str, str]] = {}
    for name, text in generate_app(spec).items():
        out[name] = {
            fn: hashlib.sha256(text[start:end].encode("utf-8")).hexdigest()
            for fn, start, end in _function_extents(text)}
    return out


def edit_function(source: str, func_name: str, marker: int = 1) -> str:
    """Return *source* with one statement added at the top of a function.

    Simulates the paper's developer inner loop — touch one function, hit
    build — without changing anything else in the module: the inserted
    ``log(code: ...)`` line alters only ``func_name``'s body, so exactly
    one function fingerprint (and one function-level cache key) changes.
    """
    matches = [m for m in _TOP_LEVEL_FUNC.finditer(source)
               if m.group(1) == func_name]
    if len(matches) != 1:
        raise ValueError(f"expected exactly one definition of {func_name}, "
                         f"found {len(matches)}")
    line_end = source.index("\n", matches[0].start())
    return (source[:line_end]
            + f"\n    log(code: {marker})"
            + source[line_end:])
