"""Interface-keyed module keys on the appgen corpus.

A module keys on its own source, its counter bases and the interface
digests of its transitive imports, and a warm build parses, checks and
lowers only the modules whose key missed.  So:

* a body-only edit to ``Base`` (which every other module imports) misses
  exactly one module key and parses one module;
* an edit to what ``Base`` declares misses every transitive importer;
* a new class or closure moves the counter bases of every later module;
* with SIL outlining on, which types its helpers by imported callees'
  signatures, a body edit still misses one module key and an evicted
  module entry recompiles only that module;
* every single-function edit still relowers one function and recompiles
  one module's machine code.
"""

import os
import re
from dataclasses import replace

import pytest

from repro.frontend.parser import parse_module
from repro.obs import Tracer, use_tracer
from repro.pipeline import (BuildConfig, build_program, compile_frontend,
                            parallel)
from repro.pipeline.cache import (ModuleCache, fingerprint_source,
                                  meta_from_ast, module_keys)
from repro.workloads.appgen import (AppSpec, edit_function,
                                    function_fingerprints, generate_app)

SPEC = AppSpec(seed=3, base_features=4, num_vendors=2)


@pytest.fixture(scope="module")
def app():
    return generate_app(SPEC)


def _keys(sources, **kw):
    items = list(sources.items())
    hashes = {name: fingerprint_source(text) for name, text in items}
    metas = {name: meta_from_ast(parse_module(text, name))
             for name, text in items}
    return dict(zip(sources, module_keys(items, hashes, metas, "fp", **kw)))


def _missed(before, after):
    old, new = _keys(before), _keys(after)
    return {name for name in new if new[name] != old[name]}


def _importers(sources, module):
    """Every module that imports *module*, directly or transitively."""
    imports = {name: set(re.findall(r"^import (\w+)", text, re.M))
               for name, text in sources.items()}
    found, frontier = set(), {module}
    while frontier:
        frontier = {name for name, deps in imports.items()
                    if deps & frontier and name not in found}
        found |= frontier
    return found


def _later(sources, module):
    names = list(sources)
    return set(names[names.index(module) + 1:])


def _edited(sources, module, old, new):
    assert old in sources[module]
    return {**sources, module: sources[module].replace(old, new, 1)}


def _parse_spans(tracer):
    return sum(1 for root in tracer.roots for span in root.walk()
               if span.name == "parse")


def _config(tmp_path, **kw):
    return BuildConfig.preset("fast-build", cache_dir=str(tmp_path),
                              workers=1, **kw)


def _uncached(sources, **kw):
    return build_program(sources, BuildConfig.preset(
        "fast-build", incremental=False, workers=1, **kw))


def _same_image(a, b):
    return (a.image.text_section() == b.image.text_section()
            and a.image.data_section() == b.image.data_section())


class TestKeys:
    def test_base_is_imported_by_every_other_module(self, app):
        assert _importers(app, "Base") == set(app) - {"Base"}

    def test_body_edit_misses_only_the_edited_module(self, app):
        for module in ("Base", "Vendor1", "Feature2"):
            func = sorted(function_fingerprints(SPEC)[module])[0]
            edited = {**app, module: edit_function(app[module], func)}
            assert _missed(app, edited) == {module}, module

    def test_signature_edit_misses_every_transitive_importer(self, app):
        # A renamed parameter: every call site still compiles (labels are
        # not checked), but what Base declares changed.
        edited = _edited(app, "Base",
                         "func mix(a: Int, b: Int) -> Int {\n"
                         "    return (a * 31 + b) % 65537",
                         "func mix(a: Int, c: Int) -> Int {\n"
                         "    return (a * 31 + c) % 65537")
        assert _missed(app, edited) == {"Base"} | _importers(app, "Base")
        vendor = "Vendor0"
        edited = {**app, vendor: app[vendor]
                  + "\nfunc extraApi(x: Int) -> Int { return x }\n"}
        assert _missed(app, edited) == ({vendor}
                                        | _importers(app, vendor))
        assert _missed(app, edited) != set(app)

    def test_new_class_or_closure_misses_every_later_module(self, app):
        module = "Vendor1"
        new_class = {**app, module: app[module]
                     + "\nclass Extra {\n    var v: Int\n"
                       "    init(v: Int) {\n        self.v = v\n    }\n}\n"}
        func = sorted(function_fingerprints(SPEC)[module])[0]
        closure = {**app, module: edit_function(app[module], func).replace(
            "    log(code: 1)",
            "    let k = { (v: Int) -> Int in return v + 1 }\n"
            "    log(code: k(1))", 1)}
        for edited in (new_class, closure):
            missed = _missed(app, edited)
            assert missed == ({module} | _later(app, module)
                              | _importers(app, module))
            assert "Base" not in missed


class TestBuilds:
    def test_cold_cached_build_bills_each_parse_to_parse(self, app,
                                                         tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            cold = build_program(app, _config(tmp_path))
        assert cold.report.phase_wall["parse"] > 0
        assert _parse_spans(tracer) == len(app)
        # Untraced, the same wall is measured.
        fresh = build_program(app, _config(tmp_path / "untraced"))
        assert fresh.report.phase_wall["parse"] > 0

    def test_body_edit_to_base_parses_one_module(self, app, tmp_path):
        config = _config(tmp_path)
        build_program(app, config)
        func = sorted(f for f in function_fingerprints(SPEC)["Base"]
                      if f != "log")[0]
        edited = {**app, "Base": edit_function(app["Base"], func)}
        tracer = Tracer()
        with use_tracer(tracer):
            warm = build_program(edited, config)
        report = warm.report
        assert (report.cache_hits, report.cache_misses) == (len(app) - 1, 1)
        assert _parse_spans(tracer) == 1
        assert report.functions_recompiled == 1
        assert report.llc_cache_misses == 1
        assert _same_image(warm, _uncached(edited))

    def test_signature_edit_rebuilds_importers_identically(self, app,
                                                           tmp_path):
        config = _config(tmp_path)
        build_program(app, config)
        edited = _edited(app, "Base", "func bump() {",
                         "func bump(_ unused: Int) {")
        edited = {name: text.replace("bump()", "bump(unused: 0)")
                  for name, text in edited.items()}
        warm = build_program(edited, config)
        assert warm.report.cache_misses == 1 + len(_importers(app, "Base"))
        assert _same_image(warm, _uncached(edited))

    def test_every_single_function_edit_recompiles_one_function(self, app,
                                                                tmp_path):
        config = _config(tmp_path)
        build_program(app, config)
        sources = dict(app)
        functions = function_fingerprints(SPEC)
        for marker, module in enumerate(("Base", "Vendor0", "Vendor1",
                                         "Feature0", "Feature3"), start=1):
            func = sorted(f for f in functions[module] if f != "log")[-1]
            sources[module] = edit_function(sources[module], func,
                                            marker=marker)
            report = build_program(sources, config).report
            assert report.cache_misses == 1, module
            assert report.functions_recompiled == 1, module
            assert report.llc_cache_misses == 1, module

    def test_all_hit_image_miss_rebuild_runs_sema_on_headers(self, app,
                                                            tmp_path):
        # A link-tagged field misses the image key and no module key.
        config = _config(tmp_path, layout="random", layout_seed=1)
        cold = build_program(app, config)
        flipped = replace(config, layout_seed=2)
        tracer = Tracer()
        with use_tracer(tracer):
            warm = build_program(app, flipped)
        report = warm.report
        assert not report.image_cache_hit
        assert (report.cache_hits, report.cache_misses) == (len(app), 0)
        assert _parse_spans(tracer) == 0
        assert report.functions_recompiled == 0
        assert warm.registry._classes == cold.registry._classes
        assert len(warm.registry._classes) > 0
        assert _same_image(warm, _uncached(app, layout="random",
                                           layout_seed=2))

    @pytest.mark.parametrize("persistent", [False, True])
    def test_partly_hit_modules_lower_on_workers(self, app, tmp_path,
                                                 persistent):
        config = BuildConfig.preset("fast-build", cache_dir=str(tmp_path),
                                    workers=2,
                                    persistent_workers=persistent)
        edited = _edited(app, "Base", "func bump() {",
                         "func bump(_ unused: Int) {")
        edited = {name: text.replace("bump()", "bump(unused: 0)")
                  for name, text in edited.items()}
        # Only the warm build is traced: a worker traces the chunks of the
        # build that submitted them, even in a pool the untraced cold
        # build forked.
        tracer = Tracer()
        try:
            build_program(app, config)
            with use_tracer(tracer):
                warm = build_program(edited, config)
        finally:
            parallel.shutdown_persistent_pool()
        report = warm.report
        assert report.cache_misses == 1 + len(_importers(app, "Base"))
        # The missed modules reuse most of their functions from the
        # function cache, and still lower on both workers.
        assert report.fn_cache_hits > report.functions_recompiled > 0
        assert report.degradations == []
        chunks = [span for span in tracer.roots[-1].walk()
                  if span.name == "worker-chunk:lower"]
        assert len(chunks) == 2
        assert _same_image(warm, _uncached(edited))


#: A cross-module SIL-outlining witness (the appgen corpus forms no
#: helper): every module calls ``Lib.weigh`` at least 4 times with a
#: retained reference argument, so each forms a helper typed by that
#: callee's signature, read from ``Lib``'s header when ``Lib`` hit.  Each
#: module also has one function no call site touches, for body edits.
WITNESS = {
    "Lib": """
class Box {
    var v: Int
    init(v: Int) {
        self.v = v
    }
}
func weigh(b: Box) -> Int {
    return b.v * 2 + 1
}
func libScale(x: Int) -> Int {
    return x - 1
}
func libTotal(b: Box) -> Int {
    let t = weigh(b: b) + weigh(b: b) + weigh(b: b)
    return t + weigh(b: b) + libScale(x: b.v)
}
""",
    "A": """
import Lib
func aScale(x: Int) -> Int {
    return x * 3
}
func aTotal(n: Int) -> Int {
    let b = Box(v: n)
    let t = weigh(b: b) + weigh(b: b) + weigh(b: b)
    return t + weigh(b: b) + aScale(x: n)
}
""",
    "Main": """
import Lib
import A
func mainScale(x: Int) -> Int {
    return x + 11
}
func main() {
    let b = Box(v: 2)
    let t = weigh(b: b) + weigh(b: b) + weigh(b: b)
    print(t + weigh(b: b))
    print(libTotal(b: b) + aTotal(n: 3) + mainScale(x: 1))
}
""",
}

#: One body-only edit per witness module, in a function with no outlined
#: call site.
WITNESS_EDITS = {"Lib": ("return x - 1", "return x - 2"),
                 "A": ("return x * 3", "return x * 4"),
                 "Main": ("return x + 11", "return x + 12")}


class TestSILOutlining:
    def test_witness_forms_helpers_in_several_modules(self):
        artifact = compile_frontend(WITNESS, BuildConfig(
            enable_sil_outlining=True, incremental=False, workers=1))
        with_helpers = {module.name for module in artifact.lir_modules
                        if any("sil_outlined$" in fn.symbol
                               for fn in module.functions)}
        assert len(with_helpers) >= 2
        assert with_helpers - {"Lib"}, "no helper on an imported callee"

    @pytest.mark.parametrize("pipeline", ["default", "wholeprogram"])
    def test_body_edit_misses_one_module_key(self, tmp_path, pipeline):
        config = _config(tmp_path, enable_sil_outlining=True,
                         pipeline=pipeline)
        build_program(WITNESS, config)
        sources = dict(WITNESS)
        for module, (old, new) in WITNESS_EDITS.items():
            sources = _edited(sources, module, old, new)
            warm = build_program(sources, config)
            assert warm.report.cache_misses == 1, module
            assert warm.report.functions_recompiled == 1, module
            assert _same_image(warm, _uncached(
                sources, enable_sil_outlining=True, pipeline=pipeline))

    @pytest.mark.parametrize("pipeline", ["default", "wholeprogram"])
    def test_evicted_module_entry_recompiles_only_that_module(self, tmp_path,
                                                              pipeline):
        config = _config(tmp_path, enable_sil_outlining=True,
                         pipeline=pipeline)
        build_program(WITNESS, config)
        # Evict A's module entry, and miss the image through a backend
        # field, so the frontend sees 1 miss among hits.
        items = list(WITNESS.items())
        hashes = {name: fingerprint_source(text) for name, text in items}
        metas = {name: meta_from_ast(parse_module(text, name))
                 for name, text in items}
        keys = module_keys(items, hashes, metas,
                           config.frontend_fingerprint())
        os.unlink(ModuleCache(str(tmp_path))._path(keys[1]))
        rebuilt = build_program(WITNESS, replace(config, outline_rounds=2))
        assert rebuilt.report.cache_misses == 1
        assert rebuilt.report.functions_recompiled == 0
        assert _same_image(rebuilt, _uncached(
            WITNESS, enable_sil_outlining=True, pipeline=pipeline,
            outline_rounds=2))
