"""Function-level incremental builds: per-function cache keys, the image
entry as the one record of a finished build, and the single-function-edit
contract on real builds."""

import os
import shutil
from collections import Counter

import pytest

from repro.analysis.patterns import mine_build_patterns
from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.lir.ir import LIRFunction
from repro.pipeline import BuildConfig, build_program, fncache, parallel
from repro.pipeline import cache as cache_mod
from repro.sil.silgen import generate_sil
from repro.workloads.appgen import (AppSpec, edit_function, generate_app,
                                    function_fingerprints)

SPEC = AppSpec(base_features=4, num_vendors=2, base_handlers=3)


def _sil_modules(sources):
    modules = [parse_module(text, name)
               for name, text in sorted(sources.items())]
    program = analyze_program(modules)
    sil_modules = generate_sil(program)
    signatures = {fn.symbol: fn
                  for sm in sil_modules for fn in sm.functions}
    return sil_modules, signatures


def _config(tmp_path, **kw):
    kw.setdefault("pipeline", "default")
    kw.setdefault("outline_rounds", 1)
    return BuildConfig(incremental=True, cache_dir=str(tmp_path), **kw)


class TestFunctionKeys:
    def test_keys_are_stable_across_regeneration(self):
        sources = generate_app(SPEC)
        ffp = "ffp"
        sil_a, sig_a = _sil_modules(sources)
        sil_b, sig_b = _sil_modules(sources)
        for sm_a, sm_b in zip(sil_a, sil_b):
            keys_a = fncache.module_function_keys(sm_a, sig_a, ffp)
            keys_b = fncache.module_function_keys(sm_b, sig_b, ffp)
            assert [k for _, k in keys_a] == [k for _, k in keys_b]

    def test_one_function_edit_changes_one_key(self):
        sources = generate_app(SPEC)
        module = sorted(sources)[0]
        func = sorted(function_fingerprints(SPEC)[module])[0]
        edited = dict(sources)
        edited[module] = edit_function(sources[module], func)
        ffp = "ffp"
        sil_a, sig_a = _sil_modules(sources)
        sil_b, sig_b = _sil_modules(edited)
        changed = 0
        for sm_a, sm_b in zip(sil_a, sil_b):
            keys_a = {fn.symbol: k for fn, k in
                      fncache.module_function_keys(sm_a, sig_a, ffp)}
            keys_b = {fn.symbol: k for fn, k in
                      fncache.module_function_keys(sm_b, sig_b, ffp)}
            assert set(keys_a) == set(keys_b)
            changed += sum(keys_a[s] != keys_b[s] for s in keys_a)
        assert changed == 1

    def test_key_depends_on_callee_signature(self):
        sources = {"A": "func f(x: Int) -> Int { return g(x: x) }\n"
                        "func g(x: Int) -> Int { return x + 1 }\n"
                        "func main() { print(f(x: 1)) }\n"}
        changed = {"A": "func f(x: Int) -> Int { return Int(g(x: "
                        "Double(x))) }\n"
                        "func g(x: Double) -> Double { return x + 1.0 }\n"
                        "func main() { print(f(x: 1)) }\n"}
        ffp = "ffp"
        sil_a, sig_a = _sil_modules(sources)
        sil_b, sig_b = _sil_modules(changed)
        key_a = {fn.symbol: k for fn, k in fncache.module_function_keys(
            sil_a[0], sig_a, ffp)}
        key_b = {fn.symbol: k for fn, k in fncache.module_function_keys(
            sil_b[0], sig_b, ffp)}
        assert key_a["A::main"] == key_b["A::main"]
        # f's own body changed AND its callee g's signature changed.
        assert key_a["A::f"] != key_b["A::f"]


class TestSingleFunctionEdit:
    def test_edit_recompiles_exactly_one_function(self, tmp_path):
        sources = generate_app(SPEC)
        config = _config(tmp_path)
        cold = build_program(sources, config)
        assert cold.report.functions_recompiled > 1

        module = sorted(sources)[len(sources) // 2]
        func = sorted(function_fingerprints(SPEC)[module])[0]
        edited = dict(sources)
        edited[module] = edit_function(sources[module], func)
        warm = build_program(edited, config)
        assert warm.report.functions_recompiled == 1
        assert warm.report.llc_cache_misses == 1
        assert warm.report.fn_cache_hits > 0
        assert not warm.report.image_cache_hit

    def test_edited_build_bit_identical_to_cold(self, tmp_path):
        sources = generate_app(SPEC)
        module = sorted(sources)[0]
        func = sorted(function_fingerprints(SPEC)[module])[0]
        edited = dict(sources)
        edited[module] = edit_function(sources[module], func)

        config = _config(tmp_path)
        build_program(sources, config)       # prime the cache
        warm = build_program(edited, config)
        cold = build_program(edited, BuildConfig(pipeline="default",
                                                 outline_rounds=1))
        assert warm.image.text_section() == cold.image.text_section()


class TestImageSidecar:
    def test_noop_rebuild_hits_image_without_module_loads(self, tmp_path):
        sources = generate_app(SPEC)
        config = _config(tmp_path)
        cold = build_program(sources, config)
        warm = build_program(sources, config)
        assert warm.report.image_cache_hit
        assert warm.report.cache_hits == len(sources)
        assert warm.image.text_section() == cold.image.text_section()
        # The image hit still serves the full machine listing.
        assert ([m.name for m in warm.machine_modules]
                == [m.name for m in cold.machine_modules])

    def test_image_hit_listing_survives_a_wiped_cache(self, tmp_path):
        sources = generate_app(SPEC)
        cache_dir = tmp_path / "cache"
        config = BuildConfig.preset("fast-build", cache_dir=str(cache_dir))
        try:
            cold = build_program(sources, config)
            warm = build_program(sources, config)
            assert warm.report.image_cache_hit
            # The cache goes between the hit and the first read of the
            # listing, as a prune or a cleaned build directory would.
            shutil.rmtree(cache_dir)
            listing = _listing(cold)
            assert sum(len(functions) for _, functions in listing) > 0
            assert _listing(warm) == listing
            assert mine_build_patterns(warm) == mine_build_patterns(cold)
        finally:
            parallel.shutdown_persistent_pool()

    def test_image_miss_stores_one_record(self, tmp_path):
        sources = generate_app(SPEC)
        cold = build_program(sources, _config(tmp_path))
        report = cold.report
        # A meta and a module entry per module, an entry per function, a
        # machine-code entry per module, and the linked image: no listing.
        assert report.cache_stores == (2 * report.num_modules
                                       + report.fn_cache_misses
                                       + report.llc_cache_misses + 1)
        cache = cache_mod.ModuleCache(str(tmp_path))
        kinds = Counter(_entry_kind(cache.load(key))
                        for key in _all_keys(tmp_path))
        assert kinds["image"] == 1
        assert set(kinds) == {"meta", "module", "function", "llc", "image"}


def _listing(result):
    return [(module.name, [fn.render() for fn in module.functions])
            for module in result.machine_modules]


def _entry_kind(payload):
    if isinstance(payload, cache_mod.ModuleMeta):
        return "meta"
    if isinstance(payload, LIRFunction):
        return "function"
    if isinstance(payload, dict):
        if "image" in payload:
            return "image"
        if set(payload) == {"lir", "fnsig", "header"}:
            return "module"
        if set(payload) == {"llc_out", "merge_reports"}:
            return "llc"
    return type(payload).__name__


def _all_keys(tmp_path):
    keys = []
    objects = os.path.join(tmp_path, "objects")
    for dirpath, _, files in os.walk(objects):
        keys.extend(f[:-len(".pkl")] for f in files if f.endswith(".pkl"))
    return keys


class TestAppgenEditing:
    def test_fingerprints_cover_every_module(self):
        sources = generate_app(SPEC)
        fps = function_fingerprints(SPEC)
        assert set(fps) == set(sources)
        assert all(fps[m] for m in fps)

    def test_edit_changes_exactly_one_fingerprint(self):
        fps = function_fingerprints(SPEC)
        module = sorted(fps)[0]
        func = sorted(fps[module])[0]
        sources = generate_app(SPEC)
        edited_text = edit_function(sources[module], func)
        assert edited_text != sources[module]
        # Re-fingerprint the edited source directly.
        from repro.workloads.appgen import _function_extents
        before = {n: sources[module][s:e]
                  for n, s, e in _function_extents(sources[module])}
        after = {n: edited_text[s:e]
                 for n, s, e in _function_extents(edited_text)}
        assert set(before) == set(after)
        changed = [name for name in before if before[name] != after[name]]
        assert changed == [func]

    def test_distinct_markers_give_distinct_edits(self):
        sources = generate_app(SPEC)
        module = sorted(sources)[0]
        func = sorted(function_fingerprints(SPEC)[module])[0]
        a = edit_function(sources[module], func, marker=1)
        b = edit_function(sources[module], func, marker=2)
        assert a != b

    def test_unknown_function_is_an_error(self):
        sources = generate_app(SPEC)
        module = sorted(sources)[0]
        with pytest.raises(ValueError):
            edit_function(sources[module], "no_such_function")

    def test_edited_module_still_compiles(self, tmp_path):
        sources = generate_app(SPEC)
        module = sorted(sources)[0]
        func = sorted(function_fingerprints(SPEC)[module])[0]
        edited = dict(sources)
        edited[module] = edit_function(sources[module], func)
        result = build_program(edited, BuildConfig())
        assert result.sizes.num_functions > 0
