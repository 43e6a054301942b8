"""Unit tests for the content-addressed build cache (pipeline/cache.py):
keying, hit/miss behaviour on edits, invalidation on config/version
changes, corrupted-entry recovery (quarantine), torn-write crash safety,
and advisory locking for concurrent builds sharing one cache dir."""

import glob
import multiprocessing
import os
import threading
import time
from dataclasses import fields, is_dataclass

from repro.frontend import ast
from repro.frontend.parser import parse_module
from repro.pipeline import BuildConfig, build_program
from repro.pipeline import cache as cache_mod
from repro.pipeline.cache import (
    ModuleCache,
    fingerprint_source,
    meta_from_ast,
    module_keys,
)
from repro.pipeline.faults import FaultPlan
from repro.workloads.appgen import AppSpec, generate_app
from tests.property import test_interface_edits as edits
from tests.property.test_outline_equivalence import ProgramGenerator

LIB = """
class Pair {
    var a: Int
    var b: Int
    init(a: Int, b: Int) {
        self.a = a
        self.b = b
    }
}

func scale(x: Int) -> Int { return x * 3 }
"""

MAIN = """
import Lib

func main() {
    let p = Pair(a: scale(x: 2), b: 5)
    print(p.a + p.b)
}
"""

OTHER = """
func unrelated(x: Int) -> Int { return x - 1 }
"""


def _sources():
    return [("Lib", LIB), ("Other", OTHER), ("Main", MAIN)]


def count_closures(node: object) -> int:
    """Reference count of ``ClosureExpr`` nodes in an AST subtree: a walk
    over every dataclass field, which the parser's own count must equal."""
    count = 0
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
            continue
        if not is_dataclass(item) or isinstance(item, type):
            continue
        if isinstance(item, ast.ClosureExpr):
            count += 1
        for f in fields(item):
            value = getattr(item, f.name, None)
            if isinstance(value, (ast.Node, list, tuple)):
                stack.append(value)
    return count


def _keys(items, fingerprint="fp"):
    hashes = {name: fingerprint_source(text) for name, text in items}
    metas = {name: meta_from_ast(parse_module(text, name))
             for name, text in items}
    return dict(zip([n for n, _ in items],
                    module_keys(items, hashes, metas, fingerprint)))


class TestModuleKeys:
    def test_stable_across_calls(self):
        assert _keys(_sources()) == _keys(_sources())

    def test_edit_invalidates_module_and_importers_only(self):
        before = _keys(_sources())
        edited = [("Lib", LIB + "\nfunc extra() -> Int { return 7 }\n"),
                  ("Other", OTHER), ("Main", MAIN)]
        after = _keys(edited)
        assert after["Lib"] != before["Lib"]
        assert after["Main"] != before["Main"]  # imports Lib
        assert after["Other"] == before["Other"]  # independent, no new classes

    def test_new_class_shifts_type_id_bases_of_later_modules(self):
        before = _keys(_sources())
        with_class = [("Lib", LIB + "\nclass Extra {\n    var v: Int\n"
                              "    init(v: Int) {\n        self.v = v\n"
                              "    }\n}\n"),
                      ("Other", OTHER), ("Main", MAIN)]
        after = _keys(with_class)
        # Other never imports Lib, but its type-id base moved.
        assert after["Other"] != before["Other"]

    def test_config_fingerprint_invalidates(self):
        assert (_keys(_sources(), "fp-a")["Main"]
                != _keys(_sources(), "fp-b")["Main"])

    def test_version_bump_invalidates(self, monkeypatch):
        before = _keys(_sources())
        monkeypatch.setattr(cache_mod, "PIPELINE_CACHE_VERSION", "999-test")
        assert _keys(_sources())["Lib"] != before["Lib"]

    def test_count_closures(self):
        module = parse_module(
            "func f() -> Int {\n"
            "    let g = { (x: Int) -> Int in return x + 1 }\n"
            "    let h = { (x: Int) -> Int in return x * 2 }\n"
            "    return g(1) + h(2)\n"
            "}\n", "M")
        assert count_closures(module) == 2
        assert module.closure_count == 2
        assert meta_from_ast(module).closure_count == 2

    def test_parser_counts_match_the_reference_walk(self):
        programs = [generate_app(AppSpec(seed=seed)) for seed in (1, 2)]
        programs += [{"Gen": ProgramGenerator(seed).generate()}
                     for seed in range(12)]
        edited = {name: edits.Mod(imports=list(edits.IMPORTS[name]),
                                  closures=i % 3)
                  for i, name in enumerate(edits.MODULES)}
        programs.append(edits.render(edited))
        closures = 0
        for program in programs:
            for name, text in program.items():
                module = parse_module(text, name)
                meta = meta_from_ast(module)
                assert meta.closure_count == count_closures(module), name
                assert meta.class_count == len(module.classes), name
                closures += meta.closure_count
        assert closures > 0  # the corpora exercise the count


class TestModuleCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        assert cache.load("ab" * 32) is None
        assert cache.store("ab" * 32, {"payload": [1, 2, 3]})
        assert cache.load("ab" * 32) == {"payload": [1, 2, 3]}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        key = "cd" * 32
        cache.store(key, {"ok": True})
        path = cache._path(key)
        with open(path, "wb") as fh:
            fh.write(b"\x80\x05 this is not a pickle")
        assert cache.load(key) is None
        assert cache.stats.errors == 1
        assert not os.path.exists(path)
        # The build can repopulate it afterwards.
        assert cache.store(key, {"ok": True})
        assert cache.load(key) == {"ok": True}

    def test_corrupted_entry_is_quarantined_for_inspection(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        key = "ef" * 32
        cache.store(key, {"ok": True})
        with open(cache._path(key), "wb") as fh:
            fh.write(b"garbage bytes")
        assert cache.load(key) is None
        assert cache.stats.quarantined == 1
        qpath = cache._quarantine_path(key)
        assert os.path.exists(qpath)
        with open(qpath, "rb") as fh:
            assert fh.read() == b"garbage bytes"

    def test_stuck_corrupt_entry_raises_typed_error(self, tmp_path,
                                                    monkeypatch):
        # A corrupt entry that can be neither quarantined nor deleted
        # would poison every future build, so that one case escalates to
        # CacheCorruptionError rather than failing silently forever.
        import pytest

        from repro.errors import CacheCorruptionError

        cache = ModuleCache(str(tmp_path))
        key = "ba" * 32
        cache.store(key, {"ok": True})
        with open(cache._path(key), "wb") as fh:
            fh.write(b"garbage bytes")

        def deny(*_args, **_kw):
            raise PermissionError("read-only filesystem")

        monkeypatch.setattr(cache_mod.os, "replace", deny)
        monkeypatch.setattr(cache_mod.os, "unlink", deny)
        with pytest.raises(CacheCorruptionError):
            cache.load(key)

    def test_injected_corruption_recovers(self, tmp_path):
        plan = FaultPlan(seed=1, cache_corrupt_rate=1.0)
        cache = ModuleCache(str(tmp_path), fault_plan=plan)
        key = "01" * 32
        cache.store(key, {"ok": True})
        assert cache.load(key) is None  # scrambled on the way in
        assert cache.stats.quarantined == 1
        # A fault-free cache on the same dir sees a clean (empty) slot.
        clean = ModuleCache(str(tmp_path))
        assert clean.load(key) is None
        assert clean.stats.errors == 0

    def test_torn_write_never_publishes_the_key(self, tmp_path):
        plan = FaultPlan(seed=2, torn_write_rate=1.0)
        cache = ModuleCache(str(tmp_path), fault_plan=plan)
        key = "23" * 32
        assert not cache.store(key, {"ok": True})
        assert cache.stats.torn_writes == 1
        assert not os.path.exists(cache._path(key))
        # No temp droppings under the objects tree either.
        leftovers = glob.glob(str(tmp_path / "objects" / "*" / "*.tmp"))
        assert leftovers == []
        # And the previous value (if any) must survive a later torn write.
        healthy = ModuleCache(str(tmp_path))
        healthy.store(key, {"v": 1})
        assert not cache.store(key, {"v": 2})
        assert healthy.load(key) == {"v": 1}

    def test_lock_contention_blocks_then_succeeds(self, tmp_path):
        fcntl = cache_mod.fcntl
        if fcntl is None:
            return  # platform without flock: locking is a no-op
        cache = ModuleCache(str(tmp_path))
        key = "45" * 32
        # Hold the entry's advisory lock (its stripe's) from a second
        # descriptor, as a concurrent build process would.
        lock_dir = os.path.join(cache.root, "locks")
        os.makedirs(lock_dir, exist_ok=True)
        fd = os.open(os.path.join(lock_dir, f"{key[:2]}.lock"),
                     os.O_CREAT | os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        stored = []
        t = threading.Thread(target=lambda: stored.append(
            cache.store(key, {"ok": True})))
        t.start()
        time.sleep(0.15)
        assert not stored  # writer is parked on the lock, not failing
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
        t.join(timeout=5)
        assert stored == [True]
        assert cache.stats.lock_failures == 1
        assert cache.load(key) == {"ok": True}


class TestBuildLevelCaching:
    def _config(self, tmp_path, **kw):
        return BuildConfig(outline_rounds=1, incremental=True,
                           cache_dir=str(tmp_path), **kw)

    def test_hit_on_rebuild_miss_on_edit(self, tmp_path):
        sources = dict(_sources())
        cold = build_program(sources, self._config(tmp_path))
        assert cold.report.cache_misses == 3
        warm = build_program(sources, self._config(tmp_path))
        assert warm.report.cache_hits == 3
        assert warm.report.image_cache_hit
        edited = dict(sources)
        edited["Other"] = OTHER + "\nfunc more(x: Int) -> Int { return x }\n"
        partial = build_program(edited, self._config(tmp_path))
        assert partial.report.cache_hits == 2
        assert partial.report.cache_misses == 1
        assert not partial.report.image_cache_hit
        # Identical to an uncached build of the edited program.
        fresh = build_program(edited, BuildConfig(outline_rounds=1))
        assert (partial.image.text_section() == fresh.image.text_section())
        assert (partial.image.data_section() == fresh.image.data_section())

    def test_frontend_config_change_invalidates_modules(self, tmp_path):
        sources = dict(_sources())
        build_program(sources, self._config(tmp_path))
        flipped = build_program(
            sources, self._config(tmp_path, enable_sil_outlining=True))
        assert flipped.report.cache_misses == 3

    def test_backend_config_change_keeps_module_hits(self, tmp_path):
        sources = dict(_sources())
        build_program(sources, self._config(tmp_path))
        rebuilt = build_program(
            sources, BuildConfig(outline_rounds=4, incremental=True,
                                 cache_dir=str(tmp_path)))
        assert rebuilt.report.cache_hits == 3
        assert not rebuilt.report.image_cache_hit
        fresh = build_program(sources, BuildConfig(outline_rounds=4))
        assert rebuilt.image.text_section() == fresh.image.text_section()

    def test_version_bump_invalidates_everything(self, tmp_path, monkeypatch):
        sources = dict(_sources())
        build_program(sources, self._config(tmp_path))
        monkeypatch.setattr(cache_mod, "PIPELINE_CACHE_VERSION", "test-bump")
        rebuilt = build_program(sources, self._config(tmp_path))
        assert rebuilt.report.cache_hits == 0
        assert rebuilt.report.cache_misses == 3

    def test_corrupted_module_entry_recovers(self, tmp_path):
        sources = dict(_sources())
        reference = build_program(sources, self._config(tmp_path))
        # Smash every stored object; the rebuild must neither crash nor
        # return stale results.
        for path in glob.glob(str(tmp_path / "objects" / "*" / "*.pkl")):
            with open(path, "wb") as fh:
                fh.write(b"garbage")
        rebuilt = build_program(sources, self._config(tmp_path))
        assert rebuilt.report.cache_hits == 0
        assert (rebuilt.image.text_section()
                == reference.image.text_section())
        # Recovery shows up as a structured degradation event.
        assert any(e.kind == "cache-quarantine"
                   for e in rebuilt.report.degradations)
        # And the repaired cache serves hits again.
        warm = build_program(sources, self._config(tmp_path))
        assert warm.report.image_cache_hit


def _build_into_queue(cache_dir, queue):
    sources = dict(_sources())
    result = build_program(sources, BuildConfig(
        outline_rounds=1, incremental=True, cache_dir=cache_dir))
    queue.put((result.image.text_section(), result.image.data_section()))


class TestConcurrentBuilds:
    def test_two_processes_sharing_one_cache_dir(self, tmp_path):
        """Races on a shared cache_dir (both builds probing, storing, and
        image-caching the same keys) must corrupt nothing and change no
        bits of the output."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_build_into_queue,
                             args=(str(tmp_path), queue)) for _ in range(2)]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
        reference = build_program(dict(_sources()),
                                  BuildConfig(outline_rounds=1))
        expected = (reference.image.text_section(),
                    reference.image.data_section())
        assert results == [expected, expected]
        # The populated cache serves a clean warm hit afterwards.
        warm = build_program(dict(_sources()), BuildConfig(
            outline_rounds=1, incremental=True, cache_dir=str(tmp_path)))
        assert warm.report.image_cache_hit


# --- bounded-cache maintenance (prune / eviction / GC) -----------------------


def _entry(cache, key, payload=None, mtime=None):
    """Store one entry and optionally pin its mtime (LRU position)."""
    cache.store(key, payload if payload is not None else {"k": key})
    if mtime is not None:
        os.utime(cache._path(key), (mtime, mtime))
    return os.path.getsize(cache._path(key))


class TestPrune:
    def test_lru_evicts_oldest_first(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        now = time.time()
        sizes = {}
        for i, key in enumerate(["aa" * 32, "bb" * 32, "cc" * 32,
                                 "dd" * 32]):
            sizes[key] = _entry(cache, key, mtime=now - 1000 + i)
        budget = sizes["cc" * 32] + sizes["dd" * 32]
        removed = cache.prune(budget)
        assert removed == 2
        assert cache.stats.evictions == 2
        assert cache.stats.evicted_bytes == sizes["aa" * 32] + sizes["bb" * 32]
        assert cache.load("aa" * 32) is None
        assert cache.load("bb" * 32) is None
        assert cache.load("cc" * 32) == {"k": "cc" * 32}
        assert cache.load("dd" * 32) == {"k": "dd" * 32}
        assert cache.total_bytes() <= budget

    def test_load_refreshes_recency(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        now = time.time()
        size_a = _entry(cache, "aa" * 32, mtime=now - 1000)
        _entry(cache, "bb" * 32, mtime=now - 500)
        # Using "aa" makes it the most recently used entry again.
        assert cache.load("aa" * 32) is not None
        cache.prune(size_a)
        assert cache.load("aa" * 32) is not None
        assert cache.load("bb" * 32) is None

    def test_lock_directory_stays_bounded(self, tmp_path):
        if cache_mod.fcntl is None:
            return  # platform without flock: no lock files at all
        # A long-lived daemon prunes after every job; the keys it stores
        # keep changing, but the lock files must not pile up.
        cache = ModuleCache(str(tmp_path))
        for i in range(600):
            cache.store(fingerprint_source(str(i)), {"i": i})
        cache.prune(0)
        assert cache._object_entries() == []
        assert len(os.listdir(os.path.join(cache.root, "locks"))) <= 256

    def test_under_budget_is_a_noop(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        _entry(cache, "aa" * 32)
        assert cache.prune(1 << 30) == 0
        assert cache.stats.evictions == 0
        assert cache.load("aa" * 32) is not None

    def test_quarantine_is_reclaimed(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        key = "ee" * 32
        cache.store(key, {"ok": True})
        with open(cache._path(key), "wb") as fh:
            fh.write(b"corrupt bytes")
        assert cache.load(key) is None           # quarantines the entry
        assert os.path.exists(cache._quarantine_path(key))
        removed = cache.prune(1 << 30)
        assert removed == 1
        assert cache.stats.quarantine_reclaimed == 1
        assert not os.path.exists(cache._quarantine_path(key))

    def test_stale_tmp_reaped_live_writer_spared(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        _entry(cache, "aa" * 32)
        shard = tmp_path / "objects" / "aa"
        stale = shard / "crashed-writer.tmp"
        stale.write_bytes(b"half a pickle")     # kill -9 mid-store leftover
        os.utime(stale, (time.time() - 3600,) * 2)
        fresh = shard / "live-writer.tmp"
        fresh.write_bytes(b"still being written")
        cache.prune(1 << 30, tmp_ttl=60.0)
        assert cache.stats.tmp_reaped == 1
        assert not stale.exists()
        assert fresh.exists()                   # not deleted out from under
        assert cache.load("aa" * 32) is not None

    def test_torn_write_during_prune_window(self, tmp_path):
        """A store that tears while a prune sweeps the same shard: the
        prune must neither publish nor trip over the torn temp file, and
        the entry stays recoverable by a later healthy store."""
        plan = FaultPlan(seed=5, torn_write_rate=1.0)
        torn_cache = ModuleCache(str(tmp_path), fault_plan=plan)
        key = "ab" * 32
        assert not torn_cache.store(key, {"v": 1})
        healthy = ModuleCache(str(tmp_path))
        _entry(healthy, "cd" * 32, mtime=time.time() - 100)
        assert healthy.prune(1 << 30, tmp_ttl=0.0) == 0  # nothing stale left
        assert healthy.load(key) is None        # torn store never published
        assert healthy.store(key, {"v": 2})
        assert healthy.load(key) == {"v": 2}

    def test_quarantine_of_concurrently_evicted_entry(self, tmp_path):
        """Quarantining an entry another process already evicted must be
        a silent no-op, not an error (the corruption is gone either way)."""
        cache = ModuleCache(str(tmp_path))
        key = "ef" * 32
        cache.store(key, {"ok": True})
        path = cache._path(key)
        os.unlink(path)                         # concurrent prune got here
        cache._quarantine(key, path)            # load()'s recovery path
        assert cache.stats.quarantined == 0
        assert not os.path.exists(cache._quarantine_path(key))

    def test_eviction_races_concurrent_removal(self, tmp_path):
        """prune() must treat an entry deleted between listing and unlink
        as already evicted (count the bytes gone, no crash)."""
        cache = ModuleCache(str(tmp_path))
        now = time.time()
        _entry(cache, "aa" * 32, mtime=now - 1000)
        size_b = _entry(cache, "bb" * 32, mtime=now - 500)
        entries = cache._object_entries()
        assert len(entries) == 2
        os.unlink(cache._path("aa" * 32))       # the other process evicts
        removed = cache.prune(size_b)
        # Only bb's budget remains; aa was already gone and is not counted.
        assert cache.stats.evictions == removed
        assert cache.total_bytes() <= size_b


def _prune_into_queue(cache_dir, budget, queue):
    cache = ModuleCache(cache_dir)
    try:
        cache.prune(budget)
        queue.put(("ok", cache.stats.evictions))
    except Exception as exc:  # pragma: no cover - the failure under test
        queue.put(("error", repr(exc)))


class TestPruneContention:
    def test_two_processes_pruning_one_cache_dir(self, tmp_path):
        cache = ModuleCache(str(tmp_path))
        now = time.time()
        per_entry = None
        for i in range(12):
            key = f"{i:02x}" * 32
            per_entry = _entry(cache, key, mtime=now - 1200 + i * 10)
        budget = per_entry * 4
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_prune_into_queue,
                             args=(str(tmp_path), budget, queue))
                 for _ in range(2)]
        for p in procs:
            p.start()
        results = [queue.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
        assert [p.exitcode for p in procs] == [0, 0]
        assert all(status == "ok" for status, _ in results)
        fresh = ModuleCache(str(tmp_path))
        assert fresh.total_bytes() <= budget
        # Survivors are intact, loadable entries (no torn evictions).
        for _, _, key, _ in fresh._object_entries():
            assert fresh.load(key) is not None

    def test_prune_vs_store_contention(self, tmp_path):
        """A prune sweeping while another thread stores fresh entries:
        every published survivor must load cleanly."""
        cache = ModuleCache(str(tmp_path))
        now = time.time()
        for i in range(8):
            _entry(cache, f"{i:02x}" * 32, mtime=now - 800 + i * 10)
        budget = cache.total_bytes() // 2
        writer_keys = [f"f{i:x}" * 32 for i in range(8)]
        errors = []

        def _writer():
            try:
                other = ModuleCache(str(tmp_path))
                for key in writer_keys:
                    other.store(key, {"k": key})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=_writer)
        t.start()
        cache.prune(budget)
        t.join(timeout=30)
        assert errors == []
        fresh = ModuleCache(str(tmp_path))
        for _, _, key, _ in fresh._object_entries():
            assert fresh.load(key) is not None


class TestPruneProperty:
    """Random interleavings of store / load / corrupt / prune keep the
    cache's invariants: prune never errors, the footprint lands under
    budget, and every surviving entry loads back exactly."""

    from hypothesis import given, settings, strategies as st

    _ops = st.lists(
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, 9)),
            st.tuples(st.just("load"), st.integers(0, 9)),
            st.tuples(st.just("corrupt"), st.integers(0, 9)),
            st.tuples(st.just("prune"), st.integers(0, 4))),
        min_size=1, max_size=30)

    @given(ops=_ops)
    @settings(max_examples=30, deadline=None)
    def test_random_op_interleavings(self, ops, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("prune-prop"))
        cache = ModuleCache(root)
        expected = {}
        clock = [time.time() - 10_000]

        def _key(i):
            return f"{i:02x}" * 32

        for op, arg in ops:
            if op == "store":
                key = _key(arg)
                if cache.store(key, {"payload": arg}):
                    expected[key] = {"payload": arg}
                    clock[0] += 60
                    os.utime(cache._path(key), (clock[0], clock[0]))
            elif op == "load":
                key = _key(arg)
                value = cache.load(key)
                if key in expected and value is not None:
                    assert value == expected[key]
            elif op == "corrupt":
                key = _key(arg)
                if os.path.exists(cache._path(key)):
                    with open(cache._path(key), "wb") as fh:
                        fh.write(b"not a pickle")
                    expected.pop(key, None)
            elif op == "prune":
                budget = arg * 200
                cache.prune(budget, tmp_ttl=0.0)
                assert cache.total_bytes() <= budget or budget == 0
        # Whatever survived must round-trip bit-exactly.
        for _, _, key, _ in cache._object_entries():
            value = cache.load(key)
            if key in expected:
                assert value == expected[key] or value is None
