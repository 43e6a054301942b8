"""Content-addressed build cache for the pipeline.

Every key is a stable content hash, so any change to an input produces a
different key (never a stale hit).  The levels, from cheapest to load:

* **Module meta** — per source hash, the facts the parser records while
  it builds the module (:class:`ModuleMeta`): its imports, its class and
  closure counts, and its *interface digest*, a hash of every
  declaration an importer can observe (imports, function signatures,
  classes with their fields, inits and method signatures, globals with
  their declared types and initializers; bodies and source positions
  left out).  The metas alone yield every module key, so a probe parses
  only modules whose source is new.

* **Module LIR** — one entry per source module holding its optimized
  :class:`~repro.lir.ir.LIRModule`, its function-content key, and its
  *header* (the parsed declarations with bodies stripped).  Sema numbers
  class type ids and closure symbols *program-wide* (in module order),
  so the key covers

  - the module's source text,
  - the interface digests of its transitive imports (not their sources:
    a body-only edit to an imported module leaves its importers' keys
    alone),
  - the type-id/closure-counter bases contributed by every earlier module,
  - the frontend-tagged :class:`BuildConfig` fields, and
  - :data:`PIPELINE_CACHE_VERSION`.

  Nothing else enters: even SIL outlining, which types its helpers by
  callee signatures, reads imported callees only through what the
  interface digests cover.  A build compiles only the modules whose key
  missed; sema checks their bodies against the headers of the modules
  that hit, and the class layouts come from those headers too.

* **Function LIR** and **module machine code** — see
  :func:`function_key` and :func:`llc_key`.

* **Linked image** — the fully linked :class:`BinaryImage` (plus outlining
  stats, pass reports and class layouts), keyed by the ordered module
  keys and the backend config fields: the one record of a finished
  slice.  A warm rebuild of an unchanged program under an unchanged
  config loads the metas and this one entry and skips every compilation
  phase.  The entry holds no machine listing; a caller that asks an
  image hit for one gets it from an uncached rebuild.

Entries are pickles under ``cache_dir/objects/<k[:2]>/<k>.pkl`` written
atomically (temp file + rename, so a crashed writer can never leave a
half-written entry under a live key); a corrupted or truncated entry is
treated as a miss, quarantined out of the way, and never an error.
Mutating operations take a cross-process advisory lock (``flock`` where
available) so concurrent builds sharing one ``cache_dir`` cannot race a
store against a quarantine of the same key.  The locks are striped over
the key's first two hex digits, the same fan-out as ``objects/``, so
``locks/`` never holds more than 256 files.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import CacheCorruptionError
from repro.frontend import ast
from repro.pipeline.faults import FaultPlan

#: Bump whenever codegen output can change (invalidates every entry).
#: "2": BinaryImage grew target/layout fields; backend keys carry the
#: target fingerprint.
#: "3": function-level LIR entries and per-module machine-code entries
#: layered under the module keys (new "fn"/"mllc" namespaces; module
#: entries themselves are unchanged, but one version covers them all).
#: "4": the image entry carries class layouts and sheds its machine
#: listing into a sidecar entry, so an image hit deserializes only the
#: linked image.  (Builds no longer store the sidecar; the image entry
#: kept its shape, so that needed no bump, and a leftover sidecar is an
#: ordinary entry that prune evicts.)
#: "5": config fingerprints are rendered from the BuildConfig stage tags,
#: and per-module machine-code entries carry their merge-pass reports.
#: "6": module keys fold in the interface digests of imports instead of
#: their source hashes; metas carry the digest, module entries a header.
#: "7": module entries drop their class layouts (the registry comes from
#: the headers), and SIL outlining no longer folds a whole-program digest
#: into every module key.
#: "8": instruction identity is exact (a float compares by its bit
#: pattern), so the outliner no longer folds ``-0.0`` into ``0.0``; llc
#: and image entries hold one shared object per distinct instruction.
PIPELINE_CACHE_VERSION = "8"


def fingerprint_source(text: str) -> str:
    """Stable content hash of one module's source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# --- module metadata (what a module contributes to other modules' keys) -----


@dataclass(frozen=True)
class ModuleMeta:
    """Syntactic facts needed to compute another module's cache key."""

    imports: Tuple[str, ...]
    class_count: int
    closure_count: int
    #: The parser's interface digest (see :attr:`ast.Module.interface`).
    interface: str


def meta_from_ast(module: ast.Module) -> ModuleMeta:
    """The facts the parser recorded while it built *module*."""
    return ModuleMeta(imports=tuple(module.imports),
                      class_count=len(module.classes),
                      closure_count=module.closure_count,
                      interface=module.interface)


# --- key computation ---------------------------------------------------------


def _transitive_imports(name: str, metas: Dict[str, ModuleMeta],
                        order: Sequence[str]) -> List[str]:
    """Transitive import closure of ``name``, in program order."""
    seen = {name}
    stack = list(metas[name].imports)
    while stack:
        dep = stack.pop()
        if dep in seen or dep not in metas:
            continue
        seen.add(dep)
        stack.extend(metas[dep].imports)
    seen.discard(name)
    return [m for m in order if m in seen]


def module_keys(items: Sequence[Tuple[str, str]],
                hashes: Dict[str, str],
                metas: Dict[str, ModuleMeta],
                frontend_fingerprint: str) -> List[str]:
    """Cache key per module, in program order.

    A module's code depends on its own source, on what its transitive
    imports declare (their interface digests), and on the class and
    closure counts of every earlier module (its counter bases).
    """
    order = [name for name, _ in items]
    keys: List[str] = []
    type_id_base = 0
    closure_base = 0
    for name in order:
        parts = [
            "module", PIPELINE_CACHE_VERSION, frontend_fingerprint,
            f"bases:{type_id_base}:{closure_base}",
            f"self:{name}={hashes[name]}",
        ]
        parts.extend(f"dep:{dep}={metas[dep].interface}"
                     for dep in _transitive_imports(name, metas, order))
        keys.append(_digest(*parts))
        type_id_base += metas[name].class_count
        closure_base += metas[name].closure_count
    return keys


def meta_key(source_hash: str) -> str:
    return _digest("meta", PIPELINE_CACHE_VERSION, source_hash)


def image_key(mod_keys: Sequence[str], backend_fingerprint: str) -> str:
    return _digest("image", PIPELINE_CACHE_VERSION, backend_fingerprint,
                   *mod_keys)


def function_key(frontend_fingerprint: str, fn_digest: str,
                 callees_digest: str, interns_digest: str) -> str:
    """Cache key for one function's optimized LIR.

    Deliberately *not* derived from the module key: an edit that changes a
    module's source changes its module key, but every untouched function in
    it keeps its function key and its cached LIR.  Self-validating inputs:

    * ``fn_digest`` — the function's own post-sema SIL (rendered body plus
      the signature facts ``render`` omits: param temps/types, return type,
      bareness, source module);
    * ``callees_digest`` — the signatures of every symbol the function
      applies (irgen consults callee param/return types for float-ness);
    * ``interns_digest`` — the owning module's ordered string-intern table
      (``.strN`` symbol numbering is shared module-wide).
    """
    return _digest("fn", PIPELINE_CACHE_VERSION, frontend_fingerprint,
                   fn_digest, callees_digest, interns_digest)


def llc_key(module_key: str, llc_fingerprint: str) -> str:
    """Cache key for one module's compiled machine code (post-llc).

    Keyed by the module's LIR key plus only the llc-tagged config fields —
    link-tagged fields (layout, profile) are excluded so a layout flip
    re-links cached machine modules without re-running llc.
    """
    return _digest("mllc", PIPELINE_CACHE_VERSION, llc_fingerprint,
                   module_key)


# --- on-disk store -----------------------------------------------------------


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-pipeline-cache")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    #: Corrupt entries moved to ``quarantine/`` instead of being served.
    quarantined: int = 0
    #: Stores that never reached the rename (crash / injected torn write).
    torn_writes: int = 0
    #: Advisory-lock acquisitions that had to wait or were skipped.
    lock_failures: int = 0
    #: Entries removed by :meth:`ModuleCache.prune` (LRU-by-mtime).
    evictions: int = 0
    evicted_bytes: int = 0
    #: Quarantined entries reclaimed by the quarantine GC.
    quarantine_reclaimed: int = 0
    #: Stale ``*.tmp`` files (crashed writers) reaped during prune.
    tmp_reaped: int = 0


class ModuleCache:
    """Pickle store addressed by content key; loads are always fresh objects.

    Downstream passes mutate LIR in place, so every hit must hand back an
    independent copy — unpickling guarantees that.

    Recovery behaviour (every action counted in :class:`CacheStats`):

    * a missing entry is a miss;
    * an unreadable entry is a miss *and* is atomically quarantined to
      ``cache_dir/quarantine/`` so it cannot fail again on every build
      (and stays available for post-mortem inspection);
    * a store that cannot complete is dropped — the temp file is removed
      and the previous entry (if any) stays intact, because the rename is
      the only step that publishes a key.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.root = cache_dir or default_cache_dir()
        self.stats = CacheStats()
        self.fault_plan = fault_plan

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.pkl")

    def _quarantine_path(self, key: str) -> str:
        return os.path.join(self.root, "quarantine", f"{key}.pkl")

    @contextmanager
    def _locked(self, key: str) -> Iterator[None]:
        """Cross-process advisory lock for mutations of ``key``.

        One lock file per stripe, ``locks/<key[:2]>.lock``: every key in a
        stripe shares its lock, which orders each key's stores,
        quarantines and evictions as a per-key lock would, and the files
        are made once instead of once per key.  No caller holds two locks
        at a time.  When the platform has no ``flock`` the section simply
        runs unlocked (the rename-based store is still atomic, only
        quarantine-vs-store ordering loses its guarantee).
        """
        if fcntl is None:
            yield
            return
        lock_dir = os.path.join(self.root, "locks")
        os.makedirs(lock_dir, exist_ok=True)
        lock_path = os.path.join(lock_dir, f"{key[:2]}.lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.stats.lock_failures += 1
                fcntl.flock(fd, fcntl.LOCK_EX)  # wait our turn
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _quarantine(self, key: str, path: str) -> None:
        """Move a corrupt entry aside; deletion is the fallback.

        If the entry can neither be moved nor deleted it would poison
        every future build (each one re-reading, re-failing, and
        re-compiling), so that one case escalates to a typed
        :class:`~repro.errors.CacheCorruptionError`.
        """
        qpath = self._quarantine_path(key)
        try:
            os.makedirs(os.path.dirname(qpath), exist_ok=True)
            os.replace(path, qpath)
            self.stats.quarantined += 1
        except OSError:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # someone else already recovered it
            except OSError as exc:
                raise CacheCorruptionError(
                    f"corrupt cache entry {key[:16]}... is stuck at {path} "
                    f"(cannot quarantine or delete): {exc}") from exc

    def load(self, key: str) -> Optional[object]:
        """Return the stored payload, or None (miss / quarantined corrupt
        entry).  Raises CacheCorruptionError only if a corrupt entry is
        stuck on disk (cannot be moved or removed)."""
        path = self._path(key)
        if (self.fault_plan is not None
                and self.fault_plan.should_fire("cache_corrupt",
                                                f"load:{key}")):
            _scramble_entry(path)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated/corrupted entry: recover by quarantining it so the
            # next build repopulates the key instead of re-failing forever.
            self.stats.errors += 1
            self.stats.misses += 1
            with self._locked(key):
                self._quarantine(key, path)
            return None
        self.stats.hits += 1
        try:
            # Touch on hit so prune()'s LRU-by-mtime tracks recency of
            # *use*, not recency of store.
            os.utime(path)
        except OSError:
            pass
        return payload

    def store(self, key: str, payload: object) -> bool:
        """Atomically persist ``payload``; failures are non-fatal."""
        path = self._path(key)
        torn = (self.fault_plan is not None
                and self.fault_plan.should_fire("torn_write", f"store:{key}"))
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with self._locked(key):
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                           suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        blob = pickle.dumps(payload,
                                            protocol=pickle.HIGHEST_PROTOCOL)
                        if torn:
                            # Simulate a crash mid-write: half the bytes
                            # land, the rename never happens, and the key
                            # is never published.
                            fh.write(blob[:max(1, len(blob) // 2)])
                            self.stats.torn_writes += 1
                            return False
                        fh.write(blob)
                    os.replace(tmp, path)
                    tmp = None
                finally:
                    if tmp is not None:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
        except Exception:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    # -- bounded-size maintenance (long-lived daemons) ----------------------

    def _object_entries(self) -> List[Tuple[float, int, str, str]]:
        """Every published entry as ``(mtime, size, key, path)``."""
        entries: List[Tuple[float, int, str, str]] = []
        objects = os.path.join(self.root, "objects")
        try:
            shards = os.listdir(objects)
        except OSError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(objects, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # concurrently removed
                entries.append((st.st_mtime, st.st_size, name[:-4], path))
        return entries

    def total_bytes(self) -> int:
        """Bytes currently held by published entries."""
        return sum(size for _, size, _, _ in self._object_entries())

    def _reap_stale_tmp(self, tmp_ttl: float) -> None:
        """Remove ``*.tmp`` leftovers older than ``tmp_ttl`` seconds.

        Only a writer killed between ``mkstemp`` and the rename leaves
        one; the age threshold keeps us from deleting a live writer's
        file out from under it.
        """
        now = _time.time()
        objects = os.path.join(self.root, "objects")
        try:
            shards = os.listdir(objects)
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(objects, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    if now - os.stat(path).st_mtime < tmp_ttl:
                        continue
                    os.unlink(path)
                    self.stats.tmp_reaped += 1
                except OSError:
                    pass

    def _gc_quarantine(self) -> None:
        """Reclaim every file in ``quarantine/``."""
        qdir = os.path.join(self.root, "quarantine")
        try:
            names = os.listdir(qdir)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(qdir, name))
                self.stats.quarantine_reclaimed += 1
            except OSError:
                pass

    def prune(self, max_bytes: int, *, tmp_ttl: float = 300.0) -> int:
        """Bound the cache's disk footprint; returns files removed.

        Three sweeps, all safe against concurrent builds sharing the
        cache dir:

        * published entries are evicted **LRU-by-mtime** (loads touch
          their entry, so mtime is recency-of-use) until the total is
          at most ``max_bytes`` — each removal holds the lock that
          stores and quarantines of its key take, so a prune can never
          race a store into deleting a freshly published entry's temp
          file or vice versa;
        * every quarantined entry is reclaimed (a long-lived daemon
          cannot keep corpses around for post-mortems forever);
        * stale ``*.tmp`` files from crashed writers older than
          ``tmp_ttl`` seconds are reaped.

        Eviction is never an error: a concurrently removed or relocked
        entry is simply skipped.  Removed entries are misses on the next
        load, which rebuilds and republishes them.
        """
        removed_before = (self.stats.evictions
                         + self.stats.quarantine_reclaimed
                         + self.stats.tmp_reaped)
        self._reap_stale_tmp(tmp_ttl)
        self._gc_quarantine()
        entries = self._object_entries()
        total = sum(size for _, size, _, _ in entries)
        for _, size, key, path in sorted(entries):
            if total <= max_bytes:
                break
            try:
                with self._locked(key):
                    os.unlink(path)
            except FileNotFoundError:
                total -= size  # someone else evicted it; count it gone
                continue
            except OSError:
                continue
            self.stats.evictions += 1
            self.stats.evicted_bytes += size
            total -= size
        return (self.stats.evictions + self.stats.quarantine_reclaimed
                + self.stats.tmp_reaped) - removed_before


def _scramble_entry(path: str) -> None:
    """Corrupt an on-disk entry in place (fault injection only)."""
    try:
        with open(path, "r+b") as fh:
            fh.truncate(max(1, os.path.getsize(path) // 3))
            fh.seek(0)
            fh.write(b"\x80\x05corrupt")
    except OSError:
        pass
