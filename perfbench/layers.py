"""Outside-in per-layer timing for the benchmark's traced runs.

The tracer never edits the program and never reads the program's own
``Tracer`` or ``BuildReport.phase_wall``.  While a :meth:`LayerTracer.record`
block is open it replaces each layer's public entry points -- the module
attributes and methods the pipeline calls -- with timing wrappers, and puts
the originals back when the block closes, so untraced operations run the
unmodified code.

A layer's self time is the duration of its calls minus the wrapped calls
nested inside them (of any layer).  Work the wrappers do to take counts
(file sizes, pickled payload sizes) is timed separately and excluded from
every layer, so it lands in the tracing overhead rather than in a layer.
Worker processes run outside the parent's clock: their work is inside the
``pipeline.parallel`` call that waited for it.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer, in pipeline order.  Each reports ``<layer>.calls`` and
#: ``<layer>.self_s``.
LAYERS = (
    "frontend.parse", "frontend.sema",
    "sil.silgen", "sil.arc_opt",
    "lir.irgen", "lir.osize", "lir.wp_opt", "lir.llvm_link",
    "lir.optmerge", "lir.mergefunctions", "lir.globaldce",
    "backend.llc", "outliner.round",
    "link.strip", "link.link", "link.verify",
    "pipeline.cache.load", "pipeline.cache.store", "pipeline.fncache",
    "pipeline.parallel", "sim.run",
)

#: Counts taken at the layer boundaries: name -> unit.
COUNTS = {
    "lir.optmerge.total_s": "s",
    "lir.optmerge.groups_considered": "count",
    "lir.optmerge.functions_merged": "count",
    "backend.llc.functions": "count",
    "outliner.candidates": "count",
    "outliner.sequences_outlined": "count",
    "outliner.bytes_saved": "B",
    "pipeline.cache.load.hits": "count",
    "pipeline.cache.load.bytes": "B",
    "pipeline.cache.store.bytes": "B",
    "pipeline.parallel.chunks": "count",
    "pipeline.parallel.payload_bytes": "B",
    "pipeline.parallel.degradations": "count",
    "sim.instrs": "instr",
    "sim.outlined_instrs": "instr",
}


class Sample:
    """What one recorded operation did, per layer."""

    def __init__(self, label: str):
        self.label = label
        self.wall = 0.0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Time the wrappers spent taking counts (excluded from layers).
        self.instrument_s = 0.0

    @property
    def unattributed_s(self) -> float:
        """Wall time inside no wrapped call (driver glue, hashing, ...)."""
        return (self.wall - sum(self.self_s.values())
                - self.instrument_s)

    def rescale(self, factor: float) -> None:
        """Multiply every time by *factor* (the run's speed scaling)."""
        self.wall *= factor
        self.instrument_s *= factor
        for key in self.self_s:
            self.self_s[key] *= factor
        for key in self.counts:
            if key.endswith("_s"):
                self.counts[key] *= factor

    def merged(self, other: "Sample", label: str) -> "Sample":
        out = Sample(label)
        for src in (self, other):
            out.wall += src.wall
            out.instrument_s += src.instrument_s
            for key, value in src.calls.items():
                out.calls[key] += value
            for key, value in src.self_s.items():
                out.self_s[key] += value
            for key, value in src.counts.items():
                out.counts[key] += value
        return out

    def deterministic(self) -> Dict[str, float]:
        """Call counts and counts that do not depend on the clock."""
        out = {f"{layer}.calls": self.calls.get(layer, 0)
               for layer in LAYERS}
        out.update({name: self.counts.get(name, 0)
                    for name in COUNTS if not name.endswith("_s")})
        return out


# --- count extractors: (sample, args, kwargs, result) -> None ---------------


def _count_llc(sample, args, kwargs, result):
    module = args[0] if args else kwargs["module"]
    sample.counts["backend.llc.functions"] += len(module.functions)


def _count_round(sample, args, kwargs, result):
    sample.counts["outliner.candidates"] += result.candidates_considered
    sample.counts["outliner.sequences_outlined"] += result.sequences_outlined
    sample.counts["outliner.bytes_saved"] += result.bytes_saved


def _count_optmerge(sample, args, kwargs, result):
    sample.counts["lir.optmerge.groups_considered"] += result.get(
        "groups_considered", 0)
    sample.counts["lir.optmerge.functions_merged"] += result.get(
        "functions_merged", 0)


def _entry_bytes(cache, key) -> int:
    try:
        return os.path.getsize(cache._path(key))
    except OSError:
        return 0


def _count_load(sample, args, kwargs, result):
    if result is not None:
        cache, key = args[0], args[1]
        sample.counts["pipeline.cache.load.hits"] += 1
        sample.counts["pipeline.cache.load.bytes"] += _entry_bytes(cache, key)


def _count_store(sample, args, kwargs, result):
    if result:
        cache, key = args[0], args[1]
        sample.counts["pipeline.cache.store.bytes"] += _entry_bytes(cache,
                                                                    key)


def _count_chunks(sample, args, kwargs, result):
    chunks = args[2] if len(args) > 2 else kwargs["chunks"]
    sample.counts["pipeline.parallel.chunks"] += len(chunks)
    # What crosses the pipe to the workers: the self-contained payloads of
    # a persistent pool, else only the chunk lists (per-build pools inherit
    # the shared payload through fork).
    shipped = kwargs.get("chunk_payloads")
    if shipped is None:
        shipped = [tuple(chunk) for chunk in chunks]
    sample.counts["pipeline.parallel.payload_bytes"] += sum(
        len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        for item in shipped)


def _count_run(sample, args, kwargs, result):
    sample.counts["sim.instrs"] += result.steps
    sample.counts["sim.outlined_instrs"] += result.outlined_steps


#: (layer, "module:attr" or "module:Class.method", count extractor).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("frontend.parse", "repro.frontend.parser:parse_module", None),
    ("frontend.sema", "repro.frontend.sema:analyze_program", None),
    ("sil.silgen", "repro.sil.silgen:generate_sil", None),
    ("sil.arc_opt", "repro.sil.passes.arc_opt:run_on_module", None),
    ("lir.irgen", "repro.lir.irgen:ModuleIRGen.run", None),
    ("lir.irgen", "repro.lir.irgen:ModuleIRGen.lower_function", None),
    ("lir.osize", "repro.pipeline.build:optimize_module", None),
    ("lir.wp_opt", "repro.lir.passes.manager:PassManager.run", None),
    ("lir.llvm_link", "repro.lir.linker:link_modules", None),
    ("lir.optmerge", "repro.lir.passes.optmerge:run_on_module",
     _count_optmerge),
    ("lir.mergefunctions", "repro.lir.passes.mergefunctions:run_on_module",
     None),
    ("lir.globaldce", "repro.lir.passes.globaldce:run_on_module", None),
    ("backend.llc", "repro.backend.llc:run_llc", _count_llc),
    ("backend.llc", "repro.backend.llc:compile_function", None),
    ("outliner.round", "repro.outliner.repeated:run_one_round",
     _count_round),
    ("link.strip", "repro.lir.passes.globaldce:strip_program", None),
    ("link.link", "repro.link.linker:link_binary", None),
    ("link.verify", "repro.link.verify:verify_image", None),
    ("pipeline.cache.load", "repro.pipeline.cache:ModuleCache.load",
     _count_load),
    ("pipeline.cache.store", "repro.pipeline.cache:ModuleCache.store",
     _count_store),
    ("pipeline.fncache", "repro.pipeline.fncache:module_function_keys", None),
    ("pipeline.fncache", "repro.pipeline.fncache:module_content_key", None),
    ("pipeline.parallel", "repro.pipeline.parallel:run_chunks",
     _count_chunks),
    ("sim.run", "repro.sim.cpu:run_binary", _count_run),
)

#: Layers whose inclusive time is reported too (``<layer>.total_s``).
_TOTAL_TIME = {"lir.optmerge"}


def _is_wholeprogram_pass_run(args) -> bool:
    # PassManager also runs the per-module -Osize cleanups, which are timed
    # as ``lir.osize`` through optimize_module.
    return getattr(args[0], "scope", None) == "wholeprogram"


class LayerTracer:
    """Installs timing wrappers on the layer entry points while recording."""

    def __init__(self) -> None:
        self._sample: Optional[Sample] = None
        #: One accumulator per open wrapped call: time of nested calls.
        self._stack: List[List[float]] = []

    @staticmethod
    def _resolve():
        """(owner, attribute, original, layer, counter) for every binding.

        A function imported by name (``from m import f``) is a separate
        binding in each importing module; every loaded ``repro`` module
        holding the same object is patched, so the pipeline's call sites
        see the wrapper whichever binding they use.  Resolved afresh per
        recording, because the pipeline imports some passes lazily.
        """
        patches = []
        for layer, spec, counter in ENTRY_POINTS:
            module_name, _, attr_path = spec.partition(":")
            owner = importlib.import_module(module_name)
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                cls = getattr(owner, cls_name)
                patches.append((cls, attr, cls.__dict__[attr], layer,
                                counter))
                continue
            original = getattr(owner, attr_path)
            for name, module in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, binding, original, layer,
                                        counter))
        return patches

    def _wrap(self, fn, layer: str, counter: Optional[Callable]):
        tracer = self
        clock = time.perf_counter
        wholeprogram_only = layer == "lir.wp_opt"

        def wrapper(*args, **kwargs):
            sample = tracer._sample
            if sample is None or (wholeprogram_only
                                  and not _is_wholeprogram_pass_run(args)):
                return fn(*args, **kwargs)
            nested = [0.0]
            tracer._stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._stack.pop()
                sample.calls[layer] += 1
                sample.self_s[layer] += elapsed - nested[0]
                if layer in _TOTAL_TIME:
                    sample.counts[f"{layer}.total_s"] += elapsed
            if counter is not None:
                t0 = clock()
                counter(sample, args, kwargs, result)
                spent = clock() - t0
                sample.instrument_s += spent
                elapsed += spent
            if tracer._stack:
                tracer._stack[-1][0] += elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def record(self, label: str) -> Iterator[Sample]:
        """Time one operation per layer; the wrappers exist only inside."""
        sample = Sample(label)
        installed = []
        for owner, attr, original, layer, counter in self._resolve():
            setattr(owner, attr, self._wrap(original, layer, counter))
            installed.append((owner, attr, original))
        self._sample = sample
        start = time.perf_counter()
        try:
            yield sample
        finally:
            sample.wall = time.perf_counter() - start
            self._sample = None
            self._stack.clear()
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)
