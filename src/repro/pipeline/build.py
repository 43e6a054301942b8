"""Build drivers for the default (Figure 2) and whole-program (Figure 10)
iOS pipelines.

``build_targets`` runs every build: source modules in, one linked
:class:`BinaryImage` per target out, plus the artifacts each experiment
needs (LIR, machine modules, outlining statistics, size report).
``build_program`` is its one-target form.

The driver is incremental and parallel (§VII-C is about exactly this cost):

* with ``BuildConfig.incremental`` it consults a content-addressed cache
  (:mod:`repro.pipeline.cache`) — per-module optimized LIR and the fully
  linked image among its levels — so rebuilding an unchanged program
  skips everything after source hashing, and any other build takes one
  frontend path whatever hit: it parses, checks and lowers only the
  modules whose key missed, and inside those relowers only the functions
  whose function key missed;
* with ``BuildConfig.workers > 1`` per-module lowering (SIL -> LIR, and
  per-module llc in the default pipeline) fans out across forked worker
  processes (:mod:`repro.pipeline.parallel`), partly cached modules
  included.

Both features are required to be **bit-identical** to a cold serial build
(same image bytes, same outlining statistics); the determinism test
harness under ``tests/property`` enforces it.
"""

from __future__ import annotations

import contextlib
import gc
import pickle
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.backend.llc import LLCOptions, run_llc
from repro.errors import ReproError
from repro.frontend import ast
from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.isa.instructions import MachineModule
from repro.lir import ir as lir_ir
from repro.lir.linker import LinkOptions, link_modules
from repro.lir.passes.manager import PassManager, osize_pipeline
from repro.obs import trace as obs_trace
from repro.link.binary import BinaryImage
from repro.link.linker import link_binary
from repro.link.verify import verify_image
from repro.pipeline import cache as cache_mod
from repro.pipeline import fncache
from repro.pipeline import parallel
from repro.pipeline.cache import ModuleCache
from repro.pipeline.cancel import checkpoint
from repro.pipeline.config import BuildConfig
from repro.pipeline.report import BuildReport
from repro.runtime.objects import TypeRegistry
from repro.sil.silgen import generate_sil, program_signatures

SourceModules = Union[Dict[str, str], Sequence[Tuple[str, str]]]


@dataclass
class SizeReport:
    text_bytes: int = 0
    data_bytes: int = 0
    metadata_bytes: int = 0
    binary_bytes: int = 0
    num_functions: int = 0
    num_instrs: int = 0

    @classmethod
    def from_image(cls, image: BinaryImage) -> "SizeReport":
        return cls(
            text_bytes=image.text_bytes,
            data_bytes=image.data_bytes,
            metadata_bytes=image.metadata_bytes,
            binary_bytes=image.binary_bytes,
            num_functions=image.num_functions,
            num_instrs=len(image.instrs),
        )


@dataclass
class BuildResult:
    image: BinaryImage
    registry: TypeRegistry
    config: BuildConfig
    #: The per-module machine IR, or a zero-argument function that makes
    #: it: an image-cache hit holds no listing, so the first read of
    #: :attr:`machine_modules` (disasm, the pattern miner) compiles it
    #: again with an uncached build of the same sources.  Builds are
    #: deterministic, so that listing is the one the image was linked
    #: from, whatever the cache holds by then.
    machine_listing: Union[List[MachineModule],
                           Callable[[], List[MachineModule]]] = field(
        default_factory=list)
    outline_stats: List[object] = field(default_factory=list)
    #: Per-phase work counts for the build-time model (§VII-C).
    phase_work: Dict[str, int] = field(default_factory=dict)
    #: Measured phase wall times + cache/parallel telemetry.
    report: BuildReport = field(default_factory=BuildReport)
    _sizes: Optional[SizeReport] = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def sizes(self) -> SizeReport:
        # The image is immutable once linked; compute the report once.
        if self._sizes is None:
            self._sizes = SizeReport.from_image(self.image)
        return self._sizes

    @property
    def machine_modules(self) -> List[MachineModule]:
        if callable(self.machine_listing):
            self.machine_listing = self.machine_listing()
        return self.machine_listing


def optimize_module(module: lir_ir.LIRModule) -> None:
    """The standard -Osize scalar cleanup pipeline (opt analog)."""
    PassManager(osize_pipeline()).run(module)


def _merge_passes(config: BuildConfig, per_module: bool = False):
    """The ``merge_mode`` pass stage.

    Runs *after* the scalar cleanup passes: the optimistic merger prices
    candidates by compiling them, so it must see exactly the LIR that llc
    will compile.  ``per_module`` namespaces merged-body symbols by module
    (the default pipeline's llc does the same for outlined functions).
    """
    if config.merge_mode == "exact":
        from repro.lir.passes import mergefunctions

        return [("mergefunctions", mergefunctions.run_on_module)]
    if config.merge_mode == "optimistic":
        from repro.lir.passes import optmerge

        def run(module: lir_ir.LIRModule):
            prefix = f"{module.name}::" if per_module else ""
            return optmerge.run_on_module(module, target=config.target,
                                          symbol_prefix=prefix)

        return [("optmerge", run)]
    return []


def _wholeprogram_passes(config: BuildConfig):
    """The merged-IR -Osize sequence (order matters; see Figure 10)."""
    from repro.lir.passes import constprop, dce, globaldce, simplifycfg

    passes = []
    if config.global_dce:
        passes.append(("globaldce", globaldce.run_on_module))
    if config.enable_inliner:
        from repro.lir.passes import inliner

        passes.append(("inliner", inliner.run_on_module))
        if config.global_dce:
            passes.append(("globaldce", globaldce.run_on_module))
    if config.enable_fmsa:
        from repro.lir.passes import fmsa

        passes.append(("fmsa", fmsa.run_on_module))
    passes.extend([
        ("constprop", constprop.run_on_module),
        ("dce", dce.run_on_module),
        ("simplifycfg", simplifycfg.run_on_module),
    ])
    passes.extend(_merge_passes(config))
    return passes


def _strip_stage(result: "BuildResult", config: BuildConfig,
                 report: BuildReport, entry: Optional[str]) -> None:
    """Link-time whole-program stripping (``BuildConfig.strip``).

    Runs on the assembled machine modules in both pipeline shapes, right
    before the system link — the one point where every function that will
    reach __text (including outlined bodies and merge thunks) exists and
    nothing has been laid out yet.
    """
    if config.strip == "off":
        return
    from repro.lir.passes import globaldce
    from repro.target import get_target

    with report.phase("strip"):
        stats = globaldce.strip_program(result.machine_modules, entry,
                                        get_target(config.target))
    report.pass_reports["strip"] = {
        "functions_removed": stats.functions_removed,
        "bytes_removed": stats.bytes_removed,
        "per_module": {name: dict(counts)
                       for name, counts in stats.per_module.items()},
    }


def build_lir_modules(lir_modules: List[lir_ir.LIRModule],
                      config: BuildConfig,
                      registry: Optional[TypeRegistry] = None,
                      report: Optional[BuildReport] = None,
                      module_keys: Optional[List[str]] = None,
                      cache: Optional[ModuleCache] = None) -> BuildResult:
    """Lower already-optimized LIR modules to a linked binary.

    With ``module_keys``/``cache`` (the incremental build path), the
    default pipeline also caches each module's *machine code* under
    :func:`repro.pipeline.cache.llc_key`, so modules whose LIR key and
    llc-relevant config are unchanged skip inlining/merging/llc entirely
    and only re-link.
    """
    registry = registry or TypeRegistry()
    report = report if report is not None else _slice_report(
        BuildReport(num_modules=len(lir_modules)), config)
    entry = None
    for module in lir_modules:
        if module.entry_symbol:
            entry = module.entry_symbol
    result = BuildResult(image=None,  # type: ignore[arg-type]
                         registry=registry, config=config, report=report)
    checkpoint(config.cancel_scope, "backend start")
    if config.pipeline == "wholeprogram":
        with report.phase("llvm-link"):
            merged = link_modules(
                lir_modules,
                LinkOptions(data_layout=config.data_layout))
        with report.phase("opt"):
            # Whole-program opt over the merged IR, with per-pass spans
            # and instruction/function deltas recorded by the manager.
            reports = PassManager(_wholeprogram_passes(config),
                                  scope="wholeprogram").run(merged)
            for name in ("inliner", "mergefunctions", "fmsa", "optmerge"):
                if name in reports:
                    report.pass_reports[name] = reports[name]
        result.phase_work["llvm-link"] = merged.num_instrs
        result.phase_work["opt"] = merged.num_instrs
        # llc lowers the pre-outlining program; record its work before the
        # outliner shrinks it (the build-time model depends on this).
        result.phase_work["llc"] = merged.num_instrs
        checkpoint(config.cancel_scope, "llc")
        with report.phase("llc"):
            llc_out = run_llc(merged, LLCOptions(
                outline_rounds=config.outline_rounds,
                target=config.target))
        result.machine_listing = [llc_out.module]
        result.outline_stats = llc_out.outline_stats
    elif config.pipeline == "default":
        n = len(lir_modules)
        llc_keys: Optional[List[str]] = None
        llc_hits: Dict[int, object] = {}
        # module index -> its merge-stage pass reports, cached with its
        # machine code so a warm build sums the same totals as a cold one.
        merge_reports: Dict[int, Dict[str, dict]] = {}
        if (cache is not None and module_keys is not None
                and len(module_keys) == n):
            llc_fp = config.llc_fingerprint()
            llc_keys = [cache_mod.llc_key(mk, llc_fp) for mk in module_keys]
            with report.phase("llc-cache-probe"):
                for i, key in enumerate(llc_keys):
                    llc_entry = cache.load(key)
                    if _valid_llc_entry(llc_entry):
                        llc_hits[i] = llc_entry["llc_out"]
                        merge_reports[i] = llc_entry["merge_reports"]
            report.llc_cache_hits = len(llc_hits)
            report.llc_cache_misses = n - len(llc_hits)
        missed = [i for i in range(n) if i not in llc_hits]
        miss_modules = [lir_modules[i] for i in missed]
        merge_stack = _merge_passes(config, per_module=True)
        if (config.enable_inliner or merge_stack) and miss_modules:
            with report.phase("opt"):
                if config.enable_inliner:
                    from repro.lir.passes import inliner

                    for module in miss_modules:
                        inliner.run_on_module(module)
                for i in missed:
                    # Merging is per-module here (mirroring per-module llc);
                    # the manager still records spans and deltas per run.
                    merge_reports[i] = PassManager(
                        merge_stack, scope="module").run(lir_modules[i])
        for name, _ in merge_stack:
            agg = report.pass_reports[name] = {}
            for i in range(n):
                for key, value in merge_reports[i][name].items():
                    agg[key] = agg.get(key, 0) + value
        checkpoint(config.cancel_scope, "llc")
        with report.phase("llc"):
            outputs = parallel.llc_modules(miss_modules, config, report)
            if llc_keys is not None:
                for j, i in enumerate(missed):
                    cache.store(llc_keys[i], {
                        "llc_out": outputs[j],
                        "merge_reports": merge_reports.get(i, {})})
            by_index = dict(zip(missed, outputs))
            by_index.update(llc_hits)
            for i in range(n):
                llc_out = by_index[i]
                result.machine_modules.append(llc_out.module)
                result.outline_stats.extend(llc_out.outline_stats)
        result.phase_work["llc"] = sum(
            m.num_instrs for m in result.machine_modules)
    else:
        raise ReproError(f"unknown pipeline {config.pipeline!r}")
    checkpoint(config.cancel_scope, "link")
    _strip_stage(result, config, report, entry)
    layout_profile = None
    if config.profile_path is not None:
        # Typed ProfileError on junk; loaded once here so the linker (which
        # cannot import repro.sim without a cycle) just sees edge weights.
        from repro.sim.profile import LayoutProfile

        layout_profile = LayoutProfile.load(config.profile_path)
    with report.phase("link"):
        result.image = link_binary(result.machine_modules, entry_symbol=entry,
                                   target=config.target,
                                   layout=config.layout,
                                   layout_profile=layout_profile,
                                   layout_seed=config.layout_seed)
    result.phase_work["link"] = len(result.image.instrs)
    return result


# --- cached / parallel frontend ----------------------------------------------


def _valid_module_entry(entry: object) -> bool:
    return (isinstance(entry, dict)
            and isinstance(entry.get("lir"), lir_ir.LIRModule)
            and isinstance(entry.get("fnsig"), str)
            and isinstance(entry.get("header"), ast.Module))


def _apply_sil_passes(sil_modules, signatures, config: BuildConfig) -> None:
    """The SIL passes.  SIL outlining types its helpers against
    *signatures* (header stubs stand in for the modules that hit) and
    adds each helper it creates to the table."""
    from repro.sil.passes import arc_opt

    for sm in sil_modules:
        arc_opt.run_on_module(sm)
    if config.enable_sil_outlining:
        from repro.sil.passes import outline as sil_outline

        for sm in sil_modules:
            sil_outline.run_on_module(sm, signatures=signatures)


@dataclass
class _ProbeState:
    """Cheap per-module identity, computed before any entry is loaded:
    the module keys.  Enough to form the image key — so a fully-warm
    build can hit the whole-image entry without deserializing per-module
    LIR."""

    keys: List[str]
    #: The modules whose meta missed, already parsed.
    parsed: Dict[str, ast.Module]


def _parse(name: str, text: str, report: BuildReport) -> ast.Module:
    """One module's parse, billed to the ``parse`` phase (one span each)."""
    with report.phase("parse"):
        return parse_module(text, name)


def _probe_modules(items: List[Tuple[str, str]], config: BuildConfig,
                   cache: ModuleCache, report: BuildReport) -> _ProbeState:
    hashes = {name: cache_mod.fingerprint_source(text)
              for name, text in items}
    metas: Dict[str, cache_mod.ModuleMeta] = {}
    with report.phase("cache-probe"):
        for name, _ in items:
            meta = cache.load(cache_mod.meta_key(hashes[name]))
            if isinstance(meta, cache_mod.ModuleMeta):
                metas[name] = meta
    parsed = {name: _parse(name, text, report)
              for name, text in items if name not in metas}
    if parsed:
        with report.phase("cache-store"):
            for name, module in parsed.items():
                metas[name] = cache_mod.meta_from_ast(module)
                cache.store(cache_mod.meta_key(hashes[name]), metas[name])
    with report.phase("cache-probe"):
        keys = cache_mod.module_keys(items, hashes, metas,
                                     config.frontend_fingerprint())
    return _ProbeState(keys=keys, parsed=parsed)


def _frontend(items: List[Tuple[str, str]], config: BuildConfig,
              cache: Optional[ModuleCache],
              report: BuildReport,
              probe: Optional[_ProbeState] = None) -> "ProgramArtifact":
    """Sources -> optimized per-module LIR, using the cache and workers;
    *report* becomes the artifact's ``frontend_report``.

    One path, whatever hit: only the modules whose key missed are
    parsed, checked, SIL-generated and lowered, and sema checks their
    bodies against the headers the hit modules' entries carry.  An
    uncached build is the case where every module misses; a build where
    every module hit runs sema over headers alone, for the registry.
    """
    names = [name for name, _ in items]
    parsed: Dict[str, ast.Module] = {}
    keys: Optional[List[str]] = None
    cached: Dict[str, dict] = {}

    if cache is not None:
        if probe is None:
            probe = _probe_modules(items, config, cache, report)
        parsed = probe.parsed
        keys = probe.keys
        with report.phase("cache-probe"):
            for name, key in zip(names, keys):
                entry = cache.load(key)
                if _valid_module_entry(entry):
                    cached[name] = entry  # type: ignore[assignment]
        report.cache_hits = len(cached)
        report.cache_misses = len(names) - len(cached)

    # Parse, check and generate SIL for the misses only.  A hit module
    # enters sema as its cached header, so the misses resolve their
    # imports, type ids and closure numbers exactly as in a cold build.
    misses = [name for name in names if name not in cached]
    for name, text in items:
        if name not in cached and name not in parsed:
            parsed[name] = _parse(name, text, report)
    headers = ({name: parsed[name].header() for name in misses}
               if cache is not None else {})
    with report.phase("sema"):
        program = analyze_program([
            cached[name]["header"] if name in cached else parsed[name]
            for name in names])
    with report.phase("silgen"):
        sil_modules = generate_sil(program)
        signatures = program_signatures(program, sil_modules)
        _apply_sil_passes(sil_modules, signatures, config)
    sil_by_name = {sm.name: sm for sm in sil_modules}

    # Function level: inside each module-level miss, probe for per-function
    # LIR so a one-function edit relowers one function.  The keys are
    # self-validating (own SIL + callee signatures + the module's intern
    # table; see :mod:`repro.pipeline.fncache`), so they survive the module
    # key changing.
    fn_hits: Dict[str, Dict[str, lir_ir.LIRFunction]] = {}
    fn_key_map: Dict[str, List[Tuple[object, str]]] = {}
    content_keys: Dict[str, str] = {}
    if cache is not None:
        with report.phase("fn-cache-probe"):
            ffp = config.frontend_fingerprint()
            total_fns = 0
            for name in misses:
                pairs = fncache.module_function_keys(
                    sil_by_name[name], signatures, ffp)
                fn_key_map[name] = pairs
                content_keys[name] = fncache.module_content_key(
                    sil_by_name[name], [key for _, key in pairs])
                total_fns += len(pairs)
                hits: Dict[str, lir_ir.LIRFunction] = {}
                for silfn, key in pairs:
                    entry = cache.load(key)
                    if isinstance(entry, lir_ir.LIRFunction):
                        hits[silfn.symbol] = entry
                if hits:
                    fn_hits[name] = hits
            for name in names:
                if name in cached:
                    content_keys[name] = cached[name]["fnsig"]
        report.fn_cache_hits = sum(len(h) for h in fn_hits.values())
        report.fn_cache_misses = total_fns - report.fn_cache_hits

    with report.phase("lower"):
        lowered = parallel.lower_modules(sil_by_name, signatures, fn_hits,
                                         config, report)
    report.functions_recompiled = sum(
        len(sm.functions) - len(fn_hits.get(sm.name, {}))
        for sm in sil_modules)

    if cache is not None and keys is not None:
        with report.phase("cache-store"):
            for name, key in zip(names, keys):
                if name in lowered:
                    cache.store(key, {"lir": lowered[name],
                                      "fnsig": content_keys[name],
                                      "header": headers[name]})
            for name in misses:
                hits = fn_hits.get(name, {})
                by_symbol = {fn.symbol: fn for fn in lowered[name].functions}
                for silfn, key in fn_key_map[name]:
                    if silfn.symbol not in hits:
                        cache.store(key, by_symbol[silfn.symbol])
    _note_cache_work(report, cache)

    lir_modules = [cached[name]["lir"] if name in cached else lowered[name]
                   for name in names]
    return ProgramArtifact(
        lir_modules=lir_modules, registry=TypeRegistry.from_program(program),
        llc_base_keys=([content_keys[name] for name in names]
                       if cache is not None else None),
        frontend_report=report)


def _valid_llc_entry(entry: object) -> bool:
    from repro.backend.llc import LLCResult

    return (isinstance(entry, dict)
            and isinstance(entry.get("llc_out"), LLCResult)
            and isinstance(entry.get("merge_reports"), dict))


def _valid_image_entry(entry: object) -> bool:
    return (isinstance(entry, dict)
            and isinstance(entry.get("image"), BinaryImage)
            and isinstance(entry.get("layouts"), list))


def _uncached_listing(items: List[Tuple[str, str]], config: BuildConfig
                      ) -> Callable[[], List[MachineModule]]:
    """The machine listing of an image hit, made on first read by an
    uncached one-target build of the same sources."""

    def rebuild() -> List[MachineModule]:
        uncached = replace(config, incremental=False)
        return build_targets(items, [config.target],
                             uncached)[config.target].machine_modules

    return rebuild


class _CollectorPause(contextlib.ContextDecorator):
    """Keeps CPython's cyclic garbage collector off while any build runs.

    A build allocates millions of objects and frees them all by reference
    counting (no build forms a reference cycle), so a collector left on
    only walks the growing heap, over and over, for no garbage.  The
    collector is one per process, and so is this pause: nested builds and
    concurrent builds in threads (the daemon's jobs) share one depth
    count.  The outermost entry turns the collector off if it was on; the
    outermost exit, exceptions included, collects the youngest generation
    once, so the build pays for its own allocations inside its own wall
    time, and turns it back on.  A caller that had the collector off keeps
    it off.  Pool workers forked during a build inherit the pause (see
    :func:`repro.pipeline.parallel._worker_init`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Builds currently inside, across all threads.
        self.depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self.depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self.depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self.depth -= 1
            if self.depth == 0 and self._resume:
                gc.collect(0)
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def build_program(sources: SourceModules,
                  config: Optional[BuildConfig] = None) -> BuildResult:
    """Full build: Swiftlet sources -> linked binary image for
    ``config.target`` (a one-target :func:`build_targets`)."""
    config = config or BuildConfig()
    return build_targets(sources, [config.target], config)[config.target]


def _open_cache(config: BuildConfig) -> Optional[ModuleCache]:
    return (ModuleCache(config.cache_dir, fault_plan=config.fault_plan)
            if config.incremental else None)


def _frontend_report(num_modules: int, config: BuildConfig) -> BuildReport:
    return BuildReport(num_modules=num_modules,
                       workers=parallel.resolve_workers(config.workers),
                       cache_enabled=config.incremental)


def _slice_report(frontend: BuildReport, config: BuildConfig) -> BuildReport:
    """A slice's report: a copy of its frontend run's, for *config*."""
    report = BuildReport.from_dict(frontend.as_dict())
    report.target = str(config.target)
    report.merge_mode = config.merge_mode
    report.strip_mode = config.strip
    return report


def _slice_configs(targets: Sequence[str],
                   config: BuildConfig) -> Dict[str, BuildConfig]:
    """``{target: config}`` in the order given, after the one target check
    every slice passes through."""
    names = list(targets)
    if not names:
        raise ReproError("build_targets needs at least one target")
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate targets: {', '.join(names)}")
    from repro.target import available_targets

    unknown = [n for n in names if n not in available_targets()]
    if unknown:
        raise ReproError(
            f"unknown target(s): {', '.join(unknown)} (available: "
            f"{', '.join(available_targets())})")
    return {name: (config if name == config.target
                   else replace(config, target=name))
            for name in names}


def _image_cache_probe(items: List[Tuple[str, str]], frontend: BuildReport,
                       config: BuildConfig, cache: ModuleCache,
                       img_key: str) -> Optional[BuildResult]:
    """The warm whole-image fast path: a valid image entry short-circuits
    the entire slice."""
    entry = cache.load(img_key)
    if not _valid_image_entry(entry):
        return None
    report = _slice_report(frontend, config)
    # A cache-restored image gets re-verified every time: the pickle on
    # disk, not the linker's output, is what a torn write or bit flip
    # would have damaged.
    with report.phase("verify"):
        verify_image(entry["image"], target=config.target)
    report.image_cache_hit = True
    # The image key covers every module key, so each module is warm by
    # construction.
    report.cache_hits = report.num_modules
    report.cache_misses = 0
    report.pass_reports = entry.get("pass_reports", {})
    _note_cache_work(report, cache)
    registry = TypeRegistry()
    for layout in entry["layouts"]:
        registry.register(layout)
    return BuildResult(
        image=entry["image"], registry=registry, config=config,
        machine_listing=_uncached_listing(items, config),
        outline_stats=entry.get("outline_stats", []),
        phase_work=entry.get("phase_work", {}), report=report)


def _finish_slice(artifact: "ProgramArtifact",
                  lir_modules: List[lir_ir.LIRModule], config: BuildConfig,
                  cache: Optional[ModuleCache],
                  img_key: Optional[str]) -> BuildResult:
    """One target's back half over *lir_modules*, which it consumes in
    place: target LIR passes, isel/regalloc via llc, outlining, strip,
    layout and link, then verify and the image-cache store; *cache* is
    the slice's own handle, whose work its report then counts."""
    report = _slice_report(artifact.frontend_report, config)
    with obs_trace.span("backend", kind="build", target=config.target):
        result = build_lir_modules(lir_modules, config,
                                   registry=artifact.registry, report=report,
                                   module_keys=artifact.llc_base_keys,
                                   cache=cache)
        with report.phase("verify"):
            verify_image(result.image, target=config.target)
        if cache is not None and img_key is not None:
            with report.phase("cache-store"):
                cache.store(img_key, {
                    "image": result.image,
                    "outline_stats": result.outline_stats,
                    "pass_reports": report.pass_reports,
                    "phase_work": result.phase_work,
                    # Class layouts ride along so an image hit can rebuild
                    # the runtime TypeRegistry without touching module
                    # entries.
                    "layouts": sorted(result.registry._classes.values(),
                                      key=lambda lo: lo.type_id),
                })
        _note_cache_work(report, cache)
        return result


def _note_cache_work(report: BuildReport,
                     cache: Optional[ModuleCache]) -> None:
    """Count the stores of *cache*, a handle one unit of the build's work
    used alone, on *report*, and note its recoveries there as
    degradations."""
    if cache is None:
        return
    stats = cache.stats
    report.cache_stores += stats.stores
    if stats.quarantined:
        report.degrade("cache-quarantine", phase="cache",
                       detail=f"{stats.quarantined} corrupt entr"
                              f"{'y' if stats.quarantined == 1 else 'ies'} "
                              f"quarantined")
    if stats.errors > stats.quarantined or stats.torn_writes:
        failed = stats.errors - stats.quarantined + stats.torn_writes
        report.degrade("cache-store-failed", phase="cache",
                       detail=f"{failed} cache operation(s) did not "
                              f"complete; entries will be rebuilt")


def _publish_gauges(results: Dict[str, BuildResult], frontend: BuildReport,
                    caches: List[Optional[ModuleCache]]) -> None:
    """The build's gauges, published once: ``cache.*`` total every
    handle's :class:`~repro.pipeline.cache.CacheStats` (all-zero when
    caching is off, so the metric set is stable), the function-cache
    counts are the frontend's, and ``image.*``, ``strip.*`` (whenever the
    strip pass reported), the image hits and the llc cache counts are
    summed over the slices."""
    metrics = obs_trace.metrics()
    if not metrics.enabled:
        return
    stats = [asdict(cache.stats) for cache in caches if cache is not None]
    gauges = {f"cache.{name}": sum(counts[name] for counts in stats)
              for name in asdict(cache_mod.CacheStats())}
    reports = [result.report for result in results.values()]
    gauges.update({
        "cache.enabled": int(frontend.cache_enabled),
        "cache.image_hit": sum(r.image_cache_hit for r in reports),
        "cache.fn_hits": frontend.fn_cache_hits,
        "cache.fn_misses": frontend.fn_cache_misses,
        "cache.llc_hits": sum(r.llc_cache_hits for r in reports),
        "cache.llc_misses": sum(r.llc_cache_misses for r in reports),
        "build.functions_recompiled": frontend.functions_recompiled,
    })
    gauges.update((f"image.{name}", sum(getattr(result.sizes, name)
                                        for result in results.values()))
                  for name in ("text_bytes", "data_bytes", "binary_bytes",
                               "num_functions", "num_instrs"))
    if any("strip" in r.pass_reports for r in reports):
        gauges.update({
            "strip.functions_removed": sum(r.stripped_functions
                                           for r in reports),
            "strip.bytes_removed": sum(r.stripped_bytes for r in reports),
            "strip.modules_touched": sum(len(r.strip_stats)
                                         for r in reports)})
    for name, value in gauges.items():
        metrics.set_gauge(name, value)


# --- the frontend record and app-thinning slicing ---------------------------


@dataclass
class ProgramArtifact:
    """The one record of a frontend run: everything the
    target-independent front half produced (parse -> sema -> SILGen ->
    SIL passes -> IRGen -> per-module -Osize LIR cleanups).

    :func:`build_targets` feeds one artifact to every target's back half.
    The back half mutates LIR in place (inlining, merging, llvm-link), so
    each later consumer gets its own deep copy via :meth:`lir_copy`.
    :func:`compile_frontend` returns the artifact to callers that need
    only the front half.
    """

    lir_modules: List[lir_ir.LIRModule]
    registry: TypeRegistry
    #: Per-module *content* identities (function keys + globals; see
    #: :func:`repro.pipeline.fncache.module_content_key`), the llc cache
    #: base, so downstream modules whose LIR did not change keep their
    #: machine code when an upstream module's source moves (None when
    #: caching was off).
    llc_base_keys: Optional[List[str]] = None
    #: Frontend phase walls and cache telemetry; every slice's report
    #: starts as a copy of it.
    frontend_report: BuildReport = field(default_factory=BuildReport)

    def lir_copy(self) -> List[lir_ir.LIRModule]:
        """A deep copy of the LIR for one backend consumer.

        The pickle round trip is the same mechanism the module cache
        uses, which the determinism harness pins bit-identical to
        consuming freshly lowered LIR.
        """
        return pickle.loads(pickle.dumps(self.lir_modules))


def _items(sources: SourceModules) -> List[Tuple[str, str]]:
    return (list(sources.items()) if isinstance(sources, dict)
            else [(name, text) for name, text in sources])


@_COLLECTOR_PAUSE
def compile_frontend(sources: SourceModules,
                     config: Optional[BuildConfig] = None) -> ProgramArtifact:
    """Run the target-independent front half once, to a reusable artifact.

    Honours the same cache and worker knobs as :func:`build_program`
    (``config.target`` is irrelevant here — nothing in the front half
    consults it, which is what makes the artifact shareable across
    targets).
    """
    config = config or BuildConfig()
    items = _items(sources)
    checkpoint(config.cancel_scope, "frontend")
    with obs_trace.span("frontend", kind="build", num_modules=len(items)):
        return _frontend(items, config, _open_cache(config),
                         _frontend_report(len(items), config))


@_COLLECTOR_PAUSE
def build_targets(sources: SourceModules,
                  targets: Sequence[str],
                  config: Optional[BuildConfig] = None
                  ) -> Dict[str, BuildResult]:
    """Every build: one frontend invocation, one slice per target (app
    thinning).

    Returns ``{target name: BuildResult}`` in the order given.  The front
    half (parse -> sema -> SILGen -> SIL passes -> IRGen -> -Osize LIR)
    runs **exactly once**; each target then consumes its own copy of the
    LIR through the back half, so every slice is bit-identical to a
    standalone single-target build (the slicing tests pin this from trace
    spans and golden fixtures).  ``config.target`` is ignored in favour
    of *targets*; all other knobs apply to every slice.

    With caching on, each slice probes its own whole-image entry first —
    a fully warm build never runs the frontend at all.  The module probe,
    the frontend and each slice use their own cache handle over the one
    directory, so each report counts only its own cache work: the probe's
    and the frontend's go on the frontend report, which every slice
    report copies, and each slice's on its own.
    """
    config = config or BuildConfig()
    configs = _slice_configs(targets, config)
    items = _items(sources)
    probe_cache, frontend_cache = _open_cache(config), _open_cache(config)
    slice_caches = {name: _open_cache(config) for name in configs}
    report = _frontend_report(len(items), config)
    results: Dict[str, BuildResult] = {}
    with obs_trace.span("build", kind="build", num_modules=len(items),
                        targets=",".join(configs),
                        pipeline=config.pipeline,
                        outline_rounds=config.outline_rounds):
        checkpoint(config.cancel_scope, "frontend")
        probe = None
        img_keys: Dict[str, str] = {}
        if probe_cache is not None:
            # Probe every slice's whole-image entry *before* loading any
            # per-module LIR: the keys need only source hashes and metas
            # (never the target), so a fully warm build costs hashing plus
            # one image load per slice, not O(modules) pickles.
            probe = _probe_modules(items, config, probe_cache, report)
            _note_cache_work(report, probe_cache)
            for name, slice_config in configs.items():
                img_keys[name] = cache_mod.image_key(
                    probe.keys, slice_config.backend_fingerprint())
                hit = _image_cache_probe(items, report, slice_config,
                                         slice_caches[name], img_keys[name])
                if hit is not None:
                    results[name] = hit
        pending = [name for name in configs if name not in results]
        if pending:
            with obs_trace.span("frontend", kind="build",
                                num_modules=len(items)):
                artifact = _frontend(items, config, frontend_cache, report,
                                     probe=probe)
            # Each back half mutates its LIR in place: the later slices get
            # copies taken up front, and the first consumes the originals,
            # so a one-target build pays for no pickle round trip.
            lirs = ([artifact.lir_modules]
                    + [artifact.lir_copy() for _ in pending[1:]])
            for i, name in enumerate(pending):
                results[name] = _finish_slice(artifact, lirs[i],
                                              configs[name],
                                              slice_caches[name],
                                              img_keys.get(name))
                if i:
                    results[name].report.note(
                        f"frontend shared with target {pending[0]}")
    results = {name: results[name] for name in configs}
    _publish_gauges(results, report,
                    [probe_cache, frontend_cache, *slice_caches.values()])
    return results


def run_build(result: BuildResult, timing=None, entry_symbol=None,
              max_steps: int = 100_000_000, check_leaks: bool = True,
              profile=None):
    """Execute a build's binary in the interpreter.

    Pass a :class:`~repro.sim.profile.ProfileCollector` as *profile* to
    record the run's call graph for profile-guided layout.
    """
    from repro.sim.cpu import run_binary

    return run_binary(result.image, registry=result.registry, timing=timing,
                      entry_symbol=entry_symbol, max_steps=max_steps,
                      check_leaks=check_leaks, profile=profile)
