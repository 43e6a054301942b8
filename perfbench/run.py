"""The repository benchmark: build time, code size and app run time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload release --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one client issues its next build only after
the previous one returned, with pinned worker counts.  The program is
driven only through ``repro.pipeline`` (``build_program``,
``build_targets``, ``compile_frontend``, ``run_build``) and
``repro.workloads.appgen``.  ``--seed`` seeds everything the benchmark
chooses (the edit sequence of ``inner-loop``); the corpus is the shipped
one (``--corpus default``) or the held-out one (``--corpus held-out``),
and the expected output of both is committed in ``expected_output.json``.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics of
:mod:`layers` plus the tracing overhead.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a human-readable report and a ``detail`` JSON line (each timed
step's position, raw wall time and speed scale, kernel times at the start
and end of the run, and every deterministic value with its digest).

README.md beside this file describes the workloads and the layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The shipped corpora, as appgen seeds.  ``held-out`` is for re-checking
#: a claim on a corpus that was not used while the change was written.
CORPUS_SEEDS = {"default": 2021, "held-out": 7}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"release": 21, "inner-loop": 3, "thinning": 21}

#: Runs of each image that is checked outside the timed loop (the
#: inner-loop cold image, both thinning slices): throughput samples.
CHECK_RUNS = 3

#: Operations that run whatever the time budget, so that every run has
#: enough samples for a median.
MIN_OPS = 3

#: Traced operations whose counts make up the per-layer count metrics.
#: Fixed, so that two runs of one seed count exactly the same work.
COUNTED_TRACED_OPS = 2

#: Class type ids are packed into 8 bits and classes start at 16
#: (``repro.runtime.layout``): more classes alias a type id.
MAX_CLASSES = 240

DEVICE = "iphone-x"

#: Every timed step is bracketed by runs of a fixed kernel, and its wall
#: time is scaled by KERNEL_REF_S / kernel time: times read as on a
#: machine whose kernel run takes KERNEL_REF_S.  The raw walls and scale
#: factors are in the ``detail`` line.
KERNEL_REF_S = 0.004

END_TO_END = {
    "setup_s": "s", "build_s": "s", "edit_s": "s", "noop_s": "s",
    "text_bytes": "B", "binary_bytes": "B", "app_cycles": "cycles",
    "sim_instrs_per_s": "instr/s", "peak_rss_mb": "MiB", "ok_frac": "ratio",
}


class Workload:
    def __init__(self, name: str, features: int, preset: str,
                 targets: List[str], knobs: Dict[str, object]):
        self.name = name
        self.features = features
        self.preset = preset
        self.targets = targets
        self.knobs = knobs


WORKLOADS = {
    # The paper's shipping build: whole program, 5 outlining rounds,
    # optimistic merging, link-time strip, no cache, one worker.
    "release": Workload("release", 24, "min-size", ["arm64"],
                        {"workers": 1}),
    # The developer loop: per-module pipeline, function-level cache and a
    # persistent pool of two workers; edit and no-op rebuilds.
    "inner-loop": Workload("inner-loop", 24, "fast-build", ["arm64"],
                           {"workers": 2}),
    # App thinning: two slices from one frontend, each build into a fresh
    # cache (writes, not reads) with a per-build pool of two workers.
    "thinning": Workload("thinning", 24, "balanced", ["arm64", "thumb2c"],
                         {"workers": 2, "persistent_workers": False}),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", choices=sorted(CORPUS_SEEDS),
                        default="default")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import the program from the checkout's ``src`` (no install step)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.errors import RuntimeTrap
        from repro.pipeline import (BuildConfig, build_program, build_targets,
                                    compile_frontend, run_build)
        from repro.pipeline import parallel
        from repro.sim.timing import DEVICE_GRID, TimingModel
        from repro.workloads import appgen
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: "
                 f"{exc}")
    device = next(d for d in DEVICE_GRID if d.name == DEVICE)
    return argparse.Namespace(
        RuntimeTrap=RuntimeTrap, BuildConfig=BuildConfig,
        build_program=build_program, build_targets=build_targets,
        compile_frontend=compile_frontend, run_build=run_build,
        parallel=parallel, appgen=appgen,
        timing=lambda: TimingModel(device))


# --- statistics ---------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values)


def _tail(values: List[float]) -> Optional[tuple]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[min(n - 1, round(pct / 100 * (n - 1)))]
    return None


def _kernel_s(repeats: int = 3) -> float:
    """Median wall time of a fixed pure-Python kernel: the machine's speed
    right now (the host's speed swings by a third over tens of seconds)."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc = (acc * 31 + i) % 65537
        walls.append(time.perf_counter() - start)
    return _median(walls)


def _speed_scale(kernel_before: float) -> float:
    """Speed scale factor for a step that just ended."""
    return 2 * KERNEL_REF_S / (kernel_before + _kernel_s())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the run ------------------------------------------------------------------


class Bench:
    """State of one benchmark run: samples, failures and diagnostics."""

    def __init__(self, args, program, scratch: Path):
        self.args = args
        self.p = program
        self.scratch = scratch
        self.workload = WORKLOADS[args.workload]
        self.rng = random.Random(args.seed)
        self.corpus_seed = CORPUS_SEEDS[args.corpus]
        self.spec = program.appgen.AppSpec(
            seed=self.corpus_seed, base_features=self.workload.features,
            num_vendors=4, base_handlers=4)
        with open(HERE / "expected_output.json", encoding="utf-8") as fh:
            table = json.load(fh)["outputs"]
        key = (f"seed={self.corpus_seed},features={self.workload.features},"
               f"vendors=4,handlers=4")
        if key not in table:
            raise SystemExit(f"perfbench: no expected output for {key}")
        self.expected = table[key]
        self.attempted = 0
        self.failures: List[str] = []
        #: End-to-end timing samples by metric name.
        self.samples: Dict[str, List[float]] = {}
        #: Deterministic values; every repeat must agree with the first.
        self.fixed: Dict[str, object] = {}
        self.values: Dict[str, float] = {}
        #: (position, kind, raw wall seconds, speed scale, traced).
        self.timeline: List[tuple] = []
        self.tracer = None
        #: Traced operations (per-layer samples) and untraced op walls.
        self.traced: List[object] = []
        self.traced_kinds: Dict[str, List[object]] = {}
        self.untraced_walls: List[float] = []
        if args.trace:
            sys.path.insert(0, str(HERE))
            from layers import LayerTracer

            self.tracer = LayerTracer()
        self._dirs = 0

    # -- helpers ---------------------------------------------------------------

    def config(self, **extra):
        knobs = dict(self.workload.knobs)
        knobs.update(extra)
        return self.p.BuildConfig.preset(self.workload.preset, **knobs)

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = self.scratch / f"cache{self._dirs}"
        path.mkdir()
        return str(path)

    def record(self, kind: str, traced: bool, fn: Callable[[], None]):
        """Time fn as one step (per layer if traced).

        Returns (scaled wall, per-layer sample or None).
        """
        sample = None
        kernel = _kernel_s()
        if traced:
            with self.tracer.record(kind) as sample:
                fn()
            wall = sample.wall
        else:
            start = time.perf_counter()
            fn()
            wall = time.perf_counter() - start
        scale = _speed_scale(kernel)
        if sample is not None:
            sample.rescale(scale)
            self.traced_kinds.setdefault(kind, []).append(sample)
        self.timeline.append((len(self.timeline), kind, round(wall, 6),
                              round(scale, 4), traced))
        return wall * scale, sample

    def setup(self, build: Optional[Callable] = None):
        """Set up SETUP_REPEATS times; returns the last corpus.

        ``build(sources)`` adds a cold build to each set-up.
        """
        out = {}
        for _ in range(SETUP_REPEATS[self.workload.name]):
            def one():
                out["sources"] = self.p.appgen.generate_app(self.spec)
                if build is not None:
                    build(out["sources"])

            self.sample("setup_s", self.record("set-up", False, one)[0])
        return out["sources"]

    def guard_classes(self, registry) -> None:
        """Stop before timing if the corpus has more classes than type ids."""
        count = 0
        for type_id in range(16, 16 + 4 * MAX_CLASSES):
            try:
                registry.class_layout(type_id)
                count += 1
            except self.p.RuntimeTrap:
                pass
        self.values["classes"] = count
        if count > MAX_CLASSES:
            raise SystemExit(f"perfbench: corpus has {count} classes; type "
                             f"ids alias above {MAX_CLASSES}")

    def attempt(self, what: str, fn: Callable[[], object]) -> tuple:
        """Run one checked operation: (True, its value) or (False, None).

        A raise -- a build error, a trap, a failed output or repeat check
        -- counts the operation as failed; the run goes on.
        """
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # a failed op is counted, not fatal
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return False, None

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def pin(self, key: str, value) -> None:
        """Record a deterministic value; a differing repeat is a failure."""
        if key in self.fixed and self.fixed[key] != value:
            raise AssertionError(f"{key} changed between repeats: "
                                 f"{self.fixed[key]!r} != {value!r}")
        self.fixed.setdefault(key, value)

    def pin_image(self, tag: str, result) -> None:
        image = result.image
        self.pin(f"{tag}.text_bytes", image.text_bytes)
        self.pin(f"{tag}.binary_bytes", image.binary_bytes)
        self.pin(f"{tag}.outline", [
            [s.round_no, s.sequences_outlined, s.functions_created,
             s.bytes_saved] for s in result.outline_stats])
        self.pin(f"{tag}.merge", sorted(result.report.merge_stats.items()))

    def run_app(self, result, tag: str) -> int:
        """Run one image on the simulated device and check its output.

        Returns the number of instructions executed.
        """
        execution = self.p.run_build(result, timing=self.p.timing())
        if list(execution.output) != self.expected:
            raise AssertionError(f"{tag} printed {execution.output}, "
                                 f"expected {self.expected}")
        self.pin(f"{tag}.cycles", execution.cycles)
        self.pin(f"{tag}.instrs", execution.steps)
        return execution.steps

    def check_run(self, result, tag: str) -> None:
        """run_app outside the timed loop, as a throughput sample."""
        out = {}
        wall, _ = self.record(f"run {tag}", False, lambda: out.update(
            instrs=self.run_app(result, tag)))
        self.sample("sim_instrs_per_s", out["instrs"] / wall)

    def note_op(self, wall: float, sample, timings: Dict[str, float],
                counts_key: Optional[str]) -> None:
        """File one finished operation under the traced or untraced side.

        A traced operation's layer counts are pinned under *counts_key*
        (when given): operations that do the same work must count the same.
        """
        if sample is not None:
            self.traced.append(sample)
            if counts_key is not None:
                self.attempt(f"{counts_key} repeat", lambda: self.pin(
                    counts_key, sample.deterministic()))
            return
        self.untraced_walls.append(wall)
        for name, value in timings.items():
            self.sample(name, value)

    def loop(self, op: Callable[[int, bool], float]) -> None:
        """Closed loop for --seconds: op(position, traced) -> wall.

        An operation starts only if it is expected to end within the
        budget; traced runs alternate untraced and traced operations.
        """
        tracing = self.tracer is not None
        need = MIN_OPS + (2 * COUNTED_TRACED_OPS if tracing else 0)
        walls: List[float] = []
        start = time.perf_counter()
        i = 0
        while (i < need or time.perf_counter() - start + _median(walls)
               <= self.args.seconds):
            walls.append(op(i, tracing and i % 2 == 1))
            i += 1


# --- workloads ----------------------------------------------------------------


def run_release(b: Bench) -> None:
    sources = b.setup()
    b.guard_classes(b.p.compile_frontend(sources).registry)
    config = b.config()

    def op(i: int, traced: bool) -> float:
        out = {}

        def build():
            out["result"] = b.p.build_program(sources, config)

        def run():
            out["instrs"] = b.run_app(out["result"], "arm64")

        ok, built = b.attempt(f"op {i} build", lambda: b.record(
            "build", traced, build))
        if not ok:
            return 0.0
        b.attempt(f"op {i} repeat", lambda: b.pin_image("arm64",
                                                        out["result"]))
        ok, ran = b.attempt(f"op {i} run", lambda: b.record(
            "run", traced, run))
        if not ok:
            return built[0]
        b.note_op(built[0] + ran[0],
                  built[1] and built[1].merged(ran[1], "build+run"),
                  {"build_s": built[0],
                   "sim_instrs_per_s": out["instrs"] / ran[0]},
                  "traced.counts")
        return built[0] + ran[0]

    b.loop(op)
    b.values["app_cycles"] = b.fixed.get("arm64.cycles", 0)
    b.values["text_bytes"] = b.fixed.get("arm64.text_bytes", 0)
    b.values["binary_bytes"] = b.fixed.get("arm64.binary_bytes", 0)
    # min-size ships with the cache off, so a rebuild after an edit and an
    # unchanged rebuild are each a full cold build.
    b.samples["edit_s"] = b.samples["noop_s"] = b.samples.get("build_s", [])


def run_thinning(b: Bench) -> None:
    targets = b.workload.targets
    sources = b.setup()
    b.guard_classes(b.p.compile_frontend(sources).registry)
    last = {}

    def op(i: int, traced: bool) -> float:
        config = b.config(cache_dir=b.fresh_dir())
        out = {}

        def build():
            out["results"] = b.p.build_targets(sources, targets, config)

        ok, timed = b.attempt(f"op {i}", lambda: b.record(
            "build", traced, build))
        shutil.rmtree(config.cache_dir, ignore_errors=True)
        if not ok:
            return 0.0
        wall, sample = timed
        b.note_op(wall, sample, {"build_s": wall}, "traced.counts")
        for name, result in out["results"].items():
            b.attempt(f"op {i} repeat {name}",
                      lambda: b.pin_image(name, result))
        last.update(out["results"])
        return wall

    b.loop(op)
    # Both slices run after timing.
    for _ in range(CHECK_RUNS):
        for name in targets:
            if name in last:
                b.attempt(f"run {name}",
                          lambda: b.check_run(last[name], name))
    for metric, key in (("app_cycles", "cycles"), ("text_bytes", "text_bytes"),
                        ("binary_bytes", "binary_bytes")):
        b.values[metric] = sum(b.fixed.get(f"{t}.{key}", 0) for t in targets)
    # Every thinning build starts from an empty cache, as a clean CI build
    # does, so a rebuild after an edit or of unchanged sources is cold too.
    b.samples["edit_s"] = b.samples["noop_s"] = b.samples.get("build_s", [])


def _edit_schedule(b: Bench):
    """Seeded (module, function) edits, alternating between widely
    imported modules (Base, Vendor*) and leaf Feature* modules.

    Each kind walks a seeded permutation of its modules, so every run
    edits the same mix whatever the seed; the seed picks the order and
    the function edited in each module.
    """
    functions = b.p.appgen.function_fingerprints(b.spec)
    kinds = [sorted(m for m in functions
                    if m == "Base" or m.startswith("Vendor")),
             sorted(m for m in functions if m.startswith("Feature"))]
    queues = [[], []]
    i = 0
    while True:
        # shared, leaf, leaf, shared: the untraced and the traced half of a
        # traced run's alternation both see both kinds.
        kind = 0 if i % 4 in (0, 3) else 1
        if not queues[kind]:
            queues[kind] = b.rng.sample(kinds[kind], len(kinds[kind]))
        module = queues[kind].pop()
        # An edit inserts a call to log(), so log() itself is never edited.
        names = sorted(f for f in functions[module] if f != "log")
        yield module, b.rng.choice(names)
        i += 1


def run_inner_loop(b: Bench) -> None:
    state = {}

    def cold_build(sources) -> None:
        # Each set-up starts the persistent pool and fills a fresh cache.
        b.p.parallel.shutdown_persistent_pool()
        state["config"] = b.config(cache_dir=b.fresh_dir())
        if b.tracer is None:
            state["cold"] = b.p.build_program(sources, state["config"])
        else:
            # Traced runs report no set-up time; the set-up's per-layer
            # table shows where the pool is used.
            kernel = _kernel_s()
            with b.tracer.record("set-up cold build") as sample:
                state["cold"] = b.p.build_program(sources, state["config"])
            sample.rescale(_speed_scale(kernel))
            b.traced_kinds.setdefault(sample.label, []).append(sample)
        b.pin_image("cold", state["cold"])

    sources = dict(b.setup(cold_build))
    config = state["config"]
    cold = state.pop("cold")
    b.guard_classes(cold.registry)
    b.values["text_bytes"] = cold.image.text_bytes
    b.values["binary_bytes"] = cold.image.binary_bytes
    for _ in range(CHECK_RUNS):
        b.attempt("run cold image", lambda: b.check_run(cold, "cold"))
    b.values["app_cycles"] = b.fixed.get("cold.cycles", 0)
    del cold
    edits = _edit_schedule(b)

    def op(i: int, traced: bool) -> float:
        module, function = next(edits)
        sources[module] = b.p.appgen.edit_function(sources[module], function,
                                                   marker=i + 1)
        out = {}

        def check_edit():
            report = out["edit"].report
            if report.functions_recompiled != 1:
                raise AssertionError(
                    f"edit of {module}.{function} recompiled "
                    f"{report.functions_recompiled} functions, expected 1")
            if i < 2 * COUNTED_TRACED_OPS:
                b.pin(f"step{i}", [module, function] + [
                    getattr(report, f) for f in (
                        "cache_hits", "cache_misses", "fn_cache_hits",
                        "fn_cache_misses", "llc_cache_hits",
                        "llc_cache_misses")])

        def check_noop():
            if not out["noop"].report.image_cache_hit:
                raise AssertionError("unchanged rebuild missed the image cache")

        timed = {}
        for kind, check in (("edit", check_edit), ("noop", check_noop)):
            def build(kind=kind):
                out[kind] = b.p.build_program(sources, config)

            ok, timed[kind] = b.attempt(f"op {i} {kind}", lambda: b.record(
                kind, traced, build))
            if not ok:
                return 0.0
            b.attempt(f"op {i} {kind} check", check)
        (edit_wall, edit_sample), (noop_wall, noop_sample) = (
            timed["edit"], timed["noop"])
        if noop_sample is not None:
            # Every no-op loads the same entries, whatever the edit before
            # (their sizes grow with the edits).
            b.attempt(f"op {i} noop counts repeat", lambda: b.pin(
                "traced.noop.counts",
                {k: v for k, v in noop_sample.deterministic().items()
                 if not k.endswith("bytes")}))
        # On this workload the usual build is the edit rebuild, so build_s
        # reports it; the cold build is set-up.
        b.note_op(edit_wall + noop_wall,
                  edit_sample and edit_sample.merged(noop_sample, "edit+noop"),
                  {"edit_s": edit_wall, "build_s": edit_wall,
                   "noop_s": noop_wall},
                  f"traced.step{i}.counts"
                  if i < 2 * COUNTED_TRACED_OPS else None)
        state["last"] = out["noop"]
        return edit_wall + noop_wall

    b.loop(op)

    def identical_to_uncached():
        reference = b.p.build_program(sources, b.config(
            workers=1, incremental=False, persistent_workers=False))
        warm = state["last"].image
        if (warm.text_section() != reference.image.text_section()
                or warm.data_section() != reference.image.data_section()):
            raise AssertionError("warm image differs from an uncached "
                                 "serial build of the same sources")

    if "last" in state:
        b.attempt("warm image == uncached serial build",
                  identical_to_uncached)


RUNNERS = {"release": run_release, "inner-loop": run_inner_loop,
           "thinning": run_thinning}


# --- reporting ----------------------------------------------------------------


def _end_to_end(b: Bench) -> Dict[str, tuple]:
    values = {}
    for name in ("setup_s", "build_s", "edit_s", "noop_s",
                 "sim_instrs_per_s"):
        samples = b.samples.get(name)
        values[name] = _median(samples) if samples else 0.0
    for name in ("text_bytes", "binary_bytes", "app_cycles"):
        values[name] = b.values.get(name, 0)
    values["peak_rss_mb"] = _peak_rss_mb()
    values["ok_frac"] = 1.0 - len(b.failures) / max(1, b.attempted)
    return {name: (value, END_TO_END[name]) for name, value in values.items()}


def _per_layer(b: Bench) -> Dict[str, tuple]:
    from layers import COUNTS, LAYERS

    traced = b.traced
    counted = traced[:COUNTED_TRACED_OPS]

    def mean(fn):
        return sum(fn(s) for s in counted) / max(1, len(counted))

    def med(fn):
        return _median([fn(s) for s in traced]) if traced else 0.0

    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (mean(lambda s: s.calls.get(layer, 0)),
                                 "count")
        out[f"{layer}.self_s"] = (med(lambda s: s.self_s.get(layer, 0.0)),
                                  "s")
    for name, unit in COUNTS.items():
        agg = med if unit == "s" else mean
        out[name] = (agg(lambda s: s.counts.get(name, 0)), unit)
    out["build.unattributed_s"] = (med(lambda s: s.unattributed_s), "s")
    overhead = 0.0
    if traced and b.untraced_walls:
        overhead = (_median([s.wall for s in traced])
                    - _median(b.untraced_walls))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _layer_table(samples) -> List[str]:
    from layers import LAYERS

    wall = _median([s.wall for s in samples])
    lines = [f"  {'layer':<24}{'calls':>8}{'self_s':>11}{'share':>8}"]
    rows = [(layer, _median([s.calls.get(layer, 0) for s in samples]),
             _median([s.self_s.get(layer, 0.0) for s in samples]))
            for layer in LAYERS]
    rows.append(("build.unattributed", 0,
                 _median([s.unattributed_s for s in samples])))
    for layer, calls, self_s in rows:
        if calls or self_s > 0.0005:
            lines.append(f"  {layer:<24}{calls:>8.0f}{self_s:>11.4f}"
                         f"{self_s / wall:>8.1%}")
    lines.append(f"  {'step wall (median)':<24}{'':>8}{wall:>11.4f}"
                 f"  n={len(samples)}")
    return lines


def _report(b: Bench, metrics: Dict[str, tuple]) -> List[str]:
    w = b.workload
    lines = [f"perfbench {w.name}: preset {w.preset}, targets "
             f"{'+'.join(w.targets)}, seed {b.args.seed}, corpus "
             f"{b.args.corpus} (appgen seed {b.corpus_seed}, "
             f"{w.features} features, {b.values.get('classes', 0)} classes, "
             f"at most {MAX_CLASSES})"]
    if b.tracer is None:
        for name, (value, unit) in metrics.items():
            line = f"  {name:<18}{value:>16.6g} {unit:<8}"
            samples = b.samples.get(name)
            if samples:
                tail = _tail(samples)
                line += f" median of n={len(samples)}"
                line += (f", p{tail[0]:g} {tail[1]:.6g}" if tail
                         else ", no tail percentile below n=20")
            lines.append(line)
        for tag in sorted(k for k in b.fixed if k.endswith("_bytes")):
            lines.append(f"  {tag:<18}{b.fixed[tag]:>16} B")
    else:
        for kind, samples in b.traced_kinds.items():
            lines.append(f" per-layer self time, traced {kind}:")
            lines.extend(_layer_table(samples))
        lines.append(f"  trace.overhead_s per op "
                     f"{metrics['trace.overhead_s'][0]:.4f}")
    lines.append(f"  fail_frac {len(b.failures)}/{b.attempted}")
    lines.extend(f"  FAILED {failure}" for failure in b.failures)
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    program = _import_program()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=tmp_root))
    # Keep every temporary file of the run inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    kernel = [_kernel_s(9)]
    try:
        b = Bench(args, program, scratch)
        RUNNERS[args.workload](b)
    finally:
        program.parallel.shutdown_persistent_pool()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass
    kernel.append(_kernel_s(9))
    metrics = _end_to_end(b) if b.tracer is None else _per_layer(b)
    for line in _report(b, metrics):
        print(line)
    fixed = json.dumps(b.fixed, sort_keys=True)
    print(json.dumps({"detail": {
        "steps": b.timeline,
        "kernel_s": {"start": kernel[0], "end": kernel[1]},
        "deterministic_digest": hashlib.sha256(fixed.encode()).hexdigest(),
        "deterministic": b.fixed,
    }}))
    print(json.dumps({
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
