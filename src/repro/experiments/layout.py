"""Profile-guided function layout: does C3 clustering pay on cold spans?

The closed loop the layout subsystem exists for:

1. build the whole-program app with ``layout="source"`` and run its cold
   entry path under a :class:`~repro.sim.profile.ProfileCollector` — the
   exact workload being optimized produces the call-graph profile;
2. serialize the profile to disk and rebuild once per layout mode —
   ``source`` (baseline), ``callgraph-c3`` (profile-guided), ``random``
   (seeded control arm that shows ordering *can* hurt);
3. re-run the same cold span per :data:`~repro.sim.timing.DEVICE_GRID`
   device and compare icache misses, miss rate, cycles, and text page
   faults.

Profiles are name-keyed, so the profile collected under the source layout
is valid input for relinking under any other — step 2 never re-profiles.
The claim under test (arXiv 2211.09285, and the paper's "possibly less
icache and iTLB pressure" remark): clustering hot call chains onto shared
lines and pages strictly reduces simulated icache misses vs source order
on at least one device.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.common import app_spec, build_app, format_table
from repro.pipeline import BuildConfig
from repro.sim.cpu import run_binary
from repro.sim.profile import LayoutProfile, ProfileCollector
from repro.sim.timing import DEVICE_GRID, DeviceConfig, TimingModel

#: Orderings compared, baseline first.
MODES = ("source", "callgraph-c3", "random")


@dataclass
class LayoutCell:
    """One (device, layout-mode) measurement of the cold entry span."""

    device: str
    mode: str
    cycles: int
    icache_misses: int
    icache_accesses: int
    text_page_faults: int

    @property
    def miss_rate_pct(self) -> float:
        if not self.icache_accesses:
            return 0.0
        return 100.0 * self.icache_misses / self.icache_accesses


@dataclass
class FuncLayoutResult:
    cells: List[LayoutCell]
    profile_edges: int
    profile_digest: str

    def cell(self, device: str, mode: str) -> LayoutCell:
        for c in self.cells:
            if c.device == device and c.mode == mode:
                return c
        raise KeyError((device, mode))

    @property
    def devices(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.device not in seen:
                seen.append(c.device)
        return seen

    @property
    def c3_beats_source_somewhere(self) -> bool:
        """The experiment's headline: strictly fewer icache misses than the
        source layout on at least one device."""
        return any(
            self.cell(d, "callgraph-c3").icache_misses
            < self.cell(d, "source").icache_misses
            for d in self.devices)


def _measure_cold_main(build, device: DeviceConfig) -> LayoutCell:
    timing = TimingModel(device)
    run_binary(build.image, registry=build.registry, timing=timing,
               check_leaks=False)
    return LayoutCell(device=device.name, mode="",
                      cycles=timing.cycles,
                      icache_misses=timing.icache.misses,
                      icache_accesses=timing.icache.misses
                      + timing.icache.hits,
                      text_page_faults=timing.text_page_faults)


def run(scale: str = "small", week: int = 0, rounds: int = 5,
        seed: int = 1, target: Optional[str] = None,
        profile_dir: Optional[str] = None) -> FuncLayoutResult:
    spec = app_spec(scale, week=week)

    def config(**kw) -> BuildConfig:
        if target is not None:
            kw["target"] = target
        return BuildConfig(pipeline="wholeprogram", outline_rounds=rounds,
                           **kw)

    # Step 1: profile the cold entry span under the baseline layout.
    base_build = build_app(spec, config(layout="source"))
    collector = ProfileCollector()
    run_binary(base_build.image, registry=base_build.registry,
               check_leaks=False, profile=collector)
    profile = collector.finalize(base_build.image)

    # Step 2: round-trip through the serialized form — the experiment
    # exercises the same file-based handoff the CLI uses.
    own_tmp = profile_dir is None
    directory = profile_dir or tempfile.mkdtemp(prefix="repro-layout-")
    path = os.path.join(directory, "main.profile.json")
    digest = profile.save(path)
    assert LayoutProfile.load(path).digest() == digest

    try:
        builds = {
            "source": base_build,
            "callgraph-c3": build_app(spec, config(layout="callgraph-c3",
                                                   profile_path=path)),
            "random": build_app(spec, config(layout="random",
                                             layout_seed=seed)),
        }
        cells: List[LayoutCell] = []
        for device in DEVICE_GRID:
            for mode in MODES:
                cell = _measure_cold_main(builds[mode], device)
                cell.mode = mode
                cells.append(cell)
    finally:
        if own_tmp:
            try:
                os.unlink(path)
                os.rmdir(directory)
            except OSError:
                pass
    return FuncLayoutResult(cells=cells, profile_edges=profile.num_edges,
                            profile_digest=digest)


def format_report(result: FuncLayoutResult) -> str:
    rows: List[Tuple] = []
    for device in result.devices:
        src = result.cell(device, "source")
        for mode in MODES:
            c = result.cell(device, mode)
            delta = c.icache_misses - src.icache_misses
            rows.append((device if mode == MODES[0] else "",
                         mode, c.icache_misses,
                         f"{c.miss_rate_pct:.2f}%",
                         f"{delta:+d}" if mode != "source" else "-",
                         c.text_page_faults, c.cycles))
    table = format_table(
        ["device", "layout", "icache misses", "miss rate", "vs source",
         "text pagefaults", "cycles"], rows)
    return (
        "Profile-guided function layout (cold app entry, per device)\n"
        f"profile: {result.profile_edges} call edges, "
        f"sha256 {result.profile_digest[:12]}\n"
        f"{table}\n"
        f"callgraph-c3 strictly reduces icache misses on >=1 device: "
        f"{result.c3_beats_source_somewhere}"
    )
