"""Core-span performance scenarios (Figure 13, Table III).

A *span* is a developer-named critical use case — here, a feature module's
cold entry path (``mK_span``).  Each measurement executes one span from a
cold microarchitectural state (empty caches, no resident pages) on one
simulated device (cache configuration) under one simulated OS version
(memory-system cost multiplier), mirroring the paper's device x OS grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.pipeline.build import BuildResult
from repro.sim.cpu import run_binary
from repro.sim.timing import DEVICE_GRID, DeviceConfig, TimingModel
from repro.workloads.appgen import AppSpec, span_symbols


@dataclass(frozen=True)
class OSVersion:
    """OS versions scale the memory-system costs (pager, TLB handling)."""

    name: str
    memory_cost_factor: float


OS_GRID: Tuple[OSVersion, ...] = (
    OSVersion("12.4", 1.15),
    OSVersion("13.3", 1.05),
    OSVersion("13.5.1", 1.0),
    OSVersion("14.0", 0.92),
)


def device_for_os(device: DeviceConfig, os_version: OSVersion) -> DeviceConfig:
    factor = os_version.memory_cost_factor
    return replace(
        device,
        icache_miss_cycles=max(1, round(device.icache_miss_cycles * factor)),
        itlb_miss_cycles=max(1, round(device.itlb_miss_cycles * factor)),
        data_page_fault_cycles=max(1, round(device.data_page_fault_cycles * factor)),
        text_page_fault_cycles=max(1, round(device.text_page_fault_cycles * factor)),
    )


@dataclass
class SpanMeasurement:
    span: str
    device: str
    os_version: str
    cycles: int
    steps: int
    data_page_faults: int
    icache_misses: int


def measure_span(build: BuildResult, entry_symbol: str,
                 device: DeviceConfig, os_version: OSVersion,
                 max_steps: int = 20_000_000) -> SpanMeasurement:
    """Run one span cold and return its cycle count."""
    timing = TimingModel(device_for_os(device, os_version))
    result = run_binary(build.image, registry=build.registry, timing=timing,
                        entry_symbol=entry_symbol, max_steps=max_steps,
                        check_leaks=False)
    return SpanMeasurement(
        span=entry_symbol,
        device=device.name,
        os_version=os_version.name,
        cycles=result.cycles or 0,
        steps=result.steps,
        data_page_faults=timing.data_page_faults,
        icache_misses=timing.icache.misses,
    )


def select_spans(spec: AppSpec, count: int = 9) -> List[str]:
    """The paper evaluates 9 named core spans; pick a spread of features.

    Prefer higher-index features: their spans traverse a full dependency
    chain of modules, like real UI flows (low-index features have no deps
    and behave like the paper's shortest span).
    """
    symbols = span_symbols(spec)
    # Features below index 5 have truncated dependency chains; a "core
    # span" is a deep flow, so draw from the fully-linked features.
    eligible = symbols[min(5, max(0, len(symbols) - count)):]
    if len(eligible) <= count:
        return eligible
    stride = len(eligible) / count
    return [eligible[int(i * stride)] for i in range(count)]


def span_grid(build: BuildResult, spans: Sequence[str],
              devices: Sequence[DeviceConfig] = DEVICE_GRID,
              os_versions: Sequence[OSVersion] = OS_GRID,
              max_steps: int = 20_000_000) -> Dict[Tuple[str, str, str],
                                                   SpanMeasurement]:
    """Measure every (span, device, OS) cell."""
    out: Dict[Tuple[str, str, str], SpanMeasurement] = {}
    for span in spans:
        for device in devices:
            for os_version in os_versions:
                m = measure_span(build, span, device, os_version,
                                 max_steps=max_steps)
                out[(span, device.name, os_version.name)] = m
    return out
