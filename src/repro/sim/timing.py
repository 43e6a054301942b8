"""Cycle-level timing model for the interpreter.

Deliberately simple but carrying every effect the paper's evaluation
reasons about:

* base cost 1 cycle per instruction (in-order issue approximation);
* I-cache misses and iTLB misses (smaller code footprint -> fewer misses,
  which is how whole-program outlining *gains* performance on cold spans);
* taken-branch overhead plus a first-encounter misprediction penalty
  (the cost outlining *adds*: every outlined occurrence executes an extra
  BL/RET pair — "outlined branches are predictable by modern hardware, and
  the cost is largely hidden in the pipeline");
* demand-paging cost for first-touch data pages (the §VI-3 llvm-link
  data-layout regression is visible exactly here);
* fixed costs for native runtime calls.

``DeviceConfig`` instances model the paper's device/OS grid (Figure 13):
older devices have smaller caches and slower memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.sim.caches import TLB, SetAssociativeCache


@dataclass(frozen=True)
class DeviceConfig:
    """Simulated device.

    Calibration note: the synthetic app is orders of magnitude smaller than
    a production binary, so per-event memory-system costs are scaled up to
    keep the *ratio* of cold-footprint cost to straight-line execution cost
    representative of a mobile SoC running a 100 MB app (where span time is
    dominated by paging and front-end misses, not retired instructions).
    """

    name: str = "iphone-x"
    icache_bytes: int = 8 * 1024
    icache_ways: int = 4
    line_bytes: int = 64
    itlb_entries: int = 16
    #: Scaled with the app (see calibration note): page-granular paging
    #: costs must track the bytes a span touches, as they do at 100 MB.
    page_bytes: int = 1024
    icache_miss_cycles: int = 30
    itlb_miss_cycles: int = 60
    taken_branch_cycles: int = 1
    #: Predicted unconditional branches/calls/returns on a wide OoO core:
    #: "outlined branches are predictable by modern hardware, and the cost
    #: is largely hidden in the pipeline" (§VII-E-3).
    uncond_branch_cycles: int = 0
    mispredict_cycles: int = 8
    #: First touch of a data page (demand paging / page fault).
    data_page_fault_cycles: int = 3000
    #: First touch of a text page.
    text_page_fault_cycles: int = 2500
    call_return_overhead: int = 0


#: The device rows of Figure 13's heatmaps.
DEVICE_GRID = (
    DeviceConfig(name="iphone-6s", icache_bytes=4 * 1024, itlb_entries=8,
                 icache_miss_cycles=40, itlb_miss_cycles=80,
                 data_page_fault_cycles=4500, text_page_fault_cycles=3800,
                 mispredict_cycles=10),
    DeviceConfig(name="iphone-8", icache_bytes=8 * 1024, itlb_entries=12,
                 icache_miss_cycles=34, itlb_miss_cycles=70,
                 data_page_fault_cycles=3600, text_page_fault_cycles=3000),
    DeviceConfig(name="iphone-x", icache_bytes=8 * 1024, itlb_entries=16),
    DeviceConfig(name="iphone-11", icache_bytes=12 * 1024, itlb_entries=24,
                 icache_miss_cycles=26, itlb_miss_cycles=50,
                 data_page_fault_cycles=2400, text_page_fault_cycles=2000,
                 mispredict_cycles=7),
)


class TimingModel:
    """Accumulates cycles for one execution."""

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.config = config or DeviceConfig()
        cfg = self.config
        self.icache = SetAssociativeCache(cfg.icache_bytes, cfg.line_bytes,
                                          cfg.icache_ways)
        self.itlb = TLB(cfg.itlb_entries, cfg.page_bytes)
        self.cycles = 0
        self.data_pages: Set[int] = set()
        self.text_pages: Set[int] = set()
        self.data_page_faults = 0
        self.text_page_faults = 0
        self.taken_branches = 0
        self.mispredicts = 0
        self._branch_history: Dict[int, int] = {}

    # -- events ------------------------------------------------------------

    def on_instr(self, addr: int, width: int = 4) -> None:
        """Fetch of one instruction at *addr*, *width* bytes long.

        On fixed-width targets a 4-byte instruction at 4-byte alignment can
        never span a cache line, so the extra end-of-instruction access is
        a no-op there; on compressed targets a 4-byte instruction at a
        2-byte boundary can straddle two lines and both are touched.
        """
        self.cycles += 1
        if not self.icache.access(addr):
            self.cycles += self.config.icache_miss_cycles
        last = addr + width - 1
        if last // self.config.line_bytes != addr // self.config.line_bytes:
            if not self.icache.access(last):
                self.cycles += self.config.icache_miss_cycles
        if not self.itlb.access(addr):
            self.cycles += self.config.itlb_miss_cycles
            page = addr // self.config.page_bytes
            if page not in self.text_pages:
                self.text_pages.add(page)
                self.text_page_faults += 1
                self.cycles += self.config.text_page_fault_cycles

    def on_taken_branch(self, src: int, dst: int) -> None:
        """A taken *conditional* branch: predictor history applies."""
        self.taken_branches += 1
        self.cycles += self.config.taken_branch_cycles
        predicted = self._branch_history.get(src)
        if predicted != dst:
            self.mispredicts += 1
            self.cycles += self.config.mispredict_cycles
            self._branch_history[src] = dst

    def on_uncond_branch(self, src: int, dst: int) -> None:
        """B/BL/BLR: direction known at decode; cost hidden by the pipeline."""
        self.taken_branches += 1
        self.cycles += self.config.uncond_branch_cycles

    def on_call_return(self) -> None:
        self.cycles += self.config.call_return_overhead

    def on_return(self) -> None:
        # Returns are predicted by the return-address stack.
        self.taken_branches += 1
        self.cycles += self.config.uncond_branch_cycles

    def on_data_access(self, addr: int) -> None:
        page = addr // self.config.page_bytes
        if page not in self.data_pages:
            self.data_pages.add(page)
            self.data_page_faults += 1
            self.cycles += self.config.data_page_fault_cycles

    def on_native_call(self, cost: int) -> None:
        self.cycles += cost
