"""Table IV + §VII-B: outlining overhead on the 26 Swift benchmarks.

Each benchmark is built single-module (as in the paper's artifact) without
and with five rounds of outlining, then executed in the timing simulator on
the reference device.  Reported overhead = (outlined - baseline) / baseline
cycles; negative = speedup.

Also reproduces the pathological case: a long-running loop whose tiny body
is outlined ("it showed only an 8.67% slowdown ... outlined branches are
predictable by modern hardware").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import copy

from repro.experiments.common import format_table
from repro.isa.instructions import (
    Cond,
    Label,
    MachineFunction,
    MachineInstr,
    MachineModule,
    Opcode,
)
from repro.isa.registers import FP, LR, SP
from repro.link.linker import link_binary
from repro.outliner.repeated import repeated_outline_functions
from repro.pipeline import BuildConfig, build_program, run_build
from repro.sim.timing import DeviceConfig, TimingModel
from repro.workloads.swift_benchmarks import BENCHMARK_NAMES, load_benchmark


def _pathological_functions(iterations: int = 4000):
    """The §VII-B pathological case, built at the machine level: a
    long-running loop whose tiny body is profitably outlined (the same
    body repeats in warm helper functions)."""

    def mi(op, *ops):
        return MachineInstr(op, tuple(ops))

    body = [  # the repeated 3-instruction sequence
        mi(Opcode.EORXrr, "x1", "x1", "x2"),
        mi(Opcode.ADDXrr, "x2", "x2", "x1"),
        mi(Opcode.EORXrr, "x1", "x1", "x2"),
    ]

    def warm(name, seed):
        fn = MachineFunction(name=name)
        blk = fn.new_block("entry")
        blk.append(mi(Opcode.STPXpre, FP, LR, SP, -16))
        blk.append(mi(Opcode.MOVZXi, "x1", seed, 0))
        blk.append(mi(Opcode.MOVZXi, "x2", seed + 3, 0))
        blk.instrs.extend(copy.deepcopy(body))
        # Distinct suffix per warm function so the *only* repeated pattern
        # is exactly the loop body (otherwise a longer warm-only pattern
        # wins greedily and the hot occurrence is dropped).
        blk.append(mi(Opcode.ADDXri, "x0", "x1", seed))
        blk.append(mi(Opcode.LDPXpost, FP, LR, SP, 16))
        blk.append(mi(Opcode.RET))
        return fn

    main = MachineFunction(name="main")
    entry = main.new_block("entry")
    entry.append(mi(Opcode.STPXpre, FP, LR, SP, -16))
    entry.append(mi(Opcode.MOVZXi, "x1", 7, 0))
    entry.append(mi(Opcode.MOVZXi, "x2", 13, 0))
    entry.append(mi(Opcode.MOVZXi, "x3", 0, 0))
    loop = main.new_block("loop")
    loop.instrs.extend(copy.deepcopy(body))
    loop.append(mi(Opcode.ADDXri, "x3", "x3", 1))
    loop.append(mi(Opcode.SUBSXri, "xzr", "x3", iterations))
    loop.append(mi(Opcode.Bcc, Cond.LT, Label("loop")))
    done = main.new_block("done")
    done.append(mi(Opcode.ADDXrr, "x0", "x1", "x2"))
    done.append(mi(Opcode.LDPXpost, FP, LR, SP, 16))
    done.append(mi(Opcode.RET))
    return [main, warm("warm1", 5), warm("warm2", 9), warm("warm3", 11)]


def _measure_pathological(rounds: int) -> "BenchmarkRow":
    from repro.sim.cpu import CPU

    base_fns = _pathological_functions()
    opt_fns = copy.deepcopy(base_fns)
    repeated_outline_functions(opt_fns, rounds=rounds)
    assert any(f.is_outlined for f in opt_fns), \
        "pathological loop body must actually be outlined"
    finals = []
    cycles = []
    for fns in (base_fns, opt_fns):
        image = link_binary([MachineModule(name="p", functions=fns)],
                            entry_symbol="main")
        cpu = CPU(image, timing=TimingModel(DeviceConfig()))
        result = cpu.run(check_leaks=False)
        finals.append(cpu.regs["x0"])
        cycles.append(result.cycles or 0)
    return BenchmarkRow(
        name="Pathological(hot 3-instr loop body outlined)",
        baseline_cycles=cycles[0],
        outlined_cycles=cycles[1],
        output_matches=finals[0] == finals[1],
    )


@dataclass
class BenchmarkRow:
    name: str
    baseline_cycles: int
    outlined_cycles: int
    output_matches: bool

    @property
    def overhead_pct(self) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        return 100.0 * (self.outlined_cycles - self.baseline_cycles) \
            / self.baseline_cycles


@dataclass
class Table4Result:
    rows: List[BenchmarkRow]
    pathological: Optional[BenchmarkRow]

    @property
    def average_overhead_pct(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.overhead_pct for r in self.rows) / len(self.rows)

    @property
    def all_outputs_match(self) -> bool:
        rows = list(self.rows)
        if self.pathological:
            rows.append(self.pathological)
        return all(r.output_matches for r in rows)


def _measure(name: str, source: str, rounds: int,
             max_steps: int) -> BenchmarkRow:
    base_build = build_program({name: source}, BuildConfig(outline_rounds=0))
    base_run = run_build(base_build, timing=TimingModel(DeviceConfig()),
                         max_steps=max_steps)
    opt_build = build_program({name: source},
                              BuildConfig(outline_rounds=rounds))
    opt_run = run_build(opt_build, timing=TimingModel(DeviceConfig()),
                        max_steps=max_steps)
    return BenchmarkRow(
        name=name,
        baseline_cycles=base_run.cycles or 0,
        outlined_cycles=opt_run.cycles or 0,
        output_matches=base_run.output == opt_run.output,
    )


def run(names: Sequence[str] = tuple(BENCHMARK_NAMES), rounds: int = 5,
        include_pathological: bool = True,
        max_steps: int = 30_000_000) -> Table4Result:
    rows = [
        _measure(name, load_benchmark(name), rounds, max_steps)
        for name in names
    ]
    pathological = None
    if include_pathological:
        pathological = _measure_pathological(rounds)
    return Table4Result(rows=rows, pathological=pathological)


def format_report(result: Table4Result) -> str:
    rows = [
        (r.name, f"{r.overhead_pct:+.2f}%", r.baseline_cycles,
         r.outlined_cycles, "yes" if r.output_matches else "NO")
        for r in result.rows
    ]
    table = format_table(
        ["benchmark", "%overhead", "baseline cyc", "outlined cyc",
         "output same"], rows)
    lines = [
        "Table IV: performance overhead of five rounds of outlining",
        table,
        f"average overhead: {result.average_overhead_pct:+.2f}%   "
        "[paper: ~1.7% average, worst ~10.8% (Dijkstra)]",
    ]
    if result.pathological is not None:
        p = result.pathological
        lines.append(
            f"pathological hot-loop case: {p.overhead_pct:+.2f}% overhead   "
            "[paper: 8.67%]")
    lines.append(f"all outputs preserved: {result.all_outputs_match}")
    return "\n".join(lines)
