"""A minimal LIR pass manager with per-pass accounting.

Every pass in this package exposes ``run_on_module(module) -> report``
(an int count or a metrics dict).  The manager is the one place that
invokes them, so the one place that observes what each pass did:

* a ``lir-pass:<name>`` span per invocation (module, scope, and the
  instruction/function deltas as attributes), nested under whichever
  pipeline phase is active;
* metrics — ``lir.pass.<name>.runs`` / ``.instrs_removed`` /
  ``.functions_removed`` counters (net, may go negative for growing
  passes like the inliner) and a ``lir.pass.<name>.instr_delta``
  histogram per run.

This mirrors LLVM's ``-time-passes``/pass-instrumentation layering: the
passes themselves stay oblivious to observability.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.lir import ir
from repro.obs import trace

PassFn = Callable[[ir.LIRModule], object]


class PassManager:
    """Runs a fixed pass sequence over modules, recording per-pass deltas."""

    def __init__(self, passes: Sequence[Tuple[str, PassFn]],
                 scope: str = "module"):
        self.passes = list(passes)
        self.scope = scope

    def run(self, module: ir.LIRModule) -> Dict[str, object]:
        """Run every pass in order; returns the last report per pass name."""
        reports: Dict[str, object] = {}
        metrics = trace.metrics()
        for name, run_on_module in self.passes:
            instrs_before = module.num_instrs
            fns_before = len(module.functions)
            with trace.span(f"lir-pass:{name}", kind="lir-pass",
                            module=module.name, scope=self.scope) as span:
                reports[name] = run_on_module(module)
                instr_delta = module.num_instrs - instrs_before
                function_delta = len(module.functions) - fns_before
                span.annotate(instr_delta=instr_delta,
                              function_delta=function_delta)
            metrics.inc(f"lir.pass.{name}.runs")
            metrics.inc(f"lir.pass.{name}.instrs_removed", -instr_delta)
            metrics.inc(f"lir.pass.{name}.functions_removed",
                        -function_delta)
            metrics.observe(f"lir.pass.{name}.instr_delta", instr_delta)
        return reports


def osize_pipeline() -> List[Tuple[str, PassFn]]:
    """The standard per-module -Osize scalar cleanup sequence."""
    from repro.lir.passes import constprop, dce, mem2reg, simplifycfg

    return [
        ("mem2reg", mem2reg.run_on_module),
        ("constprop", constprop.run_on_module),
        ("dce", dce.run_on_module),
        ("simplifycfg", simplifycfg.run_on_module),
        ("constprop", constprop.run_on_module),
        ("dce", dce.run_on_module),
    ]
