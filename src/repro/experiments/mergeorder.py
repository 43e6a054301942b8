"""Phase-ordering experiment: function merging stacked with the outliner.

One table (mirroring the paper's presentation) answering, per target:
how do {off, exact, optimistic} merging combine with repeated outlining,
and does the phase order matter?

* ``merge-only`` — merging at the LIR level, outliner disabled;
* ``before``    — LIR merging, then llc + repeated outlining (the natural
  pipeline order: :mod:`repro.lir.passes.optmerge` runs pre-llc);
* ``after``     — outline first (merge off), then machine-level identical
  code folding (:mod:`repro.outliner.machinemerge`) on the outlined
  module, relinked.  LIR merging cannot literally run after llc, so the
  "after" arm is folding at the machine layer — the same layer the
  outliner works at.

For ``mode=off`` the two orders collapse to plain outline-only; both rows
are reported so the {mode} x {order} grid is complete.  The headline
claims the harness asserts: optimistic never reports more padded-text
bytes than exact in either order, and every relinked "after" image still
passes the structural verifier.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.common import PAPER_ROUNDS, app_spec, format_table
from repro.link.linker import link_binary
from repro.link.verify import verify_image
from repro.outliner import machinemerge
from repro.pipeline import BuildConfig, build_program
from repro.target import get_target
from repro.workloads.appgen import generate_app

DEFAULT_TARGETS = ("arm64", "thumb2c")
MODES = ("off", "exact", "optimistic")


@dataclass
class MergeOrderRow:
    target: str
    mode: str       # off | exact | optimistic
    order: str      # merge-only | before | after
    rounds: int
    #: Padded __text bytes (alignment padding included on variable-width
    #: targets) — the paper's primary size metric.
    text_bytes: int
    padding_bytes: int
    num_functions: int
    #: Functions the merge stage rewrote (LIR merged or machine folded).
    merged: int


@dataclass
class MergeOrderResult:
    rows: List[MergeOrderRow]
    targets: Tuple[str, ...]
    rounds: int
    scale: str

    def row(self, target: str, mode: str, order: str) -> MergeOrderRow:
        for r in self.rows:
            if (r.target, r.mode, r.order) == (target, mode, order):
                return r
        raise KeyError((target, mode, order))


def _build_row(sources, target: str, mode: str, order: str,
               rounds: int) -> MergeOrderRow:
    result = build_program(sources, BuildConfig(
        outline_rounds=rounds, target=target, merge_mode=mode))
    return MergeOrderRow(
        target=target, mode=mode, order=order, rounds=rounds,
        text_bytes=result.sizes.text_bytes,
        padding_bytes=result.image.alignment_padding_bytes,
        num_functions=result.sizes.num_functions,
        merged=result.report.merge_stats.get("functions_merged", 0))


def _after_row(base, target: str, mode: str, rounds: int) -> MergeOrderRow:
    """Fold the outlined machine module(s), relink, re-verify."""
    modules = copy.deepcopy(base.machine_modules)
    folded = 0
    for module in modules:
        stats = machinemerge.fold_module(
            module, mode=mode, entry_symbol=base.image.entry_symbol)
        folded += stats["functions_folded"]
    image = link_binary(modules, entry_symbol=base.image.entry_symbol,
                        layout=base.config.layout, target=target)
    verify_image(image, target=target)
    return MergeOrderRow(
        target=target, mode=mode, order="after", rounds=rounds,
        text_bytes=image.text_bytes,
        padding_bytes=image.alignment_padding_bytes,
        num_functions=image.num_functions,
        merged=folded)


def run(scale: str = "tiny", rounds: int = PAPER_ROUNDS,
        targets: Sequence[str] = DEFAULT_TARGETS) -> MergeOrderResult:
    targets = tuple(get_target(t).name for t in targets)
    sources = generate_app(app_spec(scale))
    rows: List[MergeOrderRow] = []
    for target in targets:
        # Outline-only: the shared baseline and the mode=off grid rows.
        outline_only = build_program(sources, BuildConfig(
            outline_rounds=rounds, target=target, merge_mode="off"))
        for order in ("before", "after"):
            rows.append(MergeOrderRow(
                target=target, mode="off", order=order, rounds=rounds,
                text_bytes=outline_only.sizes.text_bytes,
                padding_bytes=outline_only.image.alignment_padding_bytes,
                num_functions=outline_only.sizes.num_functions,
                merged=0))
        for mode in ("exact", "optimistic"):
            rows.append(_build_row(sources, target, mode, "merge-only", 0))
            rows.append(_build_row(sources, target, mode, "before", rounds))
            rows.append(_after_row(outline_only, target, mode, rounds))
    return MergeOrderResult(rows=rows, targets=targets, rounds=rounds,
                            scale=scale)


def format_report(result: MergeOrderResult) -> str:
    table_rows = []
    for row in result.rows:
        base = result.row(row.target, "off", "before").text_bytes
        delta = row.text_bytes - base
        table_rows.append((
            row.target, row.mode, row.order, row.rounds, row.text_bytes,
            row.padding_bytes, row.num_functions, row.merged,
            f"{delta:+d}" if row.mode != "off" else "-"))
    table = format_table(
        ["target", "merge", "order", "rounds", "text B", "pad B",
         "funcs", "merged", "vs outline-only"],
        table_rows)
    return (
        "Merge/outline phase ordering (padded __text bytes per arm)\n"
        f"scale={result.scale}, outline rounds={result.rounds}\n"
        f"{table}\n"
        "[before = LIR merge then outline; after = outline then "
        "machine-level fold; optimistic must never exceed exact]"
    )
