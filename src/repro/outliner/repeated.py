"""Repeated machine outlining (the paper's core contribution, §V-B).

Instead of discarding lengthier candidates whose substrings were already
outlined, the greedy round is simply *re-run*: the new candidates now
contain one or more calls to already-outlined functions and are matched and
outlined like any other instruction sequence (``BL OUTLINED_FUNCTION_N`` is
an ordinary, internable instruction to the mapper).

The externally visible knob is ``rounds`` — the paper's
``-outline-repeat-count=<uint>`` llc flag; Uber ships 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from repro.isa.instructions import MachineFunction, MachineModule
from repro.obs import trace
from repro.outliner.candidates import InstructionMapper
from repro.outliner.machine_outliner import RoundStats, run_one_round
from repro.target.spec import TargetSpec


@dataclass
class OutlineRoundStats:
    """Cumulative statistics after each round (the shape of Table II)."""

    round_no: int
    sequences_outlined: int
    functions_created: int
    outlined_fn_bytes: int
    bytes_saved: int
    #: Per-round (non-cumulative) detail.
    round_detail: RoundStats = None  # type: ignore[assignment]


def repeated_outline(module: MachineModule, rounds: int = 5,
                     name_counter=None, name_prefix: str = "",
                     target: Optional[TargetSpec] = None) -> List[OutlineRoundStats]:
    """Run up to *rounds* outlining rounds over a whole machine module."""
    return repeated_outline_functions(module.functions, rounds,
                                      name_counter, name_prefix, target)


def repeated_outline_functions(functions: List[MachineFunction],
                               rounds: int = 5, name_counter=None,
                               name_prefix: str = "",
                               target: Optional[TargetSpec] = None) -> List[OutlineRoundStats]:
    """Outline repeatedly; later rounds match calls into earlier rounds.

    Every round builds a fresh suffix tree over the program as the round
    before left it.  One :class:`InstructionMapper` serves all rounds, so
    each instruction object is classified once per call: instructions are
    immutable, and the mapper's table holds every object it has seen, so
    no object id is reused while it lives.
    """
    if name_counter is None:
        name_counter = itertools.count(0)
    mapper = InstructionMapper()
    cumulative: List[OutlineRoundStats] = []
    total_seqs = 0
    total_fns = 0
    total_bytes = 0
    total_saved = 0
    metrics = trace.metrics()
    for round_no in range(1, rounds + 1):
        with trace.span("outline-round", kind="outline-round",
                        round_no=round_no, prefix=name_prefix) as span:
            stats = run_one_round(functions, name_counter, round_no=round_no,
                                  name_prefix=name_prefix, target=target,
                                  mapper=mapper)
            span.annotate(candidates=stats.candidates_considered,
                          sequences_outlined=stats.sequences_outlined,
                          functions_created=stats.functions_created,
                          bytes_saved=stats.bytes_saved)
        metrics.inc("outliner.rounds")
        metrics.inc("outliner.candidates", stats.candidates_considered)
        metrics.inc("outliner.sequences_outlined", stats.sequences_outlined)
        metrics.inc("outliner.functions_created", stats.functions_created)
        metrics.inc("outliner.bytes_saved", stats.bytes_saved)
        metrics.observe("outliner.round_bytes_saved", stats.bytes_saved)
        total_seqs += stats.sequences_outlined
        total_fns += stats.functions_created
        total_bytes += stats.outlined_fn_bytes
        total_saved += stats.bytes_saved
        cumulative.append(OutlineRoundStats(
            round_no=round_no,
            sequences_outlined=total_seqs,
            functions_created=total_fns,
            outlined_fn_bytes=total_bytes,
            bytes_saved=total_saved,
            round_detail=stats,
        ))
        if stats.functions_created == 0:
            break
    return cumulative
