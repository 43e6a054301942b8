"""Outlining cost model, parameterized by target width model.

Classifies a candidate sequence into the four AArch64-style outlining
classes and prices each in bytes through the target's
:class:`~repro.target.spec.WidthModel` (on ``arm64`` every instruction is
4 bytes, reproducing the paper's fixed-width accounting exactly):

============  ======================  ==============================  =====
class         call at each site       outlined function body          frame
============  ======================  ==============================  =====
tail-call     ``B``                   sequence as-is (ends RET)       0
thunk         ``BL``                  prefix + tail ``B callee``      0
no-LR-save    ``BL``                  sequence + ``RET``              RET
default       ``BL``                  push LR + sequence + pop LR +   3 in.
                                      ``RET`` (body contains calls,
                                      so LR is saved in the outlined
                                      function's own frame)
============  ======================  ==============================  =====

A candidate is profitable iff it saves at least one byte over the whole
binary — the paper's Section IV profitability criterion.  On
variable-width targets the model is deliberately conservative so that an
accepted candidate can never grow the aligned text section:

* the outlined body is priced at its *alignment-padded* size
  (``align_up``), the exact amount the linker will lay out;
* each call site is additionally billed ``call_site_alignment_slack``
  bytes (alignment − minimum width): shrinking a caller body can expose
  at most that much fresh padding at the caller's end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from repro.isa.instructions import MachineInstr, Opcode
from repro.target import get_target
from repro.target.spec import TargetSpec


class OutlineClass(Enum):
    TAIL_CALL = "tail-call"
    THUNK = "thunk"
    NO_LR_SAVE = "no-lr-save"
    DEFAULT = "default"


@dataclass(frozen=True)
class CandidateCost:
    outline_class: OutlineClass
    #: Bytes of instructions inserted at each call site.
    call_bytes: int
    #: Bytes of the outlined function body (alignment-padded).
    outlined_fn_bytes: int
    seq_bytes: int
    #: Per-site worst-case alignment padding exposed by shrinking the
    #: caller (0 on fixed-width targets).
    call_site_slack_bytes: int = 0

    def benefit(self, num_occurrences: int) -> int:
        """Whole-binary byte saving when all occurrences are outlined."""
        before = self.seq_bytes * num_occurrences
        after = ((self.call_bytes + self.call_site_slack_bytes)
                 * num_occurrences + self.outlined_fn_bytes)
        return before - after


def classify(seq: Sequence[MachineInstr]) -> OutlineClass:
    """Determine the outlining class of a candidate sequence."""
    last = seq[-1]
    calls = [i for i, instr in enumerate(seq) if instr.is_call]
    if last.opcode is Opcode.RET:
        return OutlineClass.TAIL_CALL
    if last.opcode is Opcode.BL and len(calls) == 1:
        return OutlineClass.THUNK
    if not calls:
        return OutlineClass.NO_LR_SAVE
    return OutlineClass.DEFAULT


def cost_of(seq: Sequence[MachineInstr],
            target: Union[str, TargetSpec, None] = None) -> CandidateCost:
    spec = get_target(target)
    seq_bytes = spec.seq_bytes(seq)
    slack = spec.call_site_alignment_slack
    cls = classify(seq)
    if cls is OutlineClass.TAIL_CALL:
        return CandidateCost(cls, call_bytes=spec.outline_tail_call_bytes,
                             outlined_fn_bytes=spec.align_up(seq_bytes),
                             seq_bytes=seq_bytes,
                             call_site_slack_bytes=slack)
    if cls is OutlineClass.THUNK:
        # The final BL becomes a tail B; both are symbolic (always wide).
        body = seq_bytes - spec.instr_bytes(seq[-1]) \
            + spec.outline_tail_call_bytes
        return CandidateCost(cls, call_bytes=spec.outline_call_bytes,
                             outlined_fn_bytes=spec.align_up(body),
                             seq_bytes=seq_bytes,
                             call_site_slack_bytes=slack)
    if cls is OutlineClass.NO_LR_SAVE:
        body = seq_bytes + spec.outline_ret_bytes
        return CandidateCost(cls, call_bytes=spec.outline_call_bytes,
                             outlined_fn_bytes=spec.align_up(body),
                             seq_bytes=seq_bytes,
                             call_site_slack_bytes=slack)
    body = (spec.outline_lr_save_bytes + seq_bytes
            + spec.outline_lr_restore_bytes + spec.outline_ret_bytes)
    return CandidateCost(cls, call_bytes=spec.outline_call_bytes,
                         outlined_fn_bytes=spec.align_up(body),
                         seq_bytes=seq_bytes,
                         call_site_slack_bytes=slack)
