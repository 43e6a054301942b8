"""Unit tests for the target abstraction (repro.target).

Covers the width model's narrowing rules, the derived outlining
overheads, registry behaviour (including the ``REPRO_TARGET`` override),
fingerprint stability, and a grep-based lint that keeps instruction-width
arithmetic from leaking back outside ``isa/`` and ``target/``.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.isa.instructions import MachineInstr, Opcode, Sym
from repro.target import (
    available_targets,
    default_target_name,
    get_target,
)
from repro.target.arm64 import ARM64
from repro.target.thumb2c import THUMB2C


# --- registry ----------------------------------------------------------------


def test_registry_lists_both_shipped_targets():
    assert "arm64" in available_targets()
    assert "thumb2c" in available_targets()


def test_get_target_accepts_name_spec_and_none():
    assert get_target("arm64") is ARM64
    assert get_target(THUMB2C) is THUMB2C
    assert get_target(None).name == default_target_name()


def test_get_target_unknown_name_raises_with_choices():
    with pytest.raises(KeyError, match="arm64"):
        get_target("riscv128")


def test_repro_target_env_var_sets_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_TARGET", "thumb2c")
    assert default_target_name() == "thumb2c"
    assert get_target(None) is THUMB2C
    monkeypatch.delenv("REPRO_TARGET")
    assert default_target_name() == "arm64"


# --- width model -------------------------------------------------------------


def test_arm64_is_fixed_width_four_bytes():
    assert ARM64.is_fixed_width
    assert ARM64.min_instr_bytes == 4
    assert ARM64.instr_bytes(MachineInstr(Opcode.NOP)) == 4
    assert ARM64.instr_bytes(
        MachineInstr(Opcode.ADDXri, ["x0", "x1", 2])) == 4


def test_thumb2c_narrows_small_register_ops():
    assert not THUMB2C.is_fixed_width
    assert THUMB2C.min_instr_bytes == 2
    assert THUMB2C.instr_bytes(
        MachineInstr(Opcode.ADDXri, ["x0", "x1", 2])) == 2
    assert THUMB2C.instr_bytes(MachineInstr(Opcode.RET)) == 2


def test_thumb2c_wide_when_immediate_is_large():
    small = MachineInstr(Opcode.MOVZXi, ["x0", 255])
    large = MachineInstr(Opcode.MOVZXi, ["x0", 256])
    assert THUMB2C.instr_bytes(small) == 2
    assert THUMB2C.instr_bytes(large) == 4


def test_thumb2c_symbolic_operands_are_always_wide():
    # A BL/ADRP-style symbolic reference needs a full-width relocation
    # even when the opcode itself is in the narrow set.
    assert THUMB2C.instr_bytes(MachineInstr(Opcode.B, [Sym("f")])) == 4
    label_branch = MachineInstr(Opcode.B, ["L1"])
    # Render-level labels stay eligible for the narrow encoding; only the
    # opcode not being narrow (or a big imm) widens them.
    assert THUMB2C.instr_bytes(label_branch) == 2


def test_thumb2c_non_narrow_opcode_stays_wide():
    assert THUMB2C.instr_bytes(
        MachineInstr(Opcode.STRXpre, ["lr", "sp", -16])) == 4


def test_seq_and_alignment_helpers():
    seq = [MachineInstr(Opcode.RET)]
    assert ARM64.seq_bytes(seq) == 4
    assert THUMB2C.seq_bytes(seq) == 2
    assert THUMB2C.align_up(2) == 4
    assert THUMB2C.align_up(4) == 4
    assert ARM64.align_up(5) == 8


# --- derived outlining overheads ---------------------------------------------


def test_arm64_outline_overheads_match_fixed_width():
    assert ARM64.outline_call_bytes == 4
    assert ARM64.outline_ret_bytes == 4
    assert ARM64.outline_lr_save_bytes == 4
    assert ARM64.call_site_alignment_slack == 0


def test_thumb2c_outline_overheads_follow_the_width_model():
    # BL <sym> is symbolic, so the call stays wide; RET narrows; the
    # LR save/restore pair uses pre/post-index ops outside the narrow set.
    assert THUMB2C.outline_call_bytes == 4
    assert THUMB2C.outline_ret_bytes == 2
    assert THUMB2C.outline_lr_save_bytes == 4
    assert THUMB2C.outline_lr_restore_bytes == 4
    assert THUMB2C.call_site_alignment_slack == 2


# --- fingerprints ------------------------------------------------------------


def test_fingerprints_are_stable_and_distinct():
    assert ARM64.fingerprint() != THUMB2C.fingerprint()
    assert ARM64.fingerprint() == ARM64.fingerprint()


def test_fingerprint_is_stable_across_processes():
    # frozenset/enum iteration order varies across interpreter runs with
    # hash randomization; the fingerprint must not.
    code = ("from repro.target.thumb2c import THUMB2C;"
            "print(THUMB2C.fingerprint())")
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    a = subprocess.run([sys.executable, "-c", code], env=env, cwd=_repo_root(),
                       capture_output=True, text=True, check=True)
    env["PYTHONHASHSEED"] = "424242"
    b = subprocess.run([sys.executable, "-c", code], env=env, cwd=_repo_root(),
                       capture_output=True, text=True, check=True)
    assert a.stdout == b.stdout == THUMB2C.fingerprint() + "\n"


def test_spec_is_frozen():
    with pytest.raises(Exception):
        ARM64.function_alignment = 8  # type: ignore[misc]


# --- width-arithmetic lint ---------------------------------------------------

#: Modules allowed to import INSTR_BYTES: the ISA itself, the target specs
#: built from it, and the two link-layer owners of the fixed-width uniform
#: address rule (binary image fast path + linker fast path / stub stride).
#: Everything else must go through a TargetSpec.  Add to this list only
#: with a comment explaining why the module cannot take a spec.
_INSTR_BYTES_ALLOWED = {
    "src/repro/isa",
    "src/repro/target",
    "src/repro/link/binary.py",
    "src/repro/link/linker.py",
}


def _repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def test_no_new_bare_instr_bytes_imports_outside_isa_and_target():
    root = _repo_root()
    pattern = re.compile(r"^\s*from\s+repro\.isa[.\w]*\s+import\s+.*\bINSTR_BYTES\b"
                         r"|^\s*import\s+repro\.isa\.instructions\b",
                         re.MULTILINE)
    offenders = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if any(rel == allowed or rel.startswith(allowed + "/")
                   for allowed in _INSTR_BYTES_ALLOWED):
                continue
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if pattern.search(text):
                offenders.append(rel)
    assert not offenders, (
        f"bare INSTR_BYTES imports outside isa/, target/ and the "
        f"allowlisted link fast paths: {offenders}; use "
        f"TargetSpec.instr_bytes()/seq_bytes() instead")
