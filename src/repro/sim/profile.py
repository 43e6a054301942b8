"""Execution profiles for profile-guided function layout.

A :class:`ProfileCollector` rides along on a :class:`~repro.sim.cpu.CPU`
run and records, at call opcodes only (the fetch/execute loop stays
uninstrumented), every **caller -> callee call edge** (BL, BLR, and tail
calls): the input to the C3-style cluster-and-merge layout pass in
:mod:`repro.link.funclayout`.

The serialized :class:`LayoutProfile` is keyed by *function name*, never
by address, so a profile collected under one layout is valid input for
relinking under any other — the fixed point the layout experiment relies
on.  Serialization is canonical (sorted keys, no timestamps, no floats),
which makes the JSON bytes content-addressable: :meth:`LayoutProfile.digest`
is a safe build-cache-key ingredient, and the determinism harness asserts
byte-identical profiles across processes and worker counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ProfileError

#: Bump when the serialized shape changes; load() rejects other versions.
PROFILE_VERSION = 2


@dataclass
class LayoutProfile:
    """A deterministic, name-keyed call-graph profile of one execution."""

    #: caller name -> callee name -> dynamic call count.
    calls: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Target the profiled image was linked for (informational).
    target: str = ""
    #: Entry symbol the profiled run started from (informational).
    entry: str = ""

    # -- derived views ------------------------------------------------------

    def edge_weights(self) -> Dict[Tuple[str, str], int]:
        """Flat (caller, callee) -> count map for the layout pass."""
        return {(caller, callee): count
                for caller, callees in self.calls.items()
                for callee, count in callees.items()}

    @property
    def num_edges(self) -> int:
        return sum(len(callees) for callees in self.calls.values())

    @property
    def num_functions(self) -> int:
        names = set(self.calls)
        for callees in self.calls.values():
            names.update(callees)
        return len(names)

    # -- canonical serialization -------------------------------------------

    def to_json_bytes(self) -> bytes:
        """Canonical bytes: sorted keys, compact separators, no volatile
        fields — two semantically equal profiles serialize identically."""
        payload = {
            "version": PROFILE_VERSION,
            "target": self.target,
            "entry": self.entry,
            "calls": {caller: dict(sorted(callees.items()))
                      for caller, callees in sorted(self.calls.items())},
        }
        return (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")

    def digest(self) -> str:
        """sha256 of the canonical bytes (the content address)."""
        return hashlib.sha256(self.to_json_bytes()).hexdigest()

    def save(self, path: str) -> str:
        """Write the canonical JSON to *path*; returns the digest."""
        data = self.to_json_bytes()
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ProfileError(f"cannot write profile {path!r}: {exc}") \
                from exc
        return hashlib.sha256(data).hexdigest()

    @classmethod
    def load(cls, path: str) -> "LayoutProfile":
        """Read and validate a serialized profile; typed error on junk."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ProfileError(f"cannot read profile {path!r}: {exc}") \
                from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProfileError(f"profile {path!r} is not valid JSON: {exc}") \
                from exc
        if not isinstance(payload, dict):
            raise ProfileError(f"profile {path!r}: top level must be an "
                               f"object, got {type(payload).__name__}")
        version = payload.get("version")
        if version != PROFILE_VERSION:
            raise ProfileError(
                f"profile {path!r} has version {version!r}; this toolchain "
                f"reads version {PROFILE_VERSION}")
        calls = payload.get("calls", {})
        if not isinstance(calls, dict):
            raise ProfileError(f"profile {path!r}: 'calls' must be an "
                               f"object")
        out_calls: Dict[str, Dict[str, int]] = {}
        for caller, callees in calls.items():
            if not isinstance(callees, dict):
                raise ProfileError(
                    f"profile {path!r}: calls[{caller!r}] must be an object")
            for callee, count in callees.items():
                if not isinstance(count, int) or count < 0:
                    raise ProfileError(
                        f"profile {path!r}: calls[{caller!r}][{callee!r}] "
                        f"must be a non-negative int, got {count!r}")
            out_calls[str(caller)] = {str(k): v for k, v in callees.items()}
        return cls(calls=out_calls, target=str(payload.get("target", "")),
                   entry=str(payload.get("entry", "")))


def profile_file_digest(path: str) -> str:
    """Digest of an on-disk profile for cache-key fingerprints.

    Loads through :meth:`LayoutProfile.load` (so a corrupt or mis-versioned
    file raises :class:`ProfileError` at fingerprint time, before it can
    key a cache entry) and re-digests the canonical bytes, making the
    fingerprint independent of incidental whitespace in the file.
    """
    return LayoutProfile.load(path).digest()


class ProfileCollector:
    """Records raw address-level transfers during a run; address->name
    resolution is deferred to :meth:`finalize` so the per-event cost is a
    dict increment and the hot loop never does extent lookups."""

    def __init__(self) -> None:
        self._call_pairs: Dict[Tuple[int, int], int] = {}

    # -- event hook (called from CPU._execute on call opcodes only) --------

    def on_call(self, src_pc: int, dst_addr: int) -> None:
        key = (src_pc, dst_addr)
        self._call_pairs[key] = self._call_pairs.get(key, 0) + 1

    @property
    def raw_transfers(self) -> int:
        return sum(self._call_pairs.values())

    # -- resolution ---------------------------------------------------------

    def finalize(self, image, entry: Optional[str] = None) -> LayoutProfile:
        """Resolve addresses to function names against *image*.

        Transfers into runtime stubs (native calls) and indirect calls
        into non-text addresses are dropped: the layout pass can only
        place functions that exist in ``__text``.
        """
        calls: Dict[str, Dict[str, int]] = {}
        for (src, dst), count in sorted(self._call_pairs.items()):
            caller = image.function_at(src)
            callee = image.function_at(dst)
            if caller is None or callee is None:
                continue
            callees = calls.setdefault(caller.name, {})
            callees[callee.name] = callees.get(callee.name, 0) + count
        return LayoutProfile(calls=calls, target=image.target_name,
                             entry=entry or image.entry_symbol or "")
