"""Deterministic, seeded fault injection for the build pipeline.

Every degradation path in the orchestrator — a crashed worker, a hung
chunk, a platform without ``fork``, an unpicklable result, a corrupted or
torn cache entry — is exercisable on demand through a :class:`FaultPlan`
wired in via ``BuildConfig.fault_plan``.  The hard invariant the plan
exists to test: under *any* injected fault the build either produces an
image bit-identical to the fault-free serial build or raises a typed
:class:`~repro.errors.ReproError` — never a silently different binary.

Decisions are a pure function of ``(seed, site)``: the same plan asked
about the same site always answers the same way, in any process, in any
order.  Sites include the attempt number (``lower:3:a1``), so a fault can
be *transient* — the retry of a chunk draws a fresh decision — which is
exactly how real flaky infrastructure behaves.  Rates of ``1.0`` make a
fault *persistent* and force the ladder all the way down to the in-parent
serial re-run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, Optional

#: Fault kinds a plan can inject, with the rate field controlling each.
FAULT_KINDS = (
    "worker_crash",      # worker process dies with os._exit mid-chunk
    "worker_hang",       # worker sleeps past the per-chunk deadline
    "pickle_failure",    # worker result cannot be pickled back to the parent
    "cache_corrupt",     # on-disk cache entry bytes are scrambled before load
    "torn_write",        # cache store crashes before the atomic rename
    # Service-level sites (evaluated by the build daemon / client):
    "client_disconnect", # peer socket drops before the response is sent
    "journal_torn",      # a journal append stops mid-record (no newline)
    "deadline_expire",   # a job's deadline is forced to zero on admission
    "sigterm_midphase",  # the daemon begins a graceful drain mid-job
)


def _unit_interval(seed: int, site: str) -> float:
    """Uniform [0, 1) value derived from (seed, site) — stable everywhere."""
    digest = hashlib.sha256(f"{seed}\x00{site}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injected faults (picklable, immutable).

    All ``*_rate`` fields are probabilities in [0, 1] evaluated per site;
    0 disables the fault class entirely.
    """

    seed: int = 0
    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    pickle_failure_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    torn_write_rate: float = 0.0
    client_disconnect_rate: float = 0.0
    journal_torn_rate: float = 0.0
    deadline_expire_rate: float = 0.0
    sigterm_midphase_rate: float = 0.0
    #: Pretend multiprocessing has no "fork" start method.
    fork_unavailable: bool = False
    #: How long an injected hang sleeps (kept short so tests stay fast,
    #: but longer than any per-chunk deadline a test would configure).
    hang_seconds: float = 0.5

    _RATE_OF_KIND = {
        "worker_crash": "worker_crash_rate",
        "worker_hang": "worker_hang_rate",
        "pickle_failure": "pickle_failure_rate",
        "cache_corrupt": "cache_corrupt_rate",
        "torn_write": "torn_write_rate",
        "client_disconnect": "client_disconnect_rate",
        "journal_torn": "journal_torn_rate",
        "deadline_expire": "deadline_expire_rate",
        "sigterm_midphase": "sigterm_midphase_rate",
    }

    def should_fire(self, kind: str, site: str) -> bool:
        """Deterministically decide whether fault ``kind`` hits ``site``."""
        rate = getattr(self, self._RATE_OF_KIND[kind])
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return _unit_interval(self.seed, f"{kind}:{site}") < rate

    # -- CLI / config parsing -------------------------------------------

    _PARSE_KEYS = {
        "seed": ("seed", int),
        "crash": ("worker_crash_rate", float),
        "hang": ("worker_hang_rate", float),
        "pickle": ("pickle_failure_rate", float),
        "corrupt": ("cache_corrupt_rate", float),
        "torn": ("torn_write_rate", float),
        "disconnect": ("client_disconnect_rate", float),
        "jtorn": ("journal_torn_rate", float),
        "deadline": ("deadline_expire_rate", float),
        "sigterm": ("sigterm_midphase_rate", float),
        "nofork": ("fork_unavailable", lambda v: bool(int(v))),
        "hangsecs": ("hang_seconds", float),
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``"seed=7,crash=0.3,corrupt=1"`` syntax.

        Raises ``ValueError`` on unknown keys or malformed values so the
        CLI can reject a bad ``--inject-faults`` argument up front.
        """
        kwargs: Dict[str, object] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, value = part.partition("=")
            if not sep or key not in cls._PARSE_KEYS:
                known = ", ".join(sorted(cls._PARSE_KEYS))
                raise ValueError(
                    f"bad fault spec {part!r} (known keys: {known})")
            field_name, convert = cls._PARSE_KEYS[key]
            kwargs[field_name] = convert(value)
        return cls(**kwargs)  # type: ignore[arg-type]


def describe(plan: Optional[FaultPlan]) -> str:
    """One-line human description of a plan ("faults off" when None)."""
    if plan is None:
        return "faults off"
    parts = [f"seed={plan.seed}"]
    for f in fields(plan):
        if f.name in ("seed", "hang_seconds"):
            continue
        value = getattr(plan, f.name)
        if value:
            parts.append(f"{f.name}={value}")
    return "fault plan: " + ", ".join(parts)
