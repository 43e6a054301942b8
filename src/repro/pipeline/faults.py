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
import math
from dataclasses import dataclass, field, fields


def _unit_interval(seed: int, site: str) -> float:
    """Uniform [0, 1) value derived from (seed, site) — stable everywhere."""
    digest = hashlib.sha256(f"{seed}\x00{site}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _knob(key: str, default, low=-math.inf, high=math.inf, service=False):
    """A plan field with its ``--inject-faults`` spec key, its legal range,
    and whether only the build daemon reads it."""
    return field(default=default, metadata={"key": key, "range": (low, high),
                                            "service": service})


def _rate(key: str, service: bool = False):
    """The rate of one fault kind: a probability in [0, 1]."""
    return _knob(key, 0.0, 0.0, 1.0, service)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injected faults (picklable, immutable).

    ``<kind>_rate`` is the probability that fault *kind* hits a site; 0
    disables it.  Each field declares its spec key and range once, here,
    and construction rejects a value outside the range.
    """

    seed: int = _knob("seed", 0)
    worker_crash_rate: float = _rate("crash")    # worker os._exit mid-chunk
    worker_hang_rate: float = _rate("hang")      # sleeps past the deadline
    pickle_failure_rate: float = _rate("pickle")  # result will not pickle
    cache_corrupt_rate: float = _rate("corrupt")  # entry scrambled on load
    torn_write_rate: float = _rate("torn")       # store dies before rename
    # Service-level sites, evaluated by the build daemon: the reply is
    # dropped, a journal append stops mid-record, a job's deadline is
    # forced to zero on admission, a graceful drain begins mid-job.
    client_disconnect_rate: float = _rate("disconnect", service=True)
    journal_torn_rate: float = _rate("jtorn", service=True)
    deadline_expire_rate: float = _rate("deadline", service=True)
    sigterm_midphase_rate: float = _rate("sigterm", service=True)
    #: Pretend multiprocessing has no "fork" start method.
    fork_unavailable: bool = _knob("nofork", False)
    #: How long an injected hang sleeps (kept short so tests stay fast,
    #: but longer than any per-chunk deadline a test would configure).
    hang_seconds: float = _knob("hangsecs", 0.5, low=0.0)

    def __post_init__(self) -> None:
        for f in fields(self):
            low, high = f.metadata["range"]
            value = getattr(self, f.name)
            if not low <= value <= high:
                raise ValueError(f"fault plan {f.metadata['key']}={value!r} "
                                 f"is outside [{low:g}, {high:g}]")

    def should_fire(self, kind: str, site: str) -> bool:
        """Deterministically decide whether fault ``kind`` hits ``site``."""
        rate = getattr(self, f"{kind}_rate")
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return _unit_interval(self.seed, f"{kind}:{site}") < rate

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``"seed=7,crash=0.3,corrupt=1"`` syntax.

        Raises ``ValueError`` on unknown keys or malformed or out-of-range
        values so the CLI can reject a bad ``--inject-faults`` argument up
        front.
        """
        by_key = {f.metadata["key"]: f for f in fields(cls)}
        kwargs = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, value = part.partition("=")
            if not sep or key not in by_key:
                raise ValueError(f"bad fault spec {part!r} (known keys: "
                                 f"{spec_keys(service=True)})")
            f = by_key[key]
            kwargs[f.name] = (bool(int(value)) if isinstance(f.default, bool)
                              else type(f.default)(value))
        return cls(**kwargs)


def spec_keys(*, service: bool) -> str:
    """The spec keys a plan parses, in field order: a build's, or with
    *service* also the daemon's."""
    return ", ".join(f.metadata["key"] for f in fields(FaultPlan)
                     if service or not f.metadata["service"])
