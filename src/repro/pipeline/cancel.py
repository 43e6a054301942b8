"""Cooperative per-job cancellation and deadlines.

A :class:`CancelScope` travels with one build (``BuildConfig.cancel_scope``)
and is *checked*, never polled asynchronously: the orchestrator calls
:meth:`CancelScope.check` at phase boundaries and between parallel-chunk
rounds, so cancellation lands at well-defined points where the worker pool
for that build — and only that build — can be torn down cleanly.  A build
that is cancelled can therefore never publish a partial cache entry or
leave orphaned forks behind: the checkpoint raises before the next unit of
work starts, and the pool teardown in :mod:`repro.pipeline.parallel` runs
on the way out.

Two typed outcomes, both subclasses of
:class:`~repro.errors.BuildError`:

* :class:`~repro.errors.DeadlineExpiredError` — the scope's monotonic
  deadline passed;
* :class:`~repro.errors.JobCancelledError` — someone called
  :meth:`CancelScope.cancel`.  Nothing in the toolchain does today: the
  daemon's drain lets running jobs finish, and a client that hangs up
  leaves its job running; only tests cancel a scope.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import DeadlineExpiredError, JobCancelledError


class CancelScope:
    """Cancellation token with an optional monotonic deadline.

    Thread-safe, so another thread may cancel a scope an executor thread
    is checking.  ``deadline_seconds`` is relative to construction time.
    """

    def __init__(self, deadline_seconds: Optional[float] = None,
                 label: str = ""):
        self.label = label
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""
        self._deadline: Optional[float] = None
        if deadline_seconds is not None:
            self._deadline = time.monotonic() + max(0.0, deadline_seconds)

    # -- state ---------------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def deadline_expired(self) -> bool:
        return (self._deadline is not None
                and time.monotonic() >= self._deadline)

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (None = no deadline; never < 0)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    # -- the checkpoint ------------------------------------------------------

    def check(self, where: str = "") -> None:
        """Raise the typed cancellation error if the scope is dead.

        Call at every point where abandoning the build is safe (phase
        boundaries, between chunk-retry rounds).  A no-op on a live scope,
        so sprinkling checkpoints is free.
        """
        at = f" at {where}" if where else ""
        job = f" (job {self.label})" if self.label else ""
        if self.deadline_expired:
            raise DeadlineExpiredError(
                f"deadline expired{at}{job}")
        with self._lock:
            if self._cancelled:
                reason = self._reason
            else:
                return
        raise JobCancelledError(f"{reason}{at}{job}")


def checkpoint(scope: Optional[CancelScope], where: str = "") -> None:
    """``scope.check(where)`` that tolerates ``scope is None``."""
    if scope is not None:
        scope.check(where)


def clamp_timeout(scope: Optional[CancelScope],
                  timeout: Optional[float]) -> Optional[float]:
    """Smallest of ``timeout`` and the scope's remaining budget.

    Used for blocking waits (chunk futures) so a build never sleeps past
    its own deadline waiting on a worker.
    """
    if scope is None:
        return timeout
    remaining = scope.remaining()
    if remaining is None:
        return timeout
    if timeout is None:
        return remaining
    return min(timeout, remaining)
