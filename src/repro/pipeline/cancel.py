"""Cooperative per-job deadlines.

A :class:`CancelScope` travels with one build (``BuildConfig.cancel_scope``)
and is *checked*, never polled asynchronously: the orchestrator calls
:meth:`CancelScope.check` at phase boundaries and between parallel-chunk
rounds, so an expired deadline lands at well-defined points where the
worker pool for that build — and only that build — can be torn down
cleanly.  A build stopped this way can therefore never publish a partial
cache entry or leave orphaned forks behind: the checkpoint raises the
typed :class:`~repro.errors.DeadlineExpiredError` before the next unit of
work starts, and the pool teardown in :mod:`repro.pipeline.parallel` runs
on the way out.  A deadline is the only way a scope ends a build: the
daemon's drain lets running jobs finish, and a client that hangs up
leaves its job running.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import DeadlineExpiredError


class CancelScope:
    """An optional monotonic deadline, labelled with its job.

    ``deadline_seconds`` is relative to construction time; the scope is
    never mutated afterwards, so any thread may check it.
    """

    def __init__(self, deadline_seconds: Optional[float] = None,
                 label: str = ""):
        self.label = label
        self._deadline: Optional[float] = None
        if deadline_seconds is not None:
            self._deadline = time.monotonic() + max(0.0, deadline_seconds)

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
        """Raise :class:`~repro.errors.DeadlineExpiredError` if the
        deadline passed.

        Call at every point where abandoning the build is safe (phase
        boundaries, between chunk-retry rounds).  A no-op on a live scope,
        so sprinkling checkpoints is free.
        """
        if self.deadline_expired:
            at = f" at {where}" if where else ""
            job = f" (job {self.label})" if self.label else ""
            raise DeadlineExpiredError(f"deadline expired{at}{job}")


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
