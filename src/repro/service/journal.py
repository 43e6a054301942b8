"""Append-only crash-recovery job journal (JSONL + atomic checkpoints).

Write-ahead discipline: a job is journaled **before** it is admitted to
the queue, marked ``start`` when an executor picks it up, and ``done``
(with the image digests or the typed error) when it finishes.  Appends
are flushed and fsynced, so after a ``kill -9`` the journal tells the
restarted daemon exactly which jobs were in flight; because builds are
deterministic and cache publication is atomic, *re-running* a journaled
job is indistinguishable from having finished it — bit-identical image or
the same typed error, never a torn cache entry.

A process killed mid-append leaves at most one torn tail line; replay
detects it (bad JSON or missing terminator), counts it, and drops **only
that record** — everything before it is intact because records never span
lines.  The ``journal_torn`` fault site simulates exactly this: the
injected append writes half the record and no newline, and the *next*
append starts with a newline so the corruption stays confined to the one
record a real crash would have lost.  A journal reopened over an
existing file performs the same re-sync when the tail lacks its
terminator, so the first post-restart append is never glued to a line a
real crash tore.

Replay folds the records into :class:`JobState`, the one record of a
job, which the daemon runs and serves as is.  ``checkpoint()`` compacts
the journal by rewriting each job from that state (its ``submit``, then
its ``done`` or one ``start`` carrying its attempt count) into a temp
file and atomically renaming it over the journal — the same
publish-by-rename pattern the cache uses, so a crash mid-checkpoint
leaves the previous journal intact.
"""

from __future__ import annotations

import io
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pipeline.cancel import CancelScope
from repro.pipeline.faults import FaultPlan

#: Finished jobs kept, newest first: the daemon's in-memory window and
#: every ``checkpoint()`` keep the same number, so a restarted daemon
#: answers ``query`` for exactly the jobs the live one did.
DONE_JOBS_KEPT = 256

#: The outcome fields a job carries only once it has them.
_OUTCOME_DICTS = ("image", "report", "error")


@dataclass
class JobState:
    """One job, the one record of it: what the journal's records replay
    into, what the daemon runs and serves, and what compaction rewrites."""

    job_id: str
    sources: Dict[str, str]
    #: The submitted wire config (see :mod:`repro.service.protocol`).
    config: Dict[str, object]
    deadline: Optional[float]
    status: str = "queued"       # queued | running | ok | error
    #: Rebuilt from the journal by a restarted daemon.
    recovered: bool = False
    #: Times an executor picked the job up (>1 ⇒ recovered runs).
    attempts: int = 0
    breaker_open: bool = False
    image: Dict[str, object] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)
    error: Dict[str, object] = field(default_factory=dict)
    # Runtime only, never journaled: set once the job finished, and the
    # deadline scope of its current run.
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False, compare=False)
    scope: Optional[CancelScope] = field(default=None, repr=False,
                                         compare=False)

    @property
    def finished(self) -> bool:
        return self.status in ("ok", "error")

    def outcome(self) -> Dict[str, object]:
        """Attempts, breaker state, and whichever of image, report and
        error the job has: its ``done`` record's payload, and its wire
        view after id, status and ``recovered``."""
        out: Dict[str, object] = {"attempts": self.attempts,
                                  "breaker_open": self.breaker_open}
        for name in _OUTCOME_DICTS:
            if getattr(self, name):
                out[name] = dict(getattr(self, name))
        return out

    def view(self) -> Dict[str, object]:
        return {"id": self.job_id, "status": self.status,
                "recovered": self.recovered, **self.outcome()}

    def fold(self, record: Dict[str, object]) -> None:
        """Take a replayed ``start`` or ``done`` record into the job."""
        if record.get("rec") == "start":
            # The recorded attempt number, not a count of start records:
            # compaction keeps one start record per pending job.
            self.attempts = int(record.get("attempt", self.attempts + 1))
        elif record.get("rec") == "done":
            self.status = str(record.get("status", "error"))
            self.attempts = int(record.get("attempts", self.attempts))
            self.breaker_open = bool(record.get("breaker_open", False))
            for name in _OUTCOME_DICTS:
                setattr(self, name, dict(record.get(name) or {}))
            self.done.set()


@dataclass
class ReplayResult:
    #: Every job the journal holds, in journal order: pending jobs as they
    #: were submitted, finished jobs as they finished.
    jobs: Dict[str, JobState] = field(default_factory=dict)
    torn_records: int = 0

    @property
    def pending(self) -> List[JobState]:
        return [job for job in self.jobs.values() if not job.finished]


class JobJournal:
    """One JSONL journal file under the daemon's state dir."""

    def __init__(self, path: str, fault_plan: Optional[FaultPlan] = None):
        self.path = path
        self.fault_plan = fault_plan
        self._fh = None
        #: Set when an injected torn append left the tail unterminated;
        #: the next append re-synchronises with a leading newline.
        self._tail_torn = False

    # -- appending -----------------------------------------------------------

    def _open(self):
        if self._fh is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            # A process killed mid-append (a *real* crash, not just the
            # fault site) leaves the journal without a trailing newline.
            # A restarted journal must re-sync before its first append,
            # or that append would concatenate onto the torn line and be
            # silently dropped by every later replay — losing a record
            # that the write-ahead contract promised was durable.
            try:
                with open(self.path, "rb") as existing:
                    existing.seek(-1, os.SEEK_END)
                    if existing.read(1) != b"\n":
                        self._tail_torn = True
            except (OSError, ValueError):
                pass  # missing or empty journal: nothing to re-sync
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, record: Dict[str, object]) -> bool:
        """Durably append one record; False if an injected tear ate it.

        Keys stay in insertion order — the ``sources`` map's order is
        semantic (module order fixes type-id bases and data layout), and
        a replayed job must rebuild the *same* program.
        """
        data = json.dumps(record, separators=(",", ":"))
        blob = data.encode("utf-8") + b"\n"
        fh = self._open()
        if self._tail_torn:
            fh.write(b"\n")
            self._tail_torn = False
        torn = (self.fault_plan is not None
                and self.fault_plan.should_fire(
                    "journal_torn",
                    f"append:{record.get('rec')}:{record.get('id')}"))
        if torn:
            fh.write(blob[:max(1, len(blob) // 2)].rstrip(b"\n"))
            self._tail_torn = True
        else:
            fh.write(blob)
        fh.flush()
        try:
            os.fsync(fh.fileno())
        except OSError:
            pass
        return not torn

    def submitted(self, job_id: str, sources: Dict[str, str],
                  config: Dict[str, object],
                  deadline: Optional[float]) -> None:
        self.append({"rec": "submit", "id": job_id, "sources": sources,
                     "config": config, "deadline": deadline})

    def started(self, job_id: str, attempt: int) -> None:
        self.append({"rec": "start", "id": job_id, "attempt": attempt})

    def done(self, job_id: str, status: str,
             payload: Dict[str, object]) -> None:
        self.append({"rec": "done", "id": job_id, "status": status,
                     **payload})

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # -- replay --------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Fold the journal's records into job states (tolerates a torn
        tail)."""
        result = ReplayResult()
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return result
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                result.torn_records += 1
                continue
            if not isinstance(record, dict):
                result.torn_records += 1
                continue
            job_id = str(record.get("id", ""))
            kind = record.get("rec")
            if kind == "submit":
                result.jobs[job_id] = JobState(
                    job_id=job_id,
                    sources={str(k): str(v) for k, v in
                             (record.get("sources") or {}).items()},
                    config=dict(record.get("config") or {}),
                    deadline=record.get("deadline"), recovered=True)
            elif kind == "start" and job_id in result.jobs:
                result.jobs[job_id].fold(record)
            elif kind == "done" and job_id in result.jobs:
                # A finished job moves to the end: finished jobs stand in
                # the order they finished, as the daemon's window has them.
                job = result.jobs.pop(job_id)
                job.fold(record)
                result.jobs[job_id] = job
        return result

    # -- compaction ----------------------------------------------------------

    def checkpoint(self, keep_done: int = DONE_JOBS_KEPT) -> ReplayResult:
        """Atomically rewrite the journal in compacted form.

        Each job is rewritten from its replayed state through the same
        record methods the daemon appends with: its ``submit`` record,
        then its ``done`` record once it finished, or else one ``start``
        record carrying its attempt count once it ran.  Only the newest
        ``keep_done`` finished jobs are kept, so the journal cannot grow
        without bound under a long-lived daemon.
        """
        replay = self.replay()
        finished = [job.job_id for job in replay.jobs.values()
                    if job.finished]
        dropped = set(finished[:max(0, len(finished) - keep_done)])
        compacted = JobJournal(self.path + ".ckpt.tmp")
        # Records collect in memory (append's fsync is a no-op there); the
        # file below gets one fsync for the lot before the rename.
        compacted._fh = io.BytesIO()
        for job in replay.jobs.values():
            if job.job_id in dropped:
                continue
            compacted.submitted(job.job_id, job.sources, job.config,
                                job.deadline)
            if job.finished:
                compacted.done(job.job_id, job.status, job.outcome())
            elif job.attempts:
                compacted.started(job.job_id, job.attempts)
        with open(compacted.path, "wb") as fh:
            fh.write(compacted._fh.getvalue())
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:
                pass
        self.close()
        os.replace(compacted.path, self.path)
        self._tail_torn = False
        return replay
