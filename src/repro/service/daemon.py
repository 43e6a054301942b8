"""The long-lived build daemon.

One process, three moving parts:

* **Admission** — one job queue under a bounded backlog.  A full backlog
  rejects *immediately* with a typed :class:`~repro.errors.QueueFullError`
  on the wire (depth and limit attached) — backpressure is a first-class
  answer, never a hang.  Admission is write-ahead-journaled: the submit
  record is durable before the job enters the queue, so a ``kill -9`` at
  any later point leaves a recoverable job, never a lost one.

* **Executors** — ``job_workers`` threads, each running one admitted job
  at a time through :func:`repro.pipeline.build.build_program` with its
  own :class:`~repro.pipeline.cancel.CancelScope` (deadline = the job's
  budget).  Deadlines are cooperative and *per job*: an expired
  deadline tears down that job's forked worker pool at the next
  checkpoint and journals a typed ``DeadlineExpiredError``; every other
  job keeps running.

* **Degradation** — the PR 2 ladder extended to service scope.  A
  :class:`CircuitBreaker` watches per-job infrastructure signals (worker
  crashes, cache quarantines/corruption) over a sliding window; past the
  threshold it trips **open** and the next jobs run serial-uncached (the
  always-correct slow path), then it closes again after a cooldown.  All
  of it is visible through the PR 3 metrics registry: queue depth,
  admission rejections, breaker state, per-job latency histograms.

Graceful drain (SIGTERM/SIGINT or a ``drain`` frame): stop admitting —
late submitters get a typed rejection — run what is queued or in
flight, checkpoint the journal, and hand back a typed summary.

Restart recovery: replay the journal, queue every job that has a
``submit`` record but no ``done`` record in journal order, ahead of any
new submission (bypassing the admission check — recovered jobs were
already admitted once), and serve completed results straight from the
journal.  Determinism + atomic cache publication make the re-run
bit-identical to the build the crash interrupted.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import socket
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional

from repro.errors import (
    CacheCorruptionError,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.build import build_program
from repro.pipeline.cache import ModuleCache
from repro.pipeline.cancel import CancelScope
from repro.pipeline.config import BuildConfig
from repro.pipeline.faults import FaultPlan
from repro.service.journal import DONE_JOBS_KEPT, JobJournal, JobState
from repro.service.protocol import (
    PROTOCOL_VERSION,
    config_from_wire,
    error_to_wire,
    image_summary,
    recv_frame,
    send_frame,
)

#: Degradation kinds that indicate *infrastructure* trouble (breaker input),
#: as opposed to e.g. a client's own source errors.
INFRA_DEGRADATIONS = frozenset({
    "worker-crash", "chunk-timeout", "chunk-error", "pool-unavailable",
    "chunk-serial-rerun", "cache-quarantine", "cache-store-failed",
})

#: Extra seconds a waiting connection hangs on past the job deadline
#: before getting a typed "still running" answer instead of a result.
WAIT_GRACE_SECONDS = 30.0

#: Finished jobs between journal compactions.
CHECKPOINT_EVERY = 32


@dataclass
class ServiceConfig:
    """Operational knobs for one daemon instance."""

    state_dir: str
    cache_dir: Optional[str] = None          # default: <state_dir>/cache
    queue_size: int = 16
    job_workers: int = 2                     # concurrent jobs (executors)
    build_workers: int = 2                   # forked workers per job
    default_deadline: Optional[float] = 120.0
    chunk_timeout: Optional[float] = 30.0
    breaker_threshold: int = 3
    breaker_window: int = 10
    breaker_cooldown: int = 5
    max_cache_bytes: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None

    def resolved_cache_dir(self) -> str:
        return self.cache_dir or os.path.join(self.state_dir, "cache")


class CircuitBreaker:
    """Count-based breaker over the last ``window`` job outcomes.

    Closed: jobs run with the configured parallel/cached settings.  Once
    ``threshold`` of the last ``window`` jobs showed infrastructure
    failure signals, the breaker opens: the next ``cooldown`` jobs run in
    **serial-uncached** mode — no forked workers to crash, no cache
    entries to corrupt; the always-correct slow path — after which the
    breaker closes with a cleared window.  Thread-safe; state changes are
    deliberately monotonic per record() call so tests can drive it
    deterministically.
    """

    def __init__(self, threshold: int = 3, window: int = 10,
                 cooldown: int = 5):
        self.threshold = max(1, threshold)
        self.cooldown = max(1, cooldown)
        self._outcomes: Deque[int] = collections.deque(maxlen=max(1, window))
        self._lock = threading.Lock()
        self._open_remaining = 0
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return "open" if self._open_remaining > 0 else "closed"

    @property
    def is_open(self) -> bool:
        return self.state == "open"

    def record(self, infra_failure: bool) -> None:
        with self._lock:
            if self._open_remaining > 0:
                self._open_remaining -= 1
                if self._open_remaining <= 0:
                    self._outcomes.clear()
                return
            self._outcomes.append(1 if infra_failure else 0)
            if sum(self._outcomes) >= self.threshold:
                self._open_remaining = self.cooldown
                self.trips += 1


def _preimport_compiler() -> None:
    """Import everything a forked chunk worker needs *before* any fork.

    The daemon forks pools from executor threads; a child that had to
    finish a module import could deadlock on an import lock held by a
    thread that does not exist in the child.  Importing up front makes
    the children's imports cache hits.
    """
    import repro.backend.llc        # noqa: F401
    import repro.lir.irgen          # noqa: F401
    import repro.pipeline.build     # noqa: F401
    import repro.sim.cpu            # noqa: F401


class BuildService:
    """The daemon's engine, importable and testable without a socket.

    ``start()`` recovers the journal and launches executors; the socket
    layer (:meth:`start_server`) is a thin wire adapter on top of
    :meth:`handle_request`.  Tests drive admission, deadlines, recovery
    and the breaker directly through these methods.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache_dir = config.resolved_cache_dir()
        #: The daemon's own build settings, which every job's config takes
        #: over its wire config.  Checked here, once, so a bad one is a
        #: ConfigError before any job is admitted or journaled.
        self._build_settings = dict(
            workers=config.build_workers, incremental=True,
            # Back-to-back jobs reuse one forked worker pool instead of
            # paying a pool spawn per job; a crashed pool is retired and
            # the next job forks a fresh one.
            persistent_workers=True, cache_dir=self.cache_dir,
            chunk_timeout=config.chunk_timeout, fault_plan=config.fault_plan)
        BuildConfig(**self._build_settings)
        os.makedirs(config.state_dir, exist_ok=True)
        #: Shared secret for the wire layer: published only through the
        #: 0600 endpoint file, so socket access is bounded by state-dir
        #: file permissions (the TCP port alone grants nothing).
        self.auth_token = uuid.uuid4().hex
        self.journal = JobJournal(
            os.path.join(config.state_dir, "journal.jsonl"),
            fault_plan=config.fault_plan)
        self.maintenance_cache = ModuleCache(self.cache_dir)
        self.breaker = CircuitBreaker(config.breaker_threshold,
                                      config.breaker_window,
                                      config.breaker_cooldown)
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._lock = threading.Lock()          # jobs / admission / drain
        #: The one job queue: recovered jobs first, in journal order, then
        #: admissions in arrival order.
        self._queue: "queue.Queue[JobState]" = queue.Queue()
        #: Queued-but-not-yet-executing jobs, counted under ``_lock`` — the
        #: admission bound.  ``_queue.qsize()`` alone is racy: many submits
        #: could pass a qsize check before any of their puts land.
        self._backlog = 0
        self._jobs: Dict[str, JobState] = {}
        self._done_order: Deque[str] = collections.deque()
        self._executors: List[threading.Thread] = []
        self._draining = threading.Event()
        self._jobs_since_checkpoint = 0
        self._drain_reason = ""
        self._server = None
        self._server_thread = None
        self.recovered_count = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, reap stale cache temp files, start
        executors."""
        _preimport_compiler()
        # The daemon owns its state dir: nothing else is mid-store at
        # startup, so crashed writers' temp files are reaped regardless
        # of age, and the quarantine is reclaimed right away.
        self.maintenance_cache.prune(
            self.config.max_cache_bytes
            if self.config.max_cache_bytes is not None else (1 << 62),
            tmp_ttl=0.0)
        replay = self.journal.replay()
        if replay.torn_records:
            self._inc("service.journal_torn_records", replay.torn_records)
        with self._lock:
            for job in replay.jobs.values():
                if job.job_id in self._jobs:
                    continue  # admitted by this service before start()
                self._jobs[job.job_id] = job
                if job.finished:
                    self._remember_done(job.job_id)
                else:
                    self._backlog += 1
                    self._queue.put(job)
                    self.recovered_count += 1
                    self._inc("service.jobs_recovered")
        self._update_depth_gauge()
        for i in range(max(1, self.config.job_workers)):
            thread = threading.Thread(target=self._executor_loop,
                                      name=f"repro-exec-{i}", daemon=True)
            thread.start()
            self._executors.append(thread)

    def request_drain(self, reason: str = "drain requested") -> None:
        """Stop admitting; executors exit once the backlog is empty."""
        if not self._draining.is_set():
            self._inc("service.drains")
            self.metrics.set_gauge("service.draining", 1)
            self._drain_reason = reason
            self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Finish/journal in-flight jobs, compact the journal, and return
        a typed summary (what the CLI prints on graceful exit)."""
        self.request_drain()
        deadline = (time.monotonic() + timeout) if timeout else None
        for thread in self._executors:
            remaining = None
            if deadline is not None:
                remaining = max(0.1, deadline - time.monotonic())
            thread.join(timeout=remaining)
        # Anything still queued after the join timeout stays journaled as
        # pending — the next daemon run recovers it (that *is* the typed
        # answer for jobs a drain deadline cut off).
        with self._journal_lock:
            self.journal.checkpoint()
            self.journal.close()
        # The persistent build pool outlives individual jobs by design;
        # drain is where its forked workers finally go away.
        from repro.pipeline.parallel import shutdown_persistent_pool

        shutdown_persistent_pool()
        return self.summary()

    def close(self) -> None:
        self.stop_server()
        self.request_drain("service closed")
        self.drain(timeout=10.0)

    def summary(self) -> Dict[str, object]:
        counters = self.metrics.counters
        with self._lock:
            pending = sum(1 for j in self._jobs.values() if not j.finished)
        out: Dict[str, object] = {
            "jobs_ok": int(counters.get("service.jobs_ok", 0)),
            "jobs_error": int(counters.get("service.jobs_error", 0)),
            "jobs_recovered": int(counters.get("service.jobs_recovered", 0)),
            "rejected_queue_full": int(
                counters.get("service.rejected_queue_full", 0)),
            "rejected_draining": int(
                counters.get("service.rejected_draining", 0)),
            "client_disconnects": int(
                counters.get("service.client_disconnects", 0)),
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "pending_jobs": pending,
        }
        if self._drain_reason:
            out["drain_reason"] = self._drain_reason
        return out

    # -- metrics helpers -----------------------------------------------------

    def _inc(self, name: str, value: float = 1) -> None:
        with self._metrics_lock:
            self.metrics.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.metrics.observe(name, value)

    def _update_depth_gauge(self) -> None:
        with self._metrics_lock:
            self.metrics.set_gauge("service.queue_depth", self._backlog)
            self.metrics.set_gauge("service.breaker_open",
                                   int(self.breaker.is_open))

    # -- admission -----------------------------------------------------------

    def submit_job(self, sources: Dict[str, str],
                   wire_config: Optional[Dict[str, object]] = None,
                   deadline: Optional[float] = None,
                   job_id: Optional[str] = None) -> JobState:
        """Admit one job or raise typed backpressure — never block.

        Order of operations is the crash-safety contract: validate,
        check capacity, journal the submit record (durable), then
        enqueue.  A crash after the journal append can only *re-run* the
        job, never lose it; a rejection never touches the journal.
        """
        wire_config = dict(wire_config or {})
        config_from_wire(wire_config)  # typed validation before admission
        if not sources or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in sources.items()):
            raise ServiceError("submit needs a non-empty {name: source} map")
        if deadline is None:
            deadline = self.config.default_deadline
        job_id = job_id or uuid.uuid4().hex
        plan = self.config.fault_plan
        if (plan is not None
                and plan.should_fire("deadline_expire", f"admit:{job_id}")):
            deadline = 0.0
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing  # idempotent resubmit of a known id
            if self._draining.is_set():
                self._inc("service.rejected_draining")
                raise ServiceError(
                    "daemon is draining; new jobs are not admitted")
            depth = self._backlog
            if depth >= self.config.queue_size:
                self._inc("service.rejected_queue_full")
                raise QueueFullError(
                    f"job queue is full ({depth}/{self.config.queue_size}); "
                    f"retry with backoff", depth=depth,
                    limit=self.config.queue_size)
            job = JobState(job_id=job_id, sources=dict(sources),
                           config=wire_config, deadline=deadline)
            self._jobs[job_id] = job
            self._backlog += 1
        try:
            with self._journal_lock:
                self.journal.submitted(job_id, job.sources, job.config,
                                       deadline)
            self._queue.put(job)
        except BaseException:
            with self._lock:
                self._backlog -= 1
                self._jobs.pop(job_id, None)
            raise
        self._inc("service.admitted")
        self._update_depth_gauge()
        return job

    def job(self, job_id: str) -> JobState:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    # -- executors -----------------------------------------------------------

    def _next_job(self) -> Optional[JobState]:
        try:
            job = self._queue.get(timeout=0.1)
        except queue.Empty:
            return None
        with self._lock:
            self._backlog -= 1
        return job

    def _executor_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                if self._draining.is_set() and self._queue.empty():
                    return
                continue
            self._run_job(job)
            self._update_depth_gauge()

    def _build_config_for(self, job: JobState,
                          breaker_open: bool) -> BuildConfig:
        settings = dict(self._build_settings, cancel_scope=job.scope)
        if breaker_open:
            # Serial-uncached: the always-correct slow path — no forked
            # workers to crash, no cache entries to corrupt or tear.
            settings.update(workers=1, incremental=False,
                            persistent_workers=False)
        return replace(config_from_wire(job.config), **settings)

    def _run_job(self, job: JobState) -> None:
        start = time.monotonic()
        plan = self.config.fault_plan
        if (plan is not None
                and plan.should_fire("sigterm_midphase", f"job:{job.job_id}")):
            # A drain beginning mid-job: this job still finishes (drain
            # never abandons in-flight work) but nothing new is admitted.
            self.request_drain("injected SIGTERM mid-phase")
        job.status = "running"
        job.attempts += 1
        job.breaker_open = self.breaker.is_open
        job.scope = CancelScope(deadline_seconds=job.deadline,
                                label=job.job_id)
        with self._journal_lock:
            self.journal.started(job.job_id, job.attempts)
        infra_failure = False
        try:
            config = self._build_config_for(job, job.breaker_open)
            result = build_program(job.sources, config)
            report = result.report
            infra_failure = any(d.kind in INFRA_DEGRADATIONS
                                for d in report.degradations)
            self._finish(job, "ok", image=image_summary(result.image),
                         report=report.as_dict())
        except ReproError as exc:
            infra_failure = isinstance(exc, CacheCorruptionError)
            self._finish(job, "error", error=error_to_wire(exc))
        except BaseException as exc:  # noqa: BLE001 — executor must survive
            # An unexpected exception still yields a *typed* outcome; the
            # invariant forbids silent executor death as much as hangs.
            infra_failure = True
            self._finish(job, "error", error=error_to_wire(exc))
        finally:
            self.breaker.record(infra_failure)
            elapsed = time.monotonic() - start
            self._observe("service.job_seconds", elapsed)
            self._update_depth_gauge()
            self._maintain()

    def _finish(self, job: JobState, status: str,
                image: Optional[Dict[str, object]] = None,
                report: Optional[Dict[str, object]] = None,
                error: Optional[Dict[str, object]] = None) -> None:
        job.image = image or {}
        job.report = report or {}
        job.error = error or {}
        job.status = status
        with self._journal_lock:
            self.journal.done(job.job_id, status, job.outcome())
            # Under the journal lock, so the window keeps finished jobs in
            # the order their done records went to the journal.
            with self._lock:
                self._remember_done(job.job_id)
        self._inc(f"service.jobs_{status}")
        job.done.set()

    def _remember_done(self, job_id: str) -> None:
        """Bound the in-memory finished-job window to what every
        checkpoint keeps, so a restart answers for the same jobs."""
        self._done_order.append(job_id)
        while len(self._done_order) > DONE_JOBS_KEPT:
            old = self._done_order.popleft()
            job = self._jobs.get(old)
            if job is not None and job.finished:
                self._jobs.pop(old, None)

    def _maintain(self) -> None:
        """Post-job housekeeping: bounded cache, compacted journal."""
        if self.config.max_cache_bytes is not None:
            self.maintenance_cache.prune(self.config.max_cache_bytes)
            stats = self.maintenance_cache.stats
            with self._metrics_lock:
                self.metrics.set_gauge("service.cache_evictions",
                                       stats.evictions)
                self.metrics.set_gauge("service.cache_evicted_bytes",
                                       stats.evicted_bytes)
                self.metrics.set_gauge("service.cache_quarantine_reclaimed",
                                       stats.quarantine_reclaimed)
        self._jobs_since_checkpoint += 1
        if self._jobs_since_checkpoint >= CHECKPOINT_EVERY:
            self._jobs_since_checkpoint = 0
            with self._journal_lock:
                self.journal.checkpoint()

    # -- wire layer ----------------------------------------------------------

    def handle_request(self, request: Dict[str, object]) -> Dict[str, object]:
        """One request frame in, one response frame out (may block for
        ``submit`` with ``wait``)."""
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True,
                        "version": PROTOCOL_VERSION}
            if op == "status":
                return {"ok": True, "summary": self.summary(),
                        "metrics": self.metrics.as_dict()}
            if op == "submit":
                return self._handle_submit(request)
            if op == "query":
                job = self.job(str(request.get("id", "")))
                return self._job_response(job)
            if op == "drain":
                self.request_drain("drain frame received")
                return {"ok": True, "summary": self.summary()}
            raise ServiceError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — every reply is typed
            response: Dict[str, object] = {"ok": False}
            response.update(error_to_wire(exc))
            return response

    def _handle_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        sources = request.get("sources")
        if not isinstance(sources, dict):
            raise ServiceError("submit frame needs a 'sources' object")
        deadline = request.get("deadline")
        if deadline is not None:
            try:
                deadline = float(deadline)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ServiceError(f"bad deadline {deadline!r}")
        # No coercion: submit_job's validation rejects non-string source
        # values with a typed error instead of silently stringifying them.
        job = self.submit_job(
            sources,
            request.get("config") if isinstance(request.get("config"), dict)
            else None,
            deadline=deadline,
            job_id=(str(request["id"]) if request.get("id") else None))
        if not request.get("wait", True):
            return {"ok": True, "job": job.view()}
        budget = (job.deadline if job.deadline is not None
                  else (self.config.default_deadline or 300.0))
        if not job.done.wait(timeout=budget + WAIT_GRACE_SECONDS):
            raise ServiceError(
                f"job {job.job_id} still running past its deadline plus "
                f"{WAIT_GRACE_SECONDS:g}s grace; query it later")
        return self._job_response(job)

    def _job_response(self, job: JobState) -> Dict[str, object]:
        if job.status == "error":
            response: Dict[str, object] = {"ok": False, "job": job.view()}
            response.update(job.error or
                            {"error": "BuildError", "message": "job failed"})
            return response
        return {"ok": True, "job": job.view()}

    # -- socket server -------------------------------------------------------

    def start_server(self, host: str = "127.0.0.1",
                     port: int = 0) -> "tuple[str, int]":
        import socketserver

        service = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # noqa: D401
                try:
                    request = recv_frame(self.rfile)
                except ProtocolError:
                    service._inc("service.client_disconnects")
                    return
                # The socket itself is open to any local user; the shared
                # secret from the 0600 endpoint file is what authorises a
                # frame.  Checked before *any* dispatch — an unauthorised
                # peer cannot submit, query other users' jobs, or drain.
                if request.get("auth") != service.auth_token:
                    service._inc("service.rejected_auth")
                    rejection: Dict[str, object] = {"ok": False}
                    rejection.update(error_to_wire(ServiceError(
                        "authentication failed: frame is missing the "
                        "daemon's token (clients read it from endpoint.json "
                        "in the state dir)")))
                    try:
                        send_frame(self.wfile, rejection)
                    except OSError:
                        service._inc("service.client_disconnects")
                    return
                response = service.handle_request(request)
                plan = service.config.fault_plan
                site = (f"reply:{request.get('id') or request.get('op')}")
                if (plan is not None
                        and plan.should_fire("client_disconnect", site)):
                    # Injected mid-stream drop: the admitted job (if any)
                    # runs to completion and stays queryable; only this
                    # connection dies.
                    service._inc("service.client_disconnects")
                    return
                try:
                    send_frame(self.wfile, response)
                except OSError:
                    service._inc("service.client_disconnects")
                if request.get("op") == "drain":
                    shutdown = threading.Thread(
                        target=self.server.shutdown, daemon=True)
                    shutdown.start()

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True
            # Every client of a burst gets its answer (a job or typed
            # backpressure) at once.  socketserver's default backlog of 5
            # drops the rest of a burst's connections, and the kernel
            # retries each only after its 1 s SYN timeout.
            request_queue_size = socket.SOMAXCONN

        self._server = _Server((host, port), _Handler)
        bound_host, bound_port = self._server.server_address[:2]
        self._write_endpoint(bound_host, bound_port)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve",
            daemon=True)
        self._server_thread.start()
        return str(bound_host), int(bound_port)

    def stop_server(self) -> None:
        if self._server is not None:
            try:
                self._server.shutdown()
                self._server.server_close()
            except Exception:
                pass
            self._server = None
        try:
            os.unlink(self.endpoint_path(self.config.state_dir))
        except OSError:
            pass

    @staticmethod
    def endpoint_path(state_dir: str) -> str:
        return os.path.join(state_dir, "endpoint.json")

    def _write_endpoint(self, host: str, port: int) -> None:
        path = self.endpoint_path(self.config.state_dir)
        tmp = path + ".tmp"
        # 0600 from birth: the endpoint file carries the auth token, so
        # whoever can read it (the state dir's owner) is exactly who may
        # talk to the daemon.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "port": port, "pid": os.getpid(),
                       "token": self.auth_token}, fh)
        os.replace(tmp, path)
