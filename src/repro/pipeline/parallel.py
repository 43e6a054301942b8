"""Process-parallel compilation helpers (fork-based), with fault tolerance.

Swiftlet sema is whole-program (type ids and closure symbols are numbered
across modules), so the unit of parallelism is the *per-module lowering*
that follows it: SIL -> LIR -> -Osize cleanups in the frontend, and
per-module ``llc`` in the default (Figure 2) pipeline.

Inputs reach a chunk one way: each task carries its own self-contained
payload (the chunk's SIL modules plus a stubbed signature table for
lowering, the chunk's LIR modules for llc).  The same payload feeds a
per-build pool, the persistent cross-build pool, and the serial in-parent
re-run, so concurrent builds share no payload state.  A request for one
worker or one item runs the chunk function in this process, with no pool
and no pickling.

Failure handling is a ladder, not a cliff.  Each chunk independently gets:

1. bounded in-pool retries with backoff (a crash, timeout, or unpicklable
   result burns one attempt; a broken pool is rebuilt);
2. a serial re-run in the parent process once retries are exhausted;
3. only an error raised *by the compiler itself* during that serial
   re-run propagates — as a typed :class:`~repro.errors.ReproError`.

Every step down the ladder is recorded as a structured
:class:`~repro.pipeline.report.DegradationEvent`; none of them can change
the produced binary (bit-identical output is enforced by the determinism
and fault-injection test harnesses).
"""

from __future__ import annotations

import atexit
import concurrent.futures
import multiprocessing
import os
import signal
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BuildError, WorkerCrashError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import Span, Tracer
from repro.pipeline.cancel import CancelScope, checkpoint, clamp_timeout
from repro.pipeline.config import BuildConfig
from repro.pipeline.faults import FaultPlan
from repro.pipeline.report import BuildReport

#: Every live executor, so an interrupted build (KeyboardInterrupt,
#: SIGTERM routed through an exception, daemon drain) can never leave
#: orphaned forked workers behind: `run_chunks` tears its pool down in a
#: ``finally``, and the atexit sweep catches anything that still escaped
#: (e.g. an exception thrown from a signal handler at an awkward point).
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _worker_init() -> None:
    """Runs in every pool worker right after the fork.

    The forking process may have Python-level SIGTERM/SIGINT handlers
    installed (the CLI's interrupt handler, the build daemon's drain
    handler) and it always has this module's atexit sweep registered —
    all inherited by the child.  A worker that keeps them turns
    ``terminate()`` into "raise KeyboardInterrupt, then run the parent's
    teardown logic against inherited pool state", which can deadlock on
    locks that were held at fork time instead of dying.  A build worker
    must simply die on SIGTERM — that is how the executor stops the
    survivors of a pool whose worker crashed.

    A worker forked during a build also inherits that build's pause of
    the cyclic garbage collector (``repro.pipeline.build._CollectorPause``)
    and keeps it for life.  That is correct: every task it runs is build
    work, which reference counting frees completely, and a collector left
    on would walk the heap copied from the parent, faulting its pages into
    private copy-on-write copies.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    try:
        # Ctrl-C is the parent's to coordinate; a worker that dies from
        # it anyway is absorbed by the degradation ladder.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # The inherited pool set refers to the parent's pools; the child's
    # atexit must not try to tear them down.
    _LIVE_POOLS.clear()


def _teardown_pool(pool) -> None:
    """Shut a pool down *now*: cancel queued work and kill its workers.

    ``ProcessPoolExecutor.shutdown`` alone leaves running (or hung)
    workers alive; after an interrupt those become orphaned forks holding
    copy-on-write heaps.  Killing is safe at every call site because
    chunk work is pure and cache publication is atomic (a killed worker
    can at worst leave an unpublished temp file, which the cache reaps).
    It is SIGKILL, not SIGTERM, because a worker forked a moment ago may
    not have run :func:`_worker_init` yet: an inherited Python-level
    SIGTERM handler would then unwind the parent's copied stack in the
    child instead of ending it.
    """
    # Grab the worker and manager-thread handles *before* shutdown: even
    # with wait=False, shutdown() clears them on the executor.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.kill()
        except Exception:
            pass
    # Reap, so dead workers do not linger as zombies in
    # ``multiprocessing.active_children()``.  The executor's manager
    # thread reaps the same workers, and one it reaps first reads as
    # still running here until that thread records its exit code, so
    # wait for the thread too.  The bounds keep teardown prompt.
    for proc in processes:
        try:
            proc.join(timeout=5.0)
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=5.0)
    _LIVE_POOLS.discard(pool)


def _terminate_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        _teardown_pool(pool)


atexit.register(_terminate_live_pools)


# --- persistent pool (survives across builds) --------------------------------
#
# With ``BuildConfig.persistent_workers`` the executor is kept alive at
# module level and reused by every subsequent build in this process (the
# daemon, CLI batch runs), skipping the per-build fork+teardown.  Tasks
# carry their own payload, so a pool forked before this build existed
# serves it exactly like a fresh one.  The fault ladder is unchanged: a
# dead or hung persistent pool is retired (torn down and forgotten) and
# the next retry round forks a fresh one.

_PERSISTENT_LOCK = threading.Lock()
_PERSISTENT_POOL = None
_PERSISTENT_SIZE = 0


def _acquire_persistent_pool(ctx, workers: int):
    """The shared cross-build pool, (re)created at >= ``workers`` size."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        pool = _PERSISTENT_POOL
        if pool is not None and _PERSISTENT_SIZE >= workers:
            obs_trace.metrics().inc("pool.persistent_reused")
            return pool
        if pool is not None:  # too small for this build: grow by replacing
            _PERSISTENT_POOL = None
            _PERSISTENT_SIZE = 0
            _teardown_pool(pool)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_worker_init)
        _LIVE_POOLS.add(pool)
        _PERSISTENT_POOL = pool
        _PERSISTENT_SIZE = workers
        obs_trace.metrics().inc("pool.persistent_created")
        return pool


def _retire_persistent_pool(pool) -> None:
    """Forget (and kill) a persistent pool that went bad."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        if _PERSISTENT_POOL is pool:
            _PERSISTENT_POOL = None
            _PERSISTENT_SIZE = 0
    obs_trace.metrics().inc("pool.persistent_retired")
    _teardown_pool(pool)


def shutdown_persistent_pool() -> None:
    """Tear down the cross-build pool (daemon drain, tests, atexit)."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        pool = _PERSISTENT_POOL
        _PERSISTENT_POOL = None
        _PERSISTENT_SIZE = 0
    if pool is not None:
        _teardown_pool(pool)


def resolve_workers(workers: int) -> int:
    """Translate the config knob into a worker count (0 = auto).

    Uses :func:`os.cpu_count` (which returns ``None`` rather than raising
    when the platform cannot tell, unlike ``multiprocessing.cpu_count``)
    and clamps nonsensical negative requests to serial.
    """
    if workers == 0:
        try:
            count = os.cpu_count()
        except NotImplementedError:  # exotic platforms
            count = None
        return max(1, (count or 2) - 1)
    return max(1, workers)


# --- chunk workers -----------------------------------------------------------


def _lower_chunk(payload: Dict[str, object],
                 names: Sequence[str]) -> List[Tuple[str, object]]:
    from repro.lir.irgen import ModuleIRGen
    from repro.pipeline.build import optimize_module

    sil_by_name = payload["sil_by_name"]
    signatures = payload["signatures"]
    out = []
    for name in names:
        module = ModuleIRGen(sil_by_name[name], signatures).run()
        optimize_module(module)
        out.append((name, module))
    return out


def _llc_chunk(payload: Dict[str, object],
               indices: Sequence[int]) -> List[Tuple[int, object]]:
    from repro.backend.llc import LLCOptions, run_llc

    lir_modules = payload["lir_modules"]
    rounds = payload["outline_rounds"]
    target = payload["target"]
    out = []
    for i in indices:
        module = lir_modules[i]
        llc_out = run_llc(module, LLCOptions(
            outline_rounds=rounds, outlined_name_prefix=f"{module.name}::",
            target=target))
        out.append((i, llc_out))
    return out


_CHUNK_FUNCS = {"lower": _lower_chunk, "llc": _llc_chunk}


# --- pool task (runs in the worker process) ----------------------------------


@dataclass(frozen=True)
class _Task:
    """One chunk attempt shipped to a pool worker, inputs included."""

    kind: str
    chunk: Tuple
    #: Self-contained inputs for this chunk.
    payload: Dict[str, object]
    index: int
    attempt: int
    plan: Optional[FaultPlan]

    @property
    def site(self) -> str:
        return f"{self.kind}:{self.index}:a{self.attempt}"


@dataclass
class _TracedChunk:
    """A chunk result plus the worker-side observability it produced.

    ``fork`` children inherit the parent's *enabled* tracer through the
    ambient contextvar, but mutations to it die with the child — so the
    worker records into a fresh tracer and ships the finished spans and
    metrics back through the result pipe (both are plain picklable
    dataclasses).  The parent grafts them in chunk order.
    """

    result: object
    spans: List[Span]
    metrics: MetricsSnapshot


def _run_task(task: _Task):
    """Pool entry point.  Fault injection happens only here, in the worker
    process — the parent's serial re-runs call the chunk functions
    directly and are therefore immune by construction."""
    if task.plan is not None:
        if task.plan.should_fire("worker_crash", task.site):
            os._exit(17)  # simulate a hard worker death (OOM-kill, segfault)
        if task.plan.should_fire("worker_hang", task.site):
            time.sleep(task.plan.hang_seconds)
    if obs_trace.current_tracer().enabled:
        worker_tracer = Tracer()
        with obs_trace.use_tracer(worker_tracer):
            with worker_tracer.span(f"worker-chunk:{task.kind}",
                                    kind="worker-chunk", chunk=task.index,
                                    attempt=task.attempt,
                                    size=len(task.chunk)):
                inner = _CHUNK_FUNCS[task.kind](task.payload, task.chunk)
        result: object = _TracedChunk(result=inner,
                                      spans=worker_tracer.roots,
                                      metrics=worker_tracer.metrics.snapshot())
    else:
        result = _CHUNK_FUNCS[task.kind](task.payload, task.chunk)
    if (task.plan is not None
            and task.plan.should_fire("pickle_failure", task.site)):
        return lambda: result  # lambdas don't pickle -> result send fails
    return result


# --- the degradation ladder --------------------------------------------------


def _degrade(report: Optional[BuildReport], event: str, phase: str,
             detail: str, chunk: int = -1, attempt: int = 0) -> None:
    if report is not None:
        report.degrade(event, phase=phase, detail=detail, chunk=chunk,
                       attempt=attempt)


def run_chunks(kind: str, *, chunks: Sequence[Tuple],
               chunk_payloads: Sequence[Dict[str, object]],
               workers: int,
               plan: Optional[FaultPlan] = None,
               report: Optional[BuildReport] = None,
               chunk_timeout: Optional[float] = None,
               max_retries: int = 2,
               retry_backoff: float = 0.05,
               fail_fast: bool = False,
               cancel_scope: Optional[CancelScope] = None,
               persistent: bool = False,
               ) -> List[object]:
    """Run every chunk to completion, degrading per-chunk as needed.

    ``chunk_payloads[i]`` holds everything ``chunks[i]`` needs; it is
    shipped with every pool attempt and reused by the serial re-run.
    Returns results aligned with ``chunks``.  Recoverable failures (worker
    crash, hang past ``chunk_timeout``, unpicklable result, no fork, pool
    creation failure) are absorbed by retry / serial re-run and recorded
    on ``report`` under phase ``kind``; only a failure of the serial
    in-parent re-run — a real compiler error — propagates.

    With ``fail_fast=True`` the ladder is disabled: the first chunk
    failure raises a typed error (:class:`~repro.errors.WorkerCrashError`
    for a dead or hung worker, :class:`~repro.errors.BuildError`
    otherwise) instead of degrading.  Useful in CI, where a flaky worker
    should be *noticed*, not papered over.

    With ``persistent=True`` the chunks run on the shared cross-build
    pool (created on first use, reused afterwards) instead of a pool
    private to this call.
    """
    if not chunks:
        return []
    results: Dict[int, object] = {}
    pending = list(range(len(chunks)))

    ctx = None
    if plan is not None and plan.fork_unavailable:
        _degrade(report, "no-fork", kind, "fault injection: fork disabled")
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            _degrade(report, "no-fork", kind,
                     "platform has no fork start method")

    # The pool lives inside a try/finally: *any* exception leaving this
    # function — a fail-fast typed error, a cancellation checkpoint, a
    # KeyboardInterrupt delivered to the main thread — tears the pool
    # down (workers terminated, not just the queue drained), so an
    # interrupted build cannot leak orphaned forks.
    pool = None
    try:
        if ctx is not None:
            for attempt in range(max_retries + 1):
                if not pending:
                    break
                checkpoint(cancel_scope, f"{kind} retry round")
                if pool is None:
                    try:
                        if persistent:
                            pool = _acquire_persistent_pool(ctx, workers)
                        else:
                            pool = concurrent.futures.ProcessPoolExecutor(
                                max_workers=min(workers, len(pending)),
                                mp_context=ctx, initializer=_worker_init)
                            _LIVE_POOLS.add(pool)
                    except Exception as exc:
                        _degrade(report, "pool-unavailable", kind,
                                 f"{type(exc).__name__}: {exc}")
                        break
                if attempt and retry_backoff:
                    time.sleep(retry_backoff * attempt)
                futures = {}
                for i in pending:
                    try:
                        futures[i] = pool.submit(_run_task, _Task(
                            kind=kind, chunk=tuple(chunks[i]),
                            payload=chunk_payloads[i], index=i,
                            attempt=attempt, plan=plan))
                    except BrokenProcessPool as exc:
                        # The pool can already be broken at submit time —
                        # a worker died after the previous round's results
                        # were drained, or a reused persistent pool went
                        # bad between builds.  Same rung as a crash seen
                        # mid-round, not an escape from the ladder.
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{kind} chunk {i}: "
                                f"{exc or 'pool broken at submit'}",
                                chunk=i, attempt=attempt) from exc
                        _degrade(report, "worker-crash", kind,
                                 f"pool broken at submit: "
                                 f"{exc or 'worker process died'}",
                                 chunk=i, attempt=attempt)
                        break
                still: List[int] = [i for i in pending if i not in futures]
                pool_dead = bool(still)
                for i, fut in futures.items():
                    # Re-clamp per future: these waits are sequential, so
                    # one clamp for the whole round could block up to
                    # N_pending × remaining past the job deadline.  Once
                    # the scope's budget hits zero, every later wait
                    # times out immediately and the next retry-round
                    # checkpoint raises the typed deadline error.
                    wait_timeout = clamp_timeout(cancel_scope, chunk_timeout)
                    try:
                        results[i] = fut.result(timeout=wait_timeout)
                    except concurrent.futures.TimeoutError:
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{kind} chunk {i}: no result "
                                f"within {wait_timeout:g}s",
                                chunk=i, attempt=attempt)
                        _degrade(report, "chunk-timeout", kind,
                                 f"no result within {wait_timeout:g}s",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                        pool_dead = True  # a hung worker occupies a slot
                    except BrokenProcessPool as exc:
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{kind} chunk {i}: "
                                f"{exc or 'worker process died'}",
                                chunk=i, attempt=attempt)
                        _degrade(report, "worker-crash", kind,
                                 str(exc) or "worker process died",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                        pool_dead = True
                    except Exception as exc:
                        if fail_fast:
                            raise BuildError(
                                f"{kind} chunk {i} failed: "
                                f"{type(exc).__name__}: {exc}") from exc
                        _degrade(report, "chunk-error", kind,
                                 f"{type(exc).__name__}: {exc}",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                pending = sorted(still)
                if pool_dead:
                    if persistent:
                        _retire_persistent_pool(pool)
                    else:
                        _teardown_pool(pool)
                    pool = None
    finally:
        # A persistent pool outlives the build by design; its teardown
        # happens on retirement (above), daemon drain, or the atexit
        # sweep.  Per-build pools die here no matter how we leave.
        if pool is not None and not persistent:
            _teardown_pool(pool)
            pool = None

    # Last rung: recompile the survivors serially in this process.  The
    # chunk functions are pure, so the result is bit-identical to what a
    # healthy worker would have produced.
    for i in pending:
        checkpoint(cancel_scope, f"{kind} serial re-run")
        _degrade(report, "chunk-serial-rerun", kind,
                 "recompiled in parent after pool attempts exhausted",
                 chunk=i)
        with obs_trace.span(f"serial-rerun:{kind}", kind="chunk",
                            chunk=i, size=len(chunks[i])):
            results[i] = _CHUNK_FUNCS[kind](chunk_payloads[i], chunks[i])

    # Unwrap traced worker results, grafting their spans and metrics onto
    # the parent tracer *in chunk order* (pool completion order is not
    # deterministic; this order is).
    tracer = obs_trace.current_tracer()
    ordered: List[object] = []
    for i in range(len(chunks)):
        result = results[i]
        if isinstance(result, _TracedChunk):
            tracer.adopt(result.spans, track=i + 1)
            tracer.metrics.merge(result.metrics)
            result = result.result
        ordered.append(result)
    return ordered


# --- frontend: SIL -> optimized LIR ------------------------------------------


def _round_robin(items: Sequence, workers: int) -> List[List]:
    chunks = [list(items[i::workers]) for i in range(workers)]
    return [c for c in chunks if c]


def _signature_stubs(signatures: Dict[str, object]) -> Dict[str, object]:
    """Small picklable stand-ins for the whole-program signature table.

    Worker-side IRGen consults only callee parameter/return types
    (``ret_is_float`` / ``arg_floats``), so bodies are dropped before the
    table ships with every chunk.  Batching many modules per chunk (the
    round-robin above) amortizes what pickling remains.
    """
    from repro.sil import sil

    return {symbol: sil.SILFunction(symbol=symbol,
                                    param_types=list(fn.param_types),
                                    ret_type=fn.ret_type,
                                    is_bare=fn.is_bare,
                                    source_module=fn.source_module)
            for symbol, fn in signatures.items()}


def _fan_out(kind: str, chunks: List[List], payloads: List[Dict[str, object]],
             config: BuildConfig,
             report: Optional[BuildReport]) -> List[Tuple]:
    """Run chunks on a pool with the build's worker, fault and pool
    knobs; returns the chunk results' (item, output) pairs, flattened."""
    results = run_chunks(kind, chunks=chunks, chunk_payloads=payloads,
                         workers=resolve_workers(config.workers),
                         plan=config.fault_plan, report=report,
                         chunk_timeout=config.chunk_timeout,
                         max_retries=config.max_chunk_retries,
                         retry_backoff=config.retry_backoff,
                         fail_fast=config.fail_fast,
                         cancel_scope=config.cancel_scope,
                         persistent=config.persistent_workers)
    return [pair for chunk_result in results for pair in chunk_result]


def lower_modules(sil_by_name: Dict[str, object],
                  signatures: Dict[str, object],
                  names: Sequence[str], config: BuildConfig,
                  report: Optional[BuildReport] = None) -> Dict[str, object]:
    """Lower ``names`` to optimized LIR: name -> LIRModule.

    Fans out across ``config.workers`` processes; one worker or one
    module lowers in this process.
    """
    chunks = _round_robin(list(names), resolve_workers(config.workers))
    if len(chunks) <= 1:
        return dict(_lower_chunk({"sil_by_name": sil_by_name,
                                  "signatures": signatures}, names))
    stubs = _signature_stubs(signatures)
    payloads = [{"sil_by_name": {n: sil_by_name[n] for n in chunk},
                 "signatures": stubs}
                for chunk in chunks]
    return dict(_fan_out("lower", chunks, payloads, config, report))


# --- backend: per-module llc (default pipeline) ------------------------------


def llc_modules(lir_modules: Sequence[object], config: BuildConfig,
                report: Optional[BuildReport] = None) -> List[object]:
    """Per-module llc; returns outputs in module order.

    Fans out across ``config.workers`` processes; one worker or one
    module compiles in this process.
    """
    indices = list(range(len(lir_modules)))
    chunks = _round_robin(indices, resolve_workers(config.workers))
    payloads = [{"lir_modules": {i: lir_modules[i] for i in chunk},
                 "outline_rounds": config.outline_rounds,
                 "target": config.target}
                for chunk in chunks]
    if len(chunks) <= 1:
        pairs = _llc_chunk(payloads[0], indices) if chunks else []
    else:
        pairs = _fan_out("llc", chunks, payloads, config, report)
    return [llc_out for _, llc_out in sorted(pairs, key=lambda p: p[0])]
