"""Unit tests for the fault-tolerant chunk runner (pipeline/parallel.py):
the degradation ladder, worker-count resolution, isolation of concurrent
builds, and the one payload path shared by serial, per-build-pool and
persistent-pool lowering and llc."""

import os
import threading

import pytest

from repro.pipeline import BuildConfig, parallel
from repro.pipeline.faults import FaultPlan
from repro.pipeline.report import BuildReport


def _square_chunk(payload, chunk):
    bias = payload["bias"]
    return [x * x + bias for x in chunk]


@pytest.fixture(autouse=True)
def _test_kind(monkeypatch):
    monkeypatch.setitem(parallel._CHUNK_FUNCS, "square", _square_chunk)


def _run(chunks, *, plan=None, report=None, bias=0, workers=2, **kw):
    return parallel.run_chunks("square", chunks=chunks,
                               chunk_payloads=[{"bias": bias}
                                               for _ in chunks],
                               workers=workers, plan=plan, report=report,
                               **kw)


EXPECTED = [[1, 4], [9, 16], [25]]
CHUNKS = [[1, 2], [3, 4], [5]]


class TestResolveWorkers:
    def test_explicit_counts_pass_through(self):
        assert parallel.resolve_workers(3) == 3
        assert parallel.resolve_workers(1) == 1

    def test_auto_uses_os_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 9)
        assert parallel.resolve_workers(0) == 8

    def test_auto_survives_unknown_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel.resolve_workers(0) == 1


class TestLadder:
    def test_healthy_pool(self):
        report = BuildReport()
        assert _run(CHUNKS, report=report) == EXPECTED
        assert report.degradations == []

    def test_worker_crash_retries_then_serial_rerun(self):
        report = BuildReport()
        plan = FaultPlan(seed=1, worker_crash_rate=1.0)
        assert _run(CHUNKS, plan=plan, report=report) == EXPECTED
        kinds = {e.kind for e in report.degradations}
        assert "worker-crash" in kinds
        assert "chunk-serial-rerun" in kinds

    def test_crash_on_every_attempt_walks_each_rung_once(self):
        # One chunk, so no other chunk's crash can break its pool.
        report = BuildReport()
        plan = FaultPlan(seed=1, worker_crash_rate=1.0)
        assert _run([[3, 4]], plan=plan, report=report) == [[9, 16]]
        attempts = parallel.MAX_CHUNK_RETRIES + 1
        assert [e.kind for e in report.degradations] == (
            ["worker-crash"] * attempts + ["chunk-serial-rerun"])
        assert [e.attempt for e in report.degradations[:-1]] == list(
            range(attempts))

    def test_transient_crash_recovers_in_pool(self):
        # With a sub-1.0 rate and fresh decisions per attempt, enough
        # retries let every chunk finish inside the pool eventually; the
        # serial rung stays available either way — all results are right.
        report = BuildReport()
        plan = FaultPlan(seed=2, worker_crash_rate=0.5)
        assert _run(CHUNKS, plan=plan, report=report) == EXPECTED
        assert any(e.kind == "worker-crash" for e in report.degradations)

    def test_hung_chunk_hits_deadline_then_serial_rerun(self):
        report = BuildReport()
        plan = FaultPlan(seed=3, worker_hang_rate=1.0, hang_seconds=5.0)
        assert _run(CHUNKS, plan=plan, report=report,
                    chunk_timeout=0.1) == EXPECTED
        kinds = [e.kind for e in report.degradations]
        assert "chunk-timeout" in kinds
        assert "chunk-serial-rerun" in kinds

    def test_unpicklable_result_degrades(self):
        report = BuildReport()
        plan = FaultPlan(seed=4, pickle_failure_rate=1.0)
        assert _run(CHUNKS, plan=plan, report=report) == EXPECTED
        errors = [e for e in report.degradations if e.kind == "chunk-error"]
        assert errors and "pickle" in errors[0].detail.lower()

    def test_fork_unavailable_runs_serially(self):
        report = BuildReport()
        plan = FaultPlan(seed=5, fork_unavailable=True,
                         worker_crash_rate=1.0)  # workers never exist
        assert _run(CHUNKS, plan=plan, report=report) == EXPECTED
        kinds = [e.kind for e in report.degradations]
        assert kinds.count("no-fork") == 1
        assert kinds.count("chunk-serial-rerun") == len(CHUNKS)

    def test_serial_rerun_failure_propagates(self, monkeypatch):
        def broken(payload, chunk):
            raise ZeroDivisionError("genuine compiler bug")
        monkeypatch.setitem(parallel._CHUNK_FUNCS, "square", broken)
        plan = FaultPlan(seed=6, fork_unavailable=True)
        with pytest.raises(ZeroDivisionError):
            _run(CHUNKS, plan=plan, report=BuildReport())

    def test_empty_chunk_list(self):
        assert _run([]) == []


class TestSharedStateIsolation:
    def test_concurrent_runs_do_not_clobber_each_other(self):
        # Two builds in different threads, each on its own per-build pool,
        # must keep their payloads (bias) apart.
        results = {}
        errors = []

        def build(bias):
            try:
                results[bias] = _run(CHUNKS, bias=bias)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(bias,))
                   for bias in (0, 1000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results[0] == EXPECTED
        assert results[1000] == [[v + 1000 for v in chunk]
                                 for chunk in EXPECTED]


class TestPoolTeardown:
    """An interrupted build, or one past its deadline, must never leak
    forked workers: run_chunks tears its pool down on every exit path, and
    the atexit sweep catches pools that escape."""

    @pytest.fixture(autouse=True)
    def _no_persistent_pool(self):
        # The cross-build persistent pool stays in _LIVE_POOLS by design
        # (earlier tests may have built under the fast-build preset);
        # clear it so the zero-live-pools invariant checks only the
        # per-build pools these tests create.
        parallel.shutdown_persistent_pool()
        yield

    def test_success_leaves_no_live_pools(self, tmp_path):
        report = BuildReport()
        assert _run(CHUNKS, report=report) == EXPECTED
        assert len(parallel._LIVE_POOLS) == 0

    def test_interrupt_mid_round_leaves_no_live_pools(self, monkeypatch):
        # A Ctrl-C lands while the round waits on its first future, with
        # the per-build pool forked: the finally must still tear it down.
        live = []

        def interrupt(scope, timeout):
            live.append(len(parallel._LIVE_POOLS))
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "clamp_timeout", interrupt)
        # The traceback keeps run_chunks' frame, and so its pool, alive:
        # only the teardown can take the pool out of _LIVE_POOLS.
        with pytest.raises(KeyboardInterrupt) as excinfo:
            _run(CHUNKS)
        assert excinfo.traceback
        assert live == [1]
        assert len(parallel._LIVE_POOLS) == 0
        for proc in parallel.multiprocessing.active_children():
            proc.join(timeout=10)
        assert parallel.multiprocessing.active_children() == []

    def test_expired_deadline_is_typed_and_kills_workers(self):
        from repro.errors import DeadlineExpiredError
        from repro.pipeline.cancel import CancelScope

        scope = CancelScope(deadline_seconds=0.0, label="jy")
        with pytest.raises(DeadlineExpiredError):
            _run(CHUNKS, cancel_scope=scope)
        assert len(parallel._LIVE_POOLS) == 0
        for proc in parallel.multiprocessing.active_children():
            proc.join(timeout=10)
        assert parallel.multiprocessing.active_children() == []

    def test_teardown_pool_terminates_running_workers(self):
        import concurrent.futures
        import time as _time

        ctx = parallel.multiprocessing.get_context("fork")
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=2,
                                                      mp_context=ctx)
        pool.submit(_time.sleep, 60)  # occupy a worker for a long time
        deadline = _time.time() + 10
        while not getattr(pool, "_processes", None) and _time.time() < deadline:
            _time.sleep(0.01)
        workers = list(pool._processes.values())
        assert workers
        parallel._LIVE_POOLS.add(pool)
        parallel._terminate_live_pools()  # the atexit sweep
        assert len(parallel._LIVE_POOLS) == 0
        for proc in workers:
            proc.join(timeout=10)
            # Terminated, not still sleeping out its 60s task.
            assert proc.exitcode is not None

    def test_workers_die_despite_inherited_sigterm_handler(self):
        """The CLI and the daemon install Python-level SIGTERM handlers,
        and fork workers inherit them (plus this module's atexit sweep).
        Without the worker initializer resetting the disposition,
        terminate() used to leave such workers wedged in the inherited
        handler/atexit machinery instead of dead — leaking a fork per
        pool for the life of the parent."""
        import concurrent.futures
        import signal
        import time as _time

        def _on_sigterm(signum, frame):  # what the CLI installs
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            ctx = parallel.multiprocessing.get_context("fork")
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=2, mp_context=ctx,
                initializer=parallel._worker_init)
            pool.submit(_time.sleep, 60)
            deadline = _time.time() + 10
            while (not getattr(pool, "_processes", None)
                   and _time.time() < deadline):
                _time.sleep(0.01)
            workers = list(pool._processes.values())
            assert workers
            parallel._teardown_pool(pool)
            for proc in workers:
                proc.join(timeout=10)
                assert proc.exitcode is not None
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestPersistentPool:
    """The cross-build worker pool: reuse, growth, retirement, shutdown."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        parallel.shutdown_persistent_pool()
        yield
        parallel.shutdown_persistent_pool()

    def _run_persistent(self, *, workers=2, plan=None, report=None):
        return _run(CHUNKS, workers=workers, plan=plan, report=report,
                    persistent=True)

    def test_results_match_per_build_pool(self):
        assert self._run_persistent() == _run(CHUNKS)

    def test_pool_is_reused_across_runs(self):
        assert self._run_persistent() == EXPECTED
        first = parallel._PERSISTENT_POOL
        assert first is not None
        assert self._run_persistent() == EXPECTED
        assert parallel._PERSISTENT_POOL is first

    def test_pool_grows_for_a_bigger_build(self):
        self._run_persistent(workers=1)
        small = parallel._PERSISTENT_POOL
        self._run_persistent(workers=3)
        assert parallel._PERSISTENT_POOL is not small
        assert parallel._PERSISTENT_SIZE == 3
        # ... and a smaller build reuses the bigger pool.
        self._run_persistent(workers=2)
        assert parallel._PERSISTENT_SIZE == 3

    def test_crash_retires_the_pool_but_results_survive(self):
        assert self._run_persistent() == EXPECTED
        first = parallel._PERSISTENT_POOL
        report = BuildReport()
        plan = FaultPlan(seed=11, worker_crash_rate=1.0)
        assert self._run_persistent(plan=plan, report=report) == EXPECTED
        assert parallel._PERSISTENT_POOL is not first
        assert any(e.kind == "worker-crash" for e in report.degradations)

    def test_shutdown_is_idempotent(self):
        self._run_persistent()
        parallel.shutdown_persistent_pool()
        assert parallel._PERSISTENT_POOL is None
        parallel.shutdown_persistent_pool()  # no-op, no error
        # The pool comes back on demand.
        assert self._run_persistent() == EXPECTED
        assert parallel._PERSISTENT_POOL is not None


class TestOnePayloadPath:
    """Lowering and llc reach their chunk functions one way: serially in
    this process, on a per-build pool, or on the persistent pool, every
    case returns the same modules, a partly cached module included."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        parallel.shutdown_persistent_pool()
        yield
        parallel.shutdown_persistent_pool()

    def test_serial_and_both_pools_return_identical_modules(self,
                                                             monkeypatch):
        import pickle

        from repro.experiments.common import app_spec
        from repro.frontend.parser import parse_module
        from repro.frontend.sema import analyze_program
        from repro.sil.silgen import generate_sil
        from repro.workloads.appgen import generate_app

        sources = generate_app(app_spec("tiny"))
        program = analyze_program([parse_module(text, name)
                                   for name, text in sources.items()])
        sil_modules = generate_sil(program)
        sil_by_name = {sm.name: sm for sm in sil_modules}
        signatures = {fn.symbol: fn
                      for sm in sil_modules for fn in sm.functions}
        names = list(sil_by_name)
        assert len(names) > 2
        # Every other function of one module comes from the function
        # cache, as optimized LIR; the rest of it is lowered fresh.
        uncached = parallel.lower_modules(sil_by_name, signatures, {},
                                          BuildConfig(workers=1))
        partial = pickle.loads(pickle.dumps(uncached[names[1]].functions))
        assert len(partial) > 2
        fn_hits = {names[1]: {fn.symbol: fn for fn in partial[::2]}}

        def lower_then_llc(config):
            report = BuildReport()
            lowered = parallel.lower_modules(sil_by_name, signatures,
                                             fn_hits, config, report)
            lir = [lowered[name] for name in names]
            # llc rewrites its input in place; keep the lowered copy intact.
            outputs = parallel.llc_modules(pickle.loads(pickle.dumps(lir)),
                                           config, report)
            assert report.degradations == []
            return lir, outputs

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not reach run_chunks")

        with monkeypatch.context() as patch:
            patch.setattr(parallel, "run_chunks", no_pool)
            serial = lower_then_llc(BuildConfig(outline_rounds=1, workers=1))
        per_build = lower_then_llc(BuildConfig(outline_rounds=1, workers=2))
        persistent = lower_then_llc(BuildConfig(outline_rounds=1, workers=2,
                                                persistent_workers=True))
        assert parallel._PERSISTENT_POOL is not None
        assert serial[0] == [uncached[name] for name in names]
        for lir, outputs in (per_build, persistent):
            assert lir == serial[0]
            assert [o.module for o in outputs] == [o.module
                                                   for o in serial[1]]
            assert [o.outline_stats for o in outputs] == [
                o.outline_stats for o in serial[1]]
