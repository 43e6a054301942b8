"""Chaos harness for the build daemon (the service-level counterpart of
test_fault_tolerance.py).

The invariant, extended to service scope: under ANY injected combination
of worker crashes, cache corruption, torn journal appends, forced
deadline expiry, drain-mid-job, client disconnects, and a ``kill -9`` of
the daemon itself, every submitted job ends in exactly one of two states
— an image **bit-identical** to the fault-free build, or a **typed**
:class:`~repro.errors.ReproError` delivered to the client.  Never a hang,
never a partial image, never a silently different binary.  A restarted
daemon must recover every journaled job.

The CI ``service-chaos`` job runs this file on a fixed seed matrix plus
the subprocess kill-and-restart smoke."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import errors as errors_mod
from repro.errors import ProtocolError, QueueFullError, ReproError
from repro.pipeline import build_program
from repro.pipeline.faults import FaultPlan
from repro.service import BuildService, ServiceClient, ServiceConfig
from repro.service.protocol import config_from_wire, image_summary
from repro.workloads.appgen import AppSpec, generate_app

SOURCES = {
    "Lib": """
func fa(x: Int) -> Int { return x * 2 + 1 }
func fb(x: Int) -> Int { return x * 2 + 2 }
""",
    "Main": """
import Lib
func main() {
    var v = 0
    for i in 0..<4 { v += fa(x: i) + fb(x: i) }
    print(v)
}
""",
}

WIRE_CONFIG = {"outline_rounds": 1}

#: A deliberately slow job (~1s serial) to hold an executor busy while
#: the harness races admissions or kills the daemon mid-build.
BLOCKER = generate_app(AppSpec(base_features=20, seed=3))


def _reference_sha(sources):
    result = build_program(dict(sources), config_from_wire(WIRE_CONFIG))
    return image_summary(result.image)["text_sha256"]


REFERENCE_SHA = _reference_sha(SOURCES)


def _service_config(tmp_path, **kw):
    kw.setdefault("job_workers", 2)
    kw.setdefault("build_workers", 2)
    kw.setdefault("queue_size", 32)
    kw.setdefault("default_deadline", 60.0)
    kw.setdefault("chunk_timeout", 5.0)
    return ServiceConfig(state_dir=str(tmp_path / "state"), **kw)


def _assert_typed(error_payload):
    """The wire error names a ReproError subclass (the typed contract)."""
    name = error_payload.get("error")
    cls = getattr(errors_mod, name, None)
    assert isinstance(cls, type) and issubclass(cls, ReproError), (
        f"untyped error escaped to the client: {error_payload}")


def _assert_job_invariant(job):
    """Terminal state is bit-identical output or a typed error."""
    assert job.status in ("ok", "error"), f"job left hanging: {job.status}"
    if job.status == "ok":
        assert job.image["text_sha256"] == REFERENCE_SHA, (
            "injected faults changed the produced binary")
    else:
        _assert_typed(job.error)


CHAOS_PLANS = [
    {"worker_crash_rate": 0.5},
    {"worker_crash_rate": 1.0},
    {"cache_corrupt_rate": 0.5},
    {"torn_write_rate": 0.5},
    {"journal_torn_rate": 0.5},
    {"deadline_expire_rate": 0.5},
    {"sigterm_midphase_rate": 0.5},
    {"worker_crash_rate": 0.3, "cache_corrupt_rate": 0.3,
     "journal_torn_rate": 0.3, "deadline_expire_rate": 0.3},
]


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "rates", CHAOS_PLANS,
        ids=["-".join(k.replace("_rate", "") for k in p) for p in CHAOS_PLANS])
    def test_every_job_bit_identical_or_typed(self, tmp_path, seed, rates):
        plan = FaultPlan(seed=seed, **rates)
        service = BuildService(_service_config(tmp_path, fault_plan=plan))
        service.start()
        jobs = []
        rejections = 0
        try:
            for i in range(4):
                try:
                    jobs.append(service.submit_job(
                        dict(SOURCES), WIRE_CONFIG, job_id=f"chaos-{i}"))
                except ReproError:
                    rejections += 1  # typed admission rejection (e.g. drain)
            for job in jobs:
                assert job.done.wait(timeout=120.0), (
                    f"job {job.job_id} hung under plan {rates} seed {seed}")
                _assert_job_invariant(job)
            assert len(jobs) + rejections == 4
        finally:
            service.close()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_chaos_then_clean_service_still_converges(self, tmp_path, seed):
        """After a chaotic run the *same state dir* (journal + cache) must
        serve a clean daemon that produces the reference image."""
        plan = FaultPlan(seed=seed, worker_crash_rate=0.7,
                         cache_corrupt_rate=0.7, journal_torn_rate=0.5)
        chaotic = BuildService(_service_config(tmp_path, fault_plan=plan))
        chaotic.start()
        try:
            for i in range(3):
                job = chaotic.submit_job(dict(SOURCES), WIRE_CONFIG,
                                         job_id=f"dirty-{i}")
                assert job.done.wait(timeout=120.0)
                _assert_job_invariant(job)
        finally:
            chaotic.close()

        clean = BuildService(_service_config(tmp_path))
        clean.start()
        try:
            job = clean.submit_job(dict(SOURCES), WIRE_CONFIG)
            assert job.done.wait(timeout=120.0)
            assert job.status == "ok"
            assert job.image["text_sha256"] == REFERENCE_SHA
        finally:
            clean.close()


class TestConcurrentBackpressure:
    def test_ten_clients_against_a_bounded_queue(self, tmp_path):
        """N=10 concurrent wire clients against queue_size=2 with a busy
        executor: every client gets either a finished bit-identical build
        or a typed QueueFullError — nobody hangs, nobody gets garbage."""
        service = BuildService(_service_config(
            tmp_path, job_workers=1, build_workers=1, queue_size=2))
        service.start()
        host, port = service.start_server()
        outcomes = [None] * 10
        try:
            blocker_client = ServiceClient(host=host, port=port, timeout=120,
                                           auth_token=service.auth_token)
            blocker_client.submit(BLOCKER, WIRE_CONFIG, wait=False,
                                  job_id="blocker")

            def _submit(i):
                client = ServiceClient(host=host, port=port, timeout=120,
                                       auth_token=service.auth_token)
                try:
                    outcomes[i] = client.submit(
                        dict(SOURCES), WIRE_CONFIG, job_id=f"rush-{i}")
                except ReproError as exc:
                    outcomes[i] = exc
                except Exception as exc:  # pragma: no cover - the bug
                    outcomes[i] = AssertionError(
                        f"untyped client failure: {type(exc).__name__}: "
                        f"{exc}")

            threads = [threading.Thread(target=_submit, args=(i,))
                       for i in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "a client hung"

            rejected = [o for o in outcomes
                        if isinstance(o, QueueFullError)]
            finished = [o for o in outcomes if not isinstance(o, Exception)]
            untyped = [o for o in outcomes if isinstance(o, Exception)
                       and not isinstance(o, ReproError)]
            assert untyped == []
            # The executor was busy with the blocker and the queue holds
            # two: at most 2 of the 10 can be admitted, ≥8 are rejected
            # with typed backpressure carrying depth/limit.
            assert len(rejected) >= 8
            for exc in rejected:
                assert exc.limit == 2
                assert exc.depth >= 0
            for outcome in finished:
                assert outcome.status == "ok"
                assert outcome.image["text_sha256"] == REFERENCE_SHA
            counters = service.metrics.counters
            assert counters["service.rejected_queue_full"] >= 8
        finally:
            service.close()


class TestClientDisconnect:
    def test_dropped_reply_is_typed_and_job_survives(self, tmp_path):
        """The daemon drops the response mid-stream (injected): the client
        sees a typed ProtocolError, and the job itself still runs to a
        bit-identical completion, queryable afterwards."""
        plan = FaultPlan(client_disconnect_rate=1.0)
        service = BuildService(_service_config(tmp_path, fault_plan=plan))
        service.start()
        host, port = service.start_server()
        try:
            client = ServiceClient(host=host, port=port, timeout=30,
                                   auth_token=service.auth_token)
            with pytest.raises(ProtocolError):
                client.submit(dict(SOURCES), WIRE_CONFIG, job_id="dropped")
            job = service.job("dropped")
            assert job.done.wait(timeout=60.0)
            assert job.status == "ok"
            assert job.image["text_sha256"] == REFERENCE_SHA
            assert service.metrics.counters["service.client_disconnects"] >= 1
        finally:
            service.close()

    def test_client_hangup_mid_wait_leaves_job_intact(self, tmp_path):
        """The *client* vanishes while the daemon is mid-build: the send
        fails server-side, is counted, and the finished job stays
        queryable with the right bits."""
        service = BuildService(_service_config(tmp_path))
        service.start()
        host, port = service.start_server()
        try:
            client = ServiceClient(host=host, port=port, timeout=30,
                                   auth_token=service.auth_token)
            job_id = client.submit_abandoned(dict(SOURCES), WIRE_CONFIG)
            # The frame is in flight: wait for the daemon to admit it.
            deadline = time.monotonic() + 30
            while True:
                try:
                    job = service.job(job_id)
                    break
                except ReproError:
                    assert time.monotonic() < deadline, "submit never landed"
                    time.sleep(0.02)
            assert job.done.wait(timeout=60.0)
            assert job.status == "ok"
            outcome = client.query(job_id)
            assert outcome.image["text_sha256"] == REFERENCE_SHA
        finally:
            service.close()


def _repo_src():
    return str(Path(__file__).resolve().parents[2] / "src")


def _spawn_daemon(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_src()
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir",
         str(state_dir), "--job-workers", "1", "--build-workers", "1",
         *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def _wait_for_endpoint(state_dir, proc, timeout=60.0):
    endpoint = Path(state_dir) / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited early: {proc.stdout.read()}")
        if endpoint.exists():
            try:
                data = json.loads(endpoint.read_text())
                if data.get("pid") == proc.pid:
                    return data["host"], int(data["port"])
            except (ValueError, KeyError):
                pass  # mid-write
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its endpoint file")


class TestKillAndRestart:
    def test_kill_dash_nine_then_restart_recovers_every_job(self, tmp_path):
        """The headline crash-recovery drill: jobs in flight, daemon gets
        SIGKILL, a fresh daemon on the same state dir re-runs/serves every
        journaled job, all bit-identical."""
        state_dir = tmp_path / "state"
        daemon = _spawn_daemon(state_dir)
        try:
            _wait_for_endpoint(state_dir, daemon)
            client = ServiceClient(state_dir=str(state_dir), timeout=60)
            # A slow blocker plus fast followers, none awaited: the kill
            # lands while the blocker is mid-build and the rest queued.
            client.submit(BLOCKER, WIRE_CONFIG, wait=False, job_id="slow")
            for i in range(2):
                client.submit(dict(SOURCES), WIRE_CONFIG, wait=False,
                              job_id=f"fast-{i}")
        finally:
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=30)

        # The journal survived the kill with all three submits.
        journal = (state_dir / "journal.jsonl").read_bytes()
        submitted = {json.loads(line)["id"]
                     for line in journal.splitlines()
                     if line.strip() and b'"rec":"submit"' in line}
        assert submitted == {"slow", "fast-0", "fast-1"}

        restarted = _spawn_daemon(state_dir)
        try:
            _wait_for_endpoint(state_dir, restarted)
            client = ServiceClient(state_dir=str(state_dir), timeout=60)
            expected = {"slow": _reference_sha(BLOCKER),
                        "fast-0": REFERENCE_SHA, "fast-1": REFERENCE_SHA}
            deadline = time.monotonic() + 180
            for job_id, want_sha in expected.items():
                while True:
                    outcome = client.query(job_id)
                    if outcome.status in ("ok", "error"):
                        break
                    assert time.monotonic() < deadline, (
                        f"recovered job {job_id} never finished")
                    time.sleep(0.2)
                assert outcome.status == "ok", outcome
                assert outcome.image["text_sha256"] == want_sha
            summary = client.drain()
            assert summary["jobs_error"] == 0
            restarted.wait(timeout=60)
            assert restarted.returncode == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait(timeout=30)

    def test_kill_during_journal_churn_never_loses_completed_work(
            self, tmp_path):
        """Warm-cache scenario: finish a job, kill the daemon, restart —
        the finished result is served from the journal without a rebuild,
        and a resubmission of the same program is a warm image-cache hit."""
        state_dir = tmp_path / "state"
        daemon = _spawn_daemon(state_dir)
        try:
            _wait_for_endpoint(state_dir, daemon)
            client = ServiceClient(state_dir=str(state_dir), timeout=120)
            first = client.submit(dict(SOURCES), WIRE_CONFIG, job_id="keep")
            assert first.status == "ok"
            assert first.image["text_sha256"] == REFERENCE_SHA
        finally:
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=30)

        restarted = _spawn_daemon(state_dir)
        try:
            _wait_for_endpoint(state_dir, restarted)
            client = ServiceClient(state_dir=str(state_dir), timeout=120)
            served = client.query("keep")
            assert served.status == "ok"
            assert served.recovered is True
            assert served.image["text_sha256"] == REFERENCE_SHA
            # Same program again: the shared cache survived the kill too.
            again = client.submit(dict(SOURCES), WIRE_CONFIG)
            assert again.status == "ok"
            assert again.report is not None
            assert again.report.image_cache_hit is True
            client.drain()
            restarted.wait(timeout=60)
            assert restarted.returncode == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait(timeout=30)
