"""Unit tests for the build daemon (service/): wire protocol framing and
typed-error mapping, admission control and backpressure, the circuit
breaker state machine, cooperative cancellation scopes, deadline expiry,
service-level fault sites, and journal-backed restart recovery."""

import io
import json
import socket
import time
from contextlib import contextmanager

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExpiredError,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from repro.pipeline.cancel import CancelScope, checkpoint, clamp_timeout
from repro.pipeline.config import BuildConfig
from repro.pipeline.faults import FaultPlan
from repro.service import (
    BuildService,
    CircuitBreaker,
    JobJournal,
    ServiceClient,
    ServiceConfig,
    SubmitOutcome,
)
from repro.service import protocol
from repro.service.protocol import (
    config_from_wire,
    config_to_wire,
    error_to_wire,
    recv_frame,
    send_frame,
    wire_to_error,
)

SOURCES = {"main.swiftlet": """
func main() {
    var x = 20
    var y = 22
    print(x + y)
}
"""}


def _service_config(tmp_path, **kw):
    kw.setdefault("job_workers", 1)
    kw.setdefault("build_workers", 1)
    kw.setdefault("default_deadline", 60.0)
    return ServiceConfig(state_dir=str(tmp_path / "state"), **kw)


@contextmanager
def running_service(tmp_path, **kw):
    service = BuildService(_service_config(tmp_path, **kw))
    service.start()
    try:
        yield service
    finally:
        service.close()


class TestProtocolFraming:
    def test_roundtrip(self):
        buf = io.BytesIO()
        send_frame(buf, {"op": "ping", "n": 3})
        buf.seek(0)
        assert recv_frame(buf) == {"op": "ping", "n": 3}

    def test_eof_is_typed(self):
        with pytest.raises(ProtocolError, match="closed before"):
            recv_frame(io.BytesIO(b""))

    def test_torn_frame_is_typed(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(io.BytesIO(b'{"op": "ping"'))

    def test_bad_json_is_typed(self):
        with pytest.raises(ProtocolError, match="malformed"):
            recv_frame(io.BytesIO(b"not json\n"))

    def test_non_object_is_typed(self):
        with pytest.raises(ProtocolError, match="not a JSON object"):
            recv_frame(io.BytesIO(b"[1,2]\n"))

    def test_oversized_frame_is_typed(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(io.BytesIO(b'{"padding": "xxxxxxxxxxxxxxxx"}\n'))

    def test_module_order_survives_the_wire(self):
        """Module order is semantic (type-id bases, data layout): the
        sources map must round-trip in insertion order, not sorted."""
        sources = {"Zeta": "z", "Alpha": "a", "Mid": "m"}
        buf = io.BytesIO()
        send_frame(buf, {"op": "submit", "sources": sources})
        buf.seek(0)
        received = recv_frame(buf)
        assert list(received["sources"]) == ["Zeta", "Alpha", "Mid"]


class TestWireErrors:
    def test_typed_error_survives_the_wire(self):
        exc = QueueFullError("queue full", depth=4, limit=4)
        back = wire_to_error(error_to_wire(exc))
        assert isinstance(back, QueueFullError)
        assert "queue full" in str(back)

    def test_untyped_exception_becomes_build_error(self):
        wire = error_to_wire(RuntimeError("daemon bug"))
        assert wire["error"] == "BuildError"
        assert "RuntimeError" in wire["message"]
        back = wire_to_error(wire)
        assert isinstance(back, ReproError)

    def test_unknown_class_name_falls_back_to_service_error(self):
        back = wire_to_error({"error": "NoSuchError", "message": "m"})
        assert isinstance(back, ServiceError)

    def test_non_error_class_name_is_rejected(self):
        # A peer cannot make the client instantiate arbitrary attributes.
        back = wire_to_error({"error": "annotations", "message": "m"})
        assert isinstance(back, ServiceError)


class TestConfigWire:
    def test_roundtrip(self):
        config = BuildConfig(pipeline="wholeprogram", outline_rounds=3,
                             merge_mode="exact")
        wire = config_to_wire(config)
        back = config_from_wire(wire)
        assert back.pipeline == "wholeprogram"
        assert back.outline_rounds == 3
        assert back.merge_mode == "exact"

    def test_unknown_field_is_typed(self):
        with pytest.raises(ServiceError, match="unknown build-config"):
            config_from_wire({"workers": 8})

    def test_operational_knobs_never_travel(self):
        # cache_dir/fault_plan/cancel_scope stay daemon-side by design, and
        # so does image verification: the daemon always verifies.
        wire = config_to_wire(BuildConfig())
        for forbidden in ("workers", "cache_dir", "fault_plan",
                          "cancel_scope", "chunk_timeout", "incremental",
                          "verify_image"):
            assert forbidden not in wire

    def test_every_fingerprinted_knob_is_wire_settable_or_excluded(self):
        # The whitelist is derived from the config stage tags, so a new
        # artifact-defining knob (e.g. ``strip``) is automatically
        # round-trippable; this pins the partition itself: every field
        # that enters a cache key either travels the wire or carries an
        # explicit exclusion reason in CONFIG_WIRE_EXCLUDED.
        from repro.pipeline.config import KEY_FIELDS
        from repro.service.protocol import (
            CONFIG_WIRE_EXCLUDED,
            CONFIG_WIRE_FIELDS,
        )

        assert set(CONFIG_WIRE_FIELDS) | CONFIG_WIRE_EXCLUDED == set(
            KEY_FIELDS)
        assert not set(CONFIG_WIRE_FIELDS) & CONFIG_WIRE_EXCLUDED
        # Exclusions must name real fields, or they rot silently.
        assert CONFIG_WIRE_EXCLUDED <= set(KEY_FIELDS)
        # The knob this partition exists for: strip travels the wire.
        assert "strip" in CONFIG_WIRE_FIELDS
        roundtrip = config_from_wire(
            config_to_wire(BuildConfig(strip="program")))
        assert roundtrip.strip == "program"


class TestCancelScope:
    def test_live_scope_checkpoint_is_noop(self):
        scope = CancelScope(deadline_seconds=60.0)
        scope.check("anywhere")
        checkpoint(None, "no scope at all")

    def test_expired_deadline_raises_typed(self):
        scope = CancelScope(deadline_seconds=0.0, label="j1")
        time.sleep(0.01)
        with pytest.raises(DeadlineExpiredError, match="llc.*j1"):
            scope.check("llc")

    def test_clamp_timeout(self):
        scope = CancelScope(deadline_seconds=5.0)
        assert clamp_timeout(None, 30.0) == 30.0
        assert clamp_timeout(CancelScope(), 30.0) == 30.0
        assert clamp_timeout(scope, 30.0) <= 5.0
        assert clamp_timeout(scope, None) <= 5.0


class TestCircuitBreaker:
    def test_trips_at_threshold(self):
        breaker = CircuitBreaker(threshold=3, window=10, cooldown=2)
        breaker.record(True)
        breaker.record(True)
        assert breaker.state == "closed"
        breaker.record(True)
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_cooldown_then_close_with_cleared_window(self):
        breaker = CircuitBreaker(threshold=2, window=5, cooldown=2)
        breaker.record(True)
        breaker.record(True)
        assert breaker.is_open
        breaker.record(False)          # cooldown job 1
        assert breaker.is_open
        breaker.record(False)          # cooldown job 2 -> closes
        assert breaker.state == "closed"
        # The pre-trip failures are forgotten: one more does not re-trip.
        breaker.record(True)
        assert breaker.state == "closed"

    def test_window_slides(self):
        breaker = CircuitBreaker(threshold=2, window=2, cooldown=1)
        breaker.record(True)
        for _ in range(3):
            breaker.record(False)
        breaker.record(True)           # old failure slid out of the window
        assert breaker.state == "closed"


class TestAdmission:
    """Admission control without executors: construct (don't start) the
    service so the queue fills deterministically."""

    def test_queue_full_is_typed_backpressure(self, tmp_path):
        service = BuildService(_service_config(tmp_path, queue_size=2))
        service.submit_job(SOURCES, job_id="a")
        service.submit_job(SOURCES, job_id="b")
        with pytest.raises(QueueFullError) as info:
            service.submit_job(SOURCES, job_id="c")
        assert info.value.depth == 2
        assert info.value.limit == 2
        assert service.metrics.counters["service.rejected_queue_full"] == 1

    def test_rejection_is_never_journaled(self, tmp_path):
        service = BuildService(_service_config(tmp_path, queue_size=1))
        service.submit_job(SOURCES, job_id="kept")
        with pytest.raises(QueueFullError):
            service.submit_job(SOURCES, job_id="rejected")
        replay = JobJournal(service.journal.path).replay()
        assert list(replay.jobs) == ["kept"]

    def test_resubmit_of_known_id_is_idempotent(self, tmp_path):
        service = BuildService(_service_config(tmp_path, queue_size=4))
        first = service.submit_job(SOURCES, job_id="same")
        again = service.submit_job(SOURCES, job_id="same")
        assert first is again
        assert service._queue.qsize() == 1

    def test_draining_rejects_with_typed_error(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        service.request_drain("test")
        with pytest.raises(ServiceError, match="draining"):
            service.submit_job(SOURCES)
        assert service.metrics.counters["service.rejected_draining"] == 1

    def test_bad_config_rejected_before_admission(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        with pytest.raises(ServiceError, match="unknown build-config"):
            service.submit_job(SOURCES, wire_config={"cache_dir": "/x"})
        assert service._queue.qsize() == 0

    def test_non_string_config_key_is_a_typed_rejection(self, tmp_path):
        """An in-process caller's key need not be a string: it is named in
        the typed rejection, and nothing is journaled."""
        with pytest.raises(ServiceError, match="on the wire: 1 "):
            config_from_wire({1: 2})
        service = BuildService(_service_config(tmp_path))
        with pytest.raises(ServiceError, match="unknown build-config"):
            service.submit_job(SOURCES, {1: 2})
        assert JobJournal(service.journal.path).replay().jobs == {}

    def test_bad_build_setting_fails_when_the_service_is_made(self,
                                                              tmp_path):
        """The daemon's own build settings are checked once, when the
        service is made: a malformed one is a typed ConfigError before any
        job is admitted, built or journaled."""
        with pytest.raises(ConfigError, match="chunk_timeout"):
            BuildService(_service_config(tmp_path, build_workers=2,
                                         chunk_timeout="x"))
        assert not (tmp_path / "state").exists()

    def test_bad_sources_rejected(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        with pytest.raises(ServiceError, match="non-empty"):
            service.submit_job({})

    def test_non_string_source_value_rejected_not_stringified(self, tmp_path):
        """A submit frame with a non-string source (a number, a nested
        object) gets the typed rejection — never a silent str() build."""
        service = BuildService(_service_config(tmp_path))
        response = service.handle_request(
            {"op": "submit", "sources": {"Main": 42}, "wait": False})
        assert response["ok"] is False
        assert response["error"] == "ServiceError"
        assert "non-empty" in response["message"]
        assert service._queue.qsize() == 0
        replay = JobJournal(service.journal.path).replay()
        assert replay.jobs == {}

    def test_drain_reason_surfaces_in_summary(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        assert "drain_reason" not in service.summary()
        service.request_drain("signal 15")
        service.request_drain("second reason is ignored")
        assert service.summary()["drain_reason"] == "signal 15"


class TestRunningService:
    def test_ok_job_reports_image_and_build_report(self, tmp_path):
        with running_service(tmp_path) as service:
            response = service.handle_request(
                {"op": "submit", "sources": SOURCES, "wait": True})
            assert response["ok"] is True
            job = response["job"]
            assert job["status"] == "ok"
            assert len(job["image"]["text_sha256"]) == 64
            assert job["report"]["num_modules"] == 1

    def test_deadline_expiry_is_typed_not_a_hang(self, tmp_path):
        with running_service(tmp_path) as service:
            job = service.submit_job(SOURCES, deadline=0.0)
            assert job.done.wait(timeout=30.0)
            assert job.status == "error"
            assert job.error["error"] == "DeadlineExpiredError"

    def test_deadline_expire_fault_forces_zero_budget(self, tmp_path):
        plan = FaultPlan(deadline_expire_rate=1.0)
        with running_service(tmp_path, fault_plan=plan) as service:
            job = service.submit_job(SOURCES, deadline=120.0)
            assert job.done.wait(timeout=30.0)
            assert job.status == "error"
            assert job.error["error"] == "DeadlineExpiredError"

    def test_sigterm_midphase_fault_drains_but_finishes_job(self, tmp_path):
        plan = FaultPlan(sigterm_midphase_rate=1.0)
        with running_service(tmp_path, fault_plan=plan) as service:
            job = service.submit_job(SOURCES)
            assert job.done.wait(timeout=30.0)
            # Drain never abandons in-flight work: the job completed ...
            assert job.status == "ok"
            assert service._draining.is_set()
            # ... and later submitters get the typed draining rejection.
            with pytest.raises(ServiceError, match="draining"):
                service.submit_job(SOURCES)

    def test_unknown_op_gets_typed_reply(self, tmp_path):
        with running_service(tmp_path) as service:
            response = service.handle_request({"op": "frobnicate"})
            assert response["ok"] is False
            assert isinstance(wire_to_error(response), ServiceError)

    def test_query_unknown_job_gets_typed_reply(self, tmp_path):
        with running_service(tmp_path) as service:
            response = service.handle_request({"op": "query", "id": "nope"})
            assert response["ok"] is False
            assert "unknown job" in response["message"]

    def test_unknown_target_is_a_typed_job_error_not_an_infra_failure(
            self, tmp_path):
        """A job naming an unregistered target fails with the build's
        typed error, and the breaker does not count it: three such jobs
        leave it closed for everyone else's jobs."""
        with running_service(tmp_path) as service:
            for _ in range(3):
                job = service.submit_job(SOURCES, {"target": "riscv"})
                assert job.done.wait(timeout=30.0)
                assert job.status == "error"
                assert job.error["error"] == "ReproError"
                assert "unknown target" in job.error["message"]
            assert service.breaker.state == "closed"
            assert service.breaker.trips == 0

    def test_malformed_config_is_rejected_at_admission(self, tmp_path):
        """A value of a wrong type or outside its field's legal values is
        a typed rejection at admission: nothing is journaled, nothing is
        built, and the breaker never sees it, so the next well-formed job
        from any client runs with the breaker closed."""
        with running_service(tmp_path) as service:
            for _ in range(3):
                with pytest.raises(ConfigError, match="outline_rounds"):
                    service.submit_job(SOURCES, {"outline_rounds": "5"})
            response = service.handle_request(
                {"op": "submit", "sources": SOURCES,
                 "config": {"layout": "bogus"}})
            assert response["ok"] is False
            assert response["error"] == "ConfigError"
            assert "layout" in response["message"]
            assert JobJournal(service.journal.path).replay().jobs == {}
            assert service.breaker.trips == 0
            job = service.submit_job(SOURCES)
            assert job.done.wait(timeout=30.0)
            assert job.status == "ok"
            assert job.breaker_open is False

    def test_breaker_open_forces_serial_uncached(self, tmp_path):
        with running_service(tmp_path, breaker_threshold=1,
                             breaker_window=2,
                             breaker_cooldown=1) as service:
            service.breaker.record(True)  # trip directly
            assert service.breaker.is_open
            job = service.submit_job(SOURCES)
            assert job.done.wait(timeout=30.0)
            assert job.status == "ok"
            assert job.breaker_open is True
            assert job.report["workers"] == 1
            assert job.report["cache_enabled"] is False


class TestWireAuth:
    """The TCP socket is open to any local user; the shared secret from
    the 0600 endpoint file is what authorises a frame."""

    @contextmanager
    def _server(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        host, port = service.start_server()
        try:
            yield service, host, port
        finally:
            service.stop_server()
            service.journal.close()

    def test_missing_or_wrong_token_is_rejected_typed(self, tmp_path):
        with self._server(tmp_path) as (service, host, port):
            for bad in (None, "wrong-token"):
                client = ServiceClient(host=host, port=port, timeout=10,
                                       auth_token=bad)
                with pytest.raises(ServiceError, match="authentication"):
                    client.ping()
            assert service.metrics.counters["service.rejected_auth"] == 2

    def test_unauthenticated_drain_does_not_drain(self, tmp_path):
        with self._server(tmp_path) as (service, host, port):
            client = ServiceClient(host=host, port=port, timeout=10)
            with pytest.raises(ServiceError, match="authentication"):
                client.drain()
            assert not service._draining.is_set()

    def test_token_from_endpoint_file_authorises(self, tmp_path):
        with self._server(tmp_path) as (service, _host, _port):
            client = ServiceClient(state_dir=service.config.state_dir,
                                   timeout=10)
            assert client.auth_token == service.auth_token
            assert client.ping() is True

    def test_endpoint_file_is_owner_only(self, tmp_path):
        import os
        import stat

        with self._server(tmp_path) as (service, _host, _port):
            path = BuildService.endpoint_path(service.config.state_dir)
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


class TestConnectionBurst:
    """Every client of a burst gets through the handshake at once, even
    while the accept loop is busy: none waits out the kernel's 1 s SYN
    retry, which could turn a typed queue-full rejection into a late
    admission once the blocking job has finished."""

    def test_burst_beyond_the_default_backlog_connects(self, tmp_path):
        service = BuildService(_service_config(tmp_path))
        host, port = service.start_server()
        service._server.shutdown()  # still listening, accepting nothing
        conns = []
        try:
            for _ in range(16):  # socketserver's default backlog is 5
                conn = socket.create_connection((host, port), timeout=0.5)
                conns.append(conn)
        finally:
            for conn in conns:
                conn.close()
            service.stop_server()
            service.journal.close()
        assert len(conns) == 16


class TestRecovery:
    def test_pending_jobs_rerun_after_restart(self, tmp_path):
        config = _service_config(tmp_path)
        # First daemon: journal a job, then "crash" before running it
        # (the service is never started, mirroring kill -9 pre-pickup).
        crashed = BuildService(config)
        crashed.submit_job(SOURCES, job_id="interrupted")
        crashed.journal.close()

        restarted = BuildService(_service_config(tmp_path))
        restarted.start()
        try:
            assert restarted.recovered_count == 1
            job = restarted.job("interrupted")
            assert job.done.wait(timeout=30.0)
            assert job.status == "ok"
            assert job.recovered is True
            assert len(job.image["text_sha256"]) == 64
        finally:
            restarted.close()

    def test_journaled_field_off_the_wire_replays_as_typed_error(
            self, tmp_path):
        """A job journaled while ``verify_image`` still travelled the wire
        fails on replay with a typed ServiceError; recovery goes on."""
        crashed = BuildService(_service_config(tmp_path))
        crashed.journal.submitted("stale", SOURCES, {"verify_image": False},
                                  None)
        crashed.journal.close()

        restarted = BuildService(_service_config(tmp_path))
        restarted.start()
        try:
            job = restarted.job("stale")
            assert job.done.wait(timeout=30.0)
            assert job.status == "error"
            assert job.error["error"] == "ServiceError"
            assert "verify_image" in job.error["message"]
        finally:
            restarted.close()

    def test_done_jobs_served_from_journal_after_restart(self, tmp_path):
        with running_service(tmp_path) as service:
            job = service.submit_job(SOURCES, job_id="finished")
            assert job.done.wait(timeout=30.0)
            reference_sha = job.image["text_sha256"]

        restarted = BuildService(_service_config(tmp_path))
        restarted.start()
        try:
            assert restarted.recovered_count == 0  # nothing to re-run
            response = restarted.handle_request(
                {"op": "query", "id": "finished"})
            assert response["ok"] is True
            assert response["job"]["image"]["text_sha256"] == reference_sha
            assert response["job"]["recovered"] is True
        finally:
            restarted.close()

    def test_recovered_rerun_is_bit_identical(self, tmp_path):
        with running_service(tmp_path) as service:
            job = service.submit_job(SOURCES, job_id="ref")
            assert job.done.wait(timeout=30.0)
            reference_sha = job.image["text_sha256"]

        # Journal a second copy of the same program as pending, restart,
        # and compare the recovered build against the reference.
        crashed = BuildService(_service_config(tmp_path))
        crashed.submit_job(SOURCES, job_id="revenant")
        crashed.journal.close()

        restarted = BuildService(_service_config(tmp_path))
        restarted.start()
        try:
            job = restarted.job("revenant")
            assert job.done.wait(timeout=30.0)
            assert job.status == "ok"
            assert job.image["text_sha256"] == reference_sha
        finally:
            restarted.close()

    def test_restart_answers_for_the_same_finished_jobs(self, tmp_path):
        """Over a journal of 300 finished jobs, the started daemon and the
        one restarted after its drain answer ``query`` for the same jobs:
        the window the live daemon keeps is what compaction keeps."""
        state = tmp_path / "state"
        state.mkdir()
        with open(state / "journal.jsonl", "w", encoding="utf-8") as fh:
            for i in range(300):
                for record in (
                        {"rec": "submit", "id": f"j{i}", "sources": SOURCES,
                         "config": {}, "deadline": None},
                        {"rec": "done", "id": f"j{i}", "status": "ok",
                         "attempts": 1, "breaker_open": False,
                         "image": {"text_sha256": f"{i:064x}"}}):
                    fh.write(json.dumps(record) + "\n")

        def answered(service):
            return {f"j{i}" for i in range(300) if service.handle_request(
                {"op": "query", "id": f"j{i}"})["ok"]}

        live = BuildService(_service_config(tmp_path))
        live.start()
        try:
            live_answers = answered(live)
        finally:
            live.close()
        restarted = BuildService(_service_config(tmp_path))
        restarted.start()
        try:
            assert answered(restarted) == live_answers
            assert "j299" in live_answers
        finally:
            restarted.close()

    def test_job_admitted_before_start_runs_once(self, tmp_path):
        """A job this service admitted before start() is journaled, but it
        is not a recovered job: it keeps its one record and runs once."""
        service = BuildService(_service_config(tmp_path))
        job = service.submit_job(SOURCES, job_id="early")
        service.start()
        try:
            assert job.done.wait(timeout=30.0)
            assert service.job("early") is job
            assert service.recovered_count == 0
            with open(service.journal.path, "rb") as fh:
                kinds = [record["rec"] for record in map(json.loads, fh)]
            assert kinds == ["submit", "start", "done"]
        finally:
            service.close()

    def test_recovered_jobs_run_first_in_journal_order(self, tmp_path):
        """Jobs a restart recovers run before any job admitted after
        start(), in the order the journal holds them."""
        crashed = BuildService(_service_config(tmp_path))
        for job_id in ("r2", "r0", "r1"):
            crashed.submit_job(SOURCES, job_id=job_id)
        crashed.journal.close()

        restarted = BuildService(_service_config(tmp_path, job_workers=1))
        restarted.start()
        try:
            late = restarted.submit_job(SOURCES, job_id="late")
            for job_id in ("r2", "r0", "r1", "late"):
                assert restarted.job(job_id).done.wait(timeout=60.0)
            assert late.status == "ok"
            with open(restarted.journal.path, "rb") as fh:
                started = [record["id"] for record in map(json.loads, fh)
                           if record["rec"] == "start"]
            assert started == ["r2", "r0", "r1", "late"]
        finally:
            restarted.close()


class TestJobView:
    def test_view_keys_and_client_outcome(self, tmp_path):
        """The wire view keeps its keys, and the client reads every one of
        them, attempts included."""
        with running_service(tmp_path) as service:
            job = service.submit_job(SOURCES, job_id="viewed")
            assert job.done.wait(timeout=30.0)
            view = service.handle_request({"op": "query",
                                           "id": "viewed"})["job"]
        assert list(view) == ["id", "status", "recovered", "attempts",
                              "breaker_open", "image", "report"]
        outcome = SubmitOutcome.from_view(view)
        assert outcome.attempts == 1
        assert outcome.status == "ok"
        assert outcome.report.num_modules == 1
        assert SubmitOutcome.from_view(
            {"id": "x", "status": "queued", "attempts": 3}).attempts == 3
