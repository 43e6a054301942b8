"""Unit tests for the crash-recovery job journal (service/journal.py):
append/replay round trips, torn-tail tolerance, the journal_torn fault
site, checkpoint compaction, and checkpoint atomicity."""

import json
import os

from repro.pipeline.faults import FaultPlan
from repro.service.journal import JobJournal

SOURCES = {"main.swiftlet": "func main() { print(1) }\n"}
CONFIG = {"pipeline": "wholeprogram", "outline_rounds": 2}


def _journal(tmp_path, **kw):
    return JobJournal(str(tmp_path / "journal.jsonl"), **kw)


class TestAppendReplay:
    def test_empty_journal_replays_empty(self, tmp_path):
        replay = _journal(tmp_path).replay()
        assert replay.jobs == {}
        assert list(replay.jobs) == []
        assert replay.torn_records == 0

    def test_submit_start_done_lifecycle(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, 30.0)
        journal.started("j1", 1)
        journal.done("j1", "ok", {"image": {"text_sha256": "aa"}})
        journal.close()

        replay = _journal(tmp_path).replay()
        state = replay.jobs["j1"]
        assert state.finished
        assert state.sources == SOURCES
        assert state.config == CONFIG
        assert state.deadline == 30.0
        assert state.attempts == 1
        assert state.status == "ok"
        assert state.image == {"text_sha256": "aa"}
        assert replay.pending == []

    def test_unfinished_job_is_pending(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.started("j1", 1)
        journal.submitted("j2", SOURCES, CONFIG, 5.0)
        journal.close()

        replay = _journal(tmp_path).replay()
        assert [s.job_id for s in replay.pending] == ["j1", "j2"]
        assert replay.jobs["j1"].attempts == 1
        assert replay.jobs["j2"].attempts == 0

    def test_module_order_survives_replay_and_checkpoint(self, tmp_path):
        """Module order is semantic: a recovered job must rebuild the
        same program, so the sources map replays in insertion order."""
        ordered = {"Zeta": "z", "Alpha": "a", "Mid": "m"}
        journal = _journal(tmp_path)
        journal.submitted("j1", ordered, CONFIG, None)
        journal.close()
        replay = _journal(tmp_path).replay()
        assert list(replay.jobs["j1"].sources) == ["Zeta", "Alpha", "Mid"]
        compacting = _journal(tmp_path)
        compacting.checkpoint()
        replay = compacting.replay()
        assert list(replay.jobs["j1"].sources) == ["Zeta", "Alpha", "Mid"]

    def test_replay_preserves_submission_order(self, tmp_path):
        journal = _journal(tmp_path)
        ids = [f"job-{i}" for i in range(7)]
        for job_id in ids:
            journal.submitted(job_id, SOURCES, CONFIG, None)
        journal.close()
        assert list(_journal(tmp_path).replay().jobs) == ids


class TestTornTail:
    def test_torn_tail_loses_only_the_last_record(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.submitted("j2", SOURCES, CONFIG, None)
        journal.close()
        # Simulate kill -9 mid-append: truncate the last line in half.
        path = journal.path
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.rstrip(b"\n").split(b"\n")
        torn = b"\n".join(lines[:-1]) + b"\n" + lines[-1][:len(lines[-1]) // 2]
        with open(path, "wb") as fh:
            fh.write(torn)

        replay = _journal(tmp_path).replay()
        assert replay.torn_records == 1
        assert list(replay.jobs) == ["j1"]

    def test_injected_torn_append_stays_confined(self, tmp_path):
        plan = FaultPlan(journal_torn_rate=1.0)
        journal = _journal(tmp_path, fault_plan=plan)
        # First append tears (rate 1.0) ...
        assert not journal.append({"rec": "submit", "id": "lost"})
        # ... but the live journal re-synchronises with a newline, so the
        # next record survives intact on its own line.
        journal.fault_plan = None
        assert journal.append({"rec": "submit", "id": "kept", "sources": {},
                               "config": {}, "deadline": None})
        journal.close()

        replay = journal.replay()
        assert replay.torn_records == 1
        assert list(replay.jobs) == ["kept"]

    def test_restart_after_real_crash_keeps_next_append(self, tmp_path):
        """kill -9 mid-append leaves no trailing newline; a *fresh*
        JobJournal over that file must re-sync before its first append,
        or the post-crash record is glued onto the torn line and every
        later replay (including checkpoint) silently drops it."""
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"rec": "submit", "id": "half')  # torn, no newline

        restarted = _journal(tmp_path)
        restarted.submitted("j2", SOURCES, CONFIG, None)
        restarted.close()

        replay = _journal(tmp_path).replay()
        assert replay.torn_records == 1
        assert list(replay.jobs) == ["j1", "j2"]
        # checkpoint() rewrites the journal via replay(): the post-crash
        # submit must survive compaction too (the write-ahead contract).
        compacting = _journal(tmp_path)
        compacting.checkpoint()
        assert list(compacting.replay().jobs) == ["j1", "j2"]

    def test_non_dict_record_counts_as_torn(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b"[1,2,3]\n")
        replay = _journal(tmp_path).replay()
        assert replay.torn_records == 1
        assert list(replay.jobs) == ["j1"]


class TestCheckpoint:
    def test_checkpoint_folds_done_jobs(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.started("j1", 1)
        journal.started("j1", 2)
        journal.done("j1", "ok", {"attempts": 2})
        journal.submitted("j2", SOURCES, CONFIG, None)
        journal.checkpoint()

        with open(journal.path, "rb") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        # j1 folded to submit+done; j2 keeps its pending submit record.
        kinds = [(r["rec"], r["id"]) for r in records]
        assert kinds == [("submit", "j1"), ("done", "j1"), ("submit", "j2")]

        replay = journal.replay()
        assert replay.jobs["j1"].status == "ok"
        assert [s.job_id for s in replay.pending] == ["j2"]

    def test_checkpoint_keeps_attempts_of_pending_jobs(self, tmp_path):
        """A started job that has not finished keeps its attempt count
        through compaction, as one start record carrying it."""
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.started("j1", 1)
        journal.started("j1", 2)
        journal.checkpoint()
        assert journal.replay().jobs["j1"].attempts == 2
        with open(journal.path, "rb") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert [r["rec"] for r in records] == ["submit", "start"]

    def test_checkpoint_bounds_done_history(self, tmp_path):
        journal = _journal(tmp_path)
        for i in range(10):
            journal.submitted(f"j{i}", SOURCES, CONFIG, None)
            journal.done(f"j{i}", "ok", {})
        journal.checkpoint(keep_done=3)
        replay = journal.replay()
        assert sorted(replay.jobs) == ["j7", "j8", "j9"]

    def test_checkpoint_heals_torn_tail(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"rec": "submit", "id": "half')  # torn, no newline
        journal = _journal(tmp_path)
        journal.checkpoint()
        replay = journal.replay()
        assert replay.torn_records == 0
        assert list(replay.jobs) == ["j1"]

    def test_checkpoint_leaves_no_temp_file(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.checkpoint()
        assert not os.path.exists(journal.path + ".ckpt.tmp")

    def test_append_after_checkpoint_continues_the_log(self, tmp_path):
        journal = _journal(tmp_path)
        journal.submitted("j1", SOURCES, CONFIG, None)
        journal.checkpoint()
        journal.submitted("j2", SOURCES, CONFIG, None)
        journal.close()
        replay = _journal(tmp_path).replay()
        assert sorted(replay.jobs) == ["j1", "j2"]


#: A journal the service wrote before replay folded straight into job
#: states, in its two forms: append-only as the daemon wrote it, and as
#: its checkpoint() compacted it (which dropped the start records of the
#: pending job "run2").
EARLIER_APPEND_ONLY = b"""\
{"rec":"submit","id":"ok1","sources":{"Main":"func main() { print(1) }\\n"},"config":{"outline_rounds":1},"deadline":60.0}
{"rec":"start","id":"ok1","attempt":1}
{"rec":"submit","id":"err1","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":5.0}
{"rec":"start","id":"err1","attempt":1}
{"rec":"done","id":"ok1","status":"ok","attempts":1,"breaker_open":false,"image":{"text_sha256":"abababababababababababababababababababababababababababababababab","text_bytes":40},"report":{"num_modules":1}}
{"rec":"start","id":"err1","attempt":2}
{"rec":"done","id":"err1","status":"error","attempts":2,"breaker_open":true,"error":{"error":"DeadlineExpiredError","message":"deadline expired at llc"}}
{"rec":"submit","id":"run2","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":null}
{"rec":"start","id":"run2","attempt":1}
{"rec":"start","id":"run2","attempt":2}
{"rec":"submit","id":"queued","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":null}
"""

EARLIER_COMPACTED = b"""\
{"rec":"submit","id":"ok1","sources":{"Main":"func main() { print(1) }\\n"},"config":{"outline_rounds":1},"deadline":60.0}
{"rec":"done","id":"ok1","status":"ok","attempts":1,"breaker_open":false,"image":{"text_sha256":"abababababababababababababababababababababababababababababababab","text_bytes":40},"report":{"num_modules":1}}
{"rec":"submit","id":"err1","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":5.0}
{"rec":"done","id":"err1","status":"error","attempts":2,"breaker_open":true,"error":{"error":"DeadlineExpiredError","message":"deadline expired at llc"}}
{"rec":"submit","id":"run2","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":null}
{"rec":"submit","id":"queued","sources":{"Main":"func main() { print(1) }\\n"},"config":{},"deadline":null}
"""

_OK1 = ("ok", 1, {"text_sha256": "ab" * 32, "text_bytes": 40}, {})
_ERR1 = ("error", 2, {}, {"error": "DeadlineExpiredError",
                          "message": "deadline expired at llc"})


class TestEarlierJournals:
    """Journals in the older forms replay to the statuses, attempts,
    images and errors the daemon served from them before."""

    def _replayed(self, tmp_path, blob):
        (tmp_path / "journal.jsonl").write_bytes(blob)
        replay = _journal(tmp_path).replay()
        assert replay.torn_records == 0
        return {job.job_id: (job.status, job.attempts, job.image, job.error)
                for job in replay.jobs.values()}

    def test_append_only_form(self, tmp_path):
        assert self._replayed(tmp_path, EARLIER_APPEND_ONLY) == {
            "ok1": _OK1, "err1": _ERR1,
            "run2": ("queued", 2, {}, {}), "queued": ("queued", 0, {}, {})}

    def test_compacted_form(self, tmp_path):
        assert self._replayed(tmp_path, EARLIER_COMPACTED) == {
            "ok1": _OK1, "err1": _ERR1,
            "run2": ("queued", 0, {}, {}), "queued": ("queued", 0, {}, {})}

    def test_compacting_the_append_only_form_keeps_every_outcome(
            self, tmp_path):
        (tmp_path / "journal.jsonl").write_bytes(EARLIER_APPEND_ONLY)
        before = self._replayed(tmp_path, EARLIER_APPEND_ONLY)
        _journal(tmp_path).checkpoint()
        after = _journal(tmp_path).replay()
        assert {job.job_id: (job.status, job.attempts, job.image, job.error)
                for job in after.jobs.values()} == before
        assert after.jobs["ok1"].report == {"num_modules": 1}
        assert after.jobs["err1"].breaker_open is True
