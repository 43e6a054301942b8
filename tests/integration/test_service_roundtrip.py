"""End-to-end daemon round trip through the real CLI: `repro serve` in a
subprocess, `repro submit` / `repro status` in-process against it, warm
image-cache hits on resubmission, degradation lines over the wire, and a
graceful SIGTERM drain with exit code 0."""

import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main

SOURCE = """
func square(x: Int) -> Int { return x * x }
func main() {
    var total = 0
    for i in 0..<6 { total += square(x: i) }
    print(total)
}
"""


def run_cli(args):
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, captured.getvalue()


def _src_path():
    return str(Path(__file__).resolve().parents[2] / "src")


def _sha(out):
    for line in out.splitlines():
        if line.startswith("text sha:"):
            return line.split()[-1]
    raise AssertionError(f"no sha line in: {out}")


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "App.sw"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def daemon(tmp_path):
    """A live `repro serve` subprocess; yields its state dir."""
    state_dir = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_path()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir),
         "--job-workers", "1", "--build-workers", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    endpoint = state_dir / "endpoint.json"
    deadline = time.monotonic() + 60
    while not endpoint.exists():
        assert proc.poll() is None, f"daemon died: {proc.stdout.read()}"
        assert time.monotonic() < deadline, "daemon never came up"
        time.sleep(0.05)
    yield proc, str(state_dir)
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


class TestServeSubmitRoundTrip:
    def test_submit_builds_and_reports(self, daemon, source_file):
        _, state_dir = daemon
        code, out = run_cli(["submit", source_file,
                             "--state-dir", state_dir, "--rounds", "1"])
        assert code == 0
        assert "[ok]" in out
        assert "code:" in out and "binary:" in out
        assert "text sha:" in out
        assert "frontend:" in out          # BuildReport travelled the wire
        assert "verify:    image verified" in out

    def test_resubmit_is_a_warm_image_cache_hit(self, daemon, source_file):
        _, state_dir = daemon
        code, first = run_cli(["submit", source_file,
                               "--state-dir", state_dir, "--rounds", "1"])
        assert code == 0
        code, second = run_cli(["submit", source_file,
                                "--state-dir", state_dir, "--rounds", "1"])
        assert code == 0
        assert "image cache hit (no recompilation)" in second
        assert _sha(first) == _sha(second)

    def test_submit_preset_builds_what_build_builds(self, daemon, tmp_path):
        """`submit --preset min-size` ships the whole resolved config, so
        the daemon strips at link time exactly like the one-shot build."""
        from repro import api

        source = SOURCE + "func unused(x: Int) -> Int { return x * 7 + 1 }\n"
        path = tmp_path / "preset" / "App.sw"
        path.parent.mkdir()
        path.write_text(source)
        _, state_dir = daemon
        code, out = run_cli(["submit", str(path), "--state-dir", state_dir,
                             "--preset", "min-size"])
        assert code == 0
        assert re.search(r"^strip: +program", out, re.M), out
        local = api.build({"App": source}, preset="min-size")
        assert _sha(out) == hashlib.sha256(
            local.image.text_section()).hexdigest()

    def test_submit_takes_the_image_flags_build_takes(self, daemon,
                                                      tmp_path):
        """`submit` parses the image-defining flags through the same
        helper as `build`, so `--strip program` reaches the daemon and the
        job builds what the same flags build locally."""
        from repro import api

        source = SOURCE + "func unused(x: Int) -> Int { return x * 7 + 1 }\n"
        path = tmp_path / "flags" / "App.sw"
        path.parent.mkdir()
        path.write_text(source)
        _, state_dir = daemon
        code, out = run_cli(["submit", str(path), "--state-dir", state_dir,
                             "--strip", "program", "--rounds", "2"])
        assert code == 0
        assert re.search(r"^strip: +program", out, re.M), out
        local = api.build({"App": source}, strip="program", outline_rounds=2)
        assert _sha(out) == hashlib.sha256(
            local.image.text_section()).hexdigest()

    def test_degradation_lines_travel_the_wire(self, tmp_path):
        """A daemon injecting worker crashes: `repro submit` prints the
        same `degraded:` ladder lines the one-shot CLI prints.  Needs a
        multi-module program — a single module compiles serially with no
        worker fault sites."""
        lib = tmp_path / "Lib.sw"
        lib.write_text("func triple(x: Int) -> Int { return x * 3 }\n")
        app = tmp_path / "Main.sw"
        app.write_text("import Lib\n"
                       "func main() { print(triple(x: 14)) }\n")
        state_dir = tmp_path / "chaos-state"
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_path()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir),
             "--job-workers", "1", "--build-workers", "2",
             "--inject-faults", "seed=9,crash=1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            deadline = time.monotonic() + 60
            while not (state_dir / "endpoint.json").exists():
                assert proc.poll() is None
                assert time.monotonic() < deadline
                time.sleep(0.05)
            code, out = run_cli(["submit", str(lib), str(app),
                                 "--state-dir", str(state_dir),
                                 "--rounds", "1"])
            assert code == 0
            assert "[ok]" in out
            assert "degraded:" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_status_reports_summary_and_gauges(self, daemon, source_file):
        _, state_dir = daemon
        run_cli(["submit", source_file, "--state-dir", state_dir,
                 "--rounds", "1"])
        code, out = run_cli(["status", "--state-dir", state_dir])
        assert code == 0
        assert "jobs_ok: 1" in out
        assert "breaker_state: closed" in out
        assert "service.queue_depth:" in out

    def test_queue_full_backpressure_reaches_the_cli(self, tmp_path,
                                                     source_file):
        """A CLI submit against a saturated queue exits non-zero with the
        typed QueueFullError name on stderr, instead of hanging."""
        from repro.service import BuildService, ServiceConfig

        state_dir = tmp_path / "full-state"
        service = BuildService(ServiceConfig(state_dir=str(state_dir),
                                             queue_size=1))
        # No executors: the one queue slot stays occupied.
        service.submit_job({"App": SOURCE}, {"outline_rounds": 1})
        host, port = service.start_server()
        err = io.StringIO()
        old_err = sys.stderr
        sys.stderr = err
        try:
            code = main(["submit", source_file, "--state-dir",
                         str(state_dir), "--rounds", "1",
                         "--client-timeout", "30"])
        finally:
            sys.stderr = old_err
            service.stop_server()
            service.journal.close()
        assert code == 1
        assert "QueueFullError" in err.getvalue()

    def test_sigterm_drains_gracefully(self, daemon, source_file):
        proc, state_dir = daemon
        code, _ = run_cli(["submit", source_file, "--state-dir", state_dir,
                           "--rounds", "1"])
        assert code == 0
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode == 0
        out = proc.stdout.read()
        assert "drained:" in out
        assert "jobs_ok=1" in out
        # The endpoint file is gone: no stale discovery for later clients.
        assert not (Path(state_dir) / "endpoint.json").exists()
        # The journal survives (compacted) for the next daemon.
        journal = Path(state_dir) / "journal.jsonl"
        assert journal.exists()
        records = [json.loads(line)
                   for line in journal.read_bytes().splitlines()
                   if line.strip()]
        assert any(r["rec"] == "done" and r["status"] == "ok"
                   for r in records)
