"""CLI smoke tests (python -m repro)."""

import io
import sys

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


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "App.sw"
    path.write_text(SOURCE)
    return str(path)


def run_cli(args):
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, captured.getvalue()


def run_cli_err(args):
    """Like run_cli but also captures stderr (for diagnostics)."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_build_reports_sizes(source_file):
    code, out = run_cli(["build", source_file, "--rounds", "3"])
    assert code == 0
    assert "code:" in out and "binary:" in out
    assert "wholeprogram" in out


def test_run_prints_program_output(source_file):
    code, out = run_cli(["run", source_file])
    assert code == 0
    assert out.strip() == "55"


def test_run_with_timing(source_file):
    code, out = run_cli(["run", source_file, "--timing"])
    assert code == 0
    assert out.strip() == "55"


def test_patterns_lists_census(source_file, tmp_path):
    # Use a program with real repetition so patterns exist.
    path = tmp_path / "Rep.sw"
    path.write_text("""
class Box { var v: Int
    init(v: Int) { self.v = v } }
func a(b: Box) -> Int { return b.v + 1 }
func c(b: Box) -> Int { return b.v + 2 }
func d(b: Box) -> Int { return b.v + 3 }
func main() {
    let box = Box(v: 1)
    print(a(b: box) + c(b: box) + d(b: box))
}
""")
    code, out = run_cli(["patterns", str(path), "--rounds", "0", "--top", "3"])
    assert code == 0
    assert "profitable patterns" in out


def test_disasm_filters_by_function(source_file):
    code, out = run_cli(["disasm", source_file, "--rounds", "0",
                         "--function", "square"])
    assert code == 0
    assert "define @App::square" in out
    assert "@App::main" not in out


def test_default_pipeline_flag(source_file):
    code, out = run_cli(["build", source_file, "--pipeline", "default",
                         "--rounds", "1"])
    assert code == 0
    assert "default" in out


def test_multiple_modules(tmp_path):
    lib = tmp_path / "Lib.sw"
    lib.write_text("func triple(x: Int) -> Int { return x * 3 }")
    app = tmp_path / "Main.sw"
    app.write_text("import Lib\nfunc main() { print(triple(x: 4)) }")
    code, out = run_cli(["run", str(lib), str(app)])
    assert code == 0
    assert out.strip() == "12"


class TestErrorHandling:
    """`python -m repro` must exit 1 with a one-line diagnostic on any
    toolchain error — never dump a traceback on the user."""

    def test_parse_error_is_a_one_line_diagnostic(self, tmp_path):
        path = tmp_path / "Broken.sw"
        path.write_text("func main() { print(1 + ) }\n")
        code, out, err = run_cli_err(["build", str(path)])
        assert code == 1
        assert err.startswith("error: ")
        assert "Broken.sw:1:" in err  # file:line:col survives
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_sema_error_is_a_one_line_diagnostic(self, tmp_path):
        path = tmp_path / "Typo.sw"
        path.write_text("func main() { print(noSuchFunction(x: 1)) }\n")
        code, out, err = run_cli_err(["run", str(path)])
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_source_file(self):
        code, out, err = run_cli_err(["build", "/no/such/file.sw"])
        assert code == 1
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_bad_fault_spec(self, source_file):
        code, out, err = run_cli_err(["build", source_file,
                                      "--inject-faults", "bogus=1"])
        assert code == 1
        assert "bad fault spec" in err

    def test_bad_knob_is_rejected_before_any_work(self, source_file):
        code, out, err = run_cli_err(["build", source_file, "--rounds", "-1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConfigError: ")
        assert "outline_rounds" in err
        assert len(err.strip().splitlines()) == 1


class TestRobustnessFlags:
    def test_faulted_build_degrades_and_still_answers(self, source_file,
                                                      tmp_path):
        lib = tmp_path / "Lib.sw"
        lib.write_text("func triple(x: Int) -> Int { return x * 3 }\n"
                       "func quad(x: Int) -> Int { return x * 4 }\n")
        app = tmp_path / "Main.sw"
        app.write_text("import Lib\n"
                       "func main() { print(triple(x: 4) + quad(x: 1)) }\n")
        code, out, err = run_cli_err(
            ["run", str(lib), str(app), "--pipeline", "default",
             "--workers", "2",
             "--inject-faults", "seed=9,crash=1"])
        assert code == 0
        assert out.strip() == "16"

    def test_build_prints_degradations(self, tmp_path):
        lib = tmp_path / "Lib.sw"
        lib.write_text("func t(x: Int) -> Int { return x * 3 }\n")
        app = tmp_path / "Main.sw"
        app.write_text("import Lib\nfunc main() { print(t(x: 4)) }\n")
        code, out = run_cli(["build", str(lib), str(app), "--pipeline",
                             "default", "--workers", "2",
                             "--inject-faults", "seed=9,crash=1"])
        assert code == 0
        assert "degraded:" in out
        assert "chunk-serial-rerun" in out

    def test_verify_flag_shows_in_report(self, source_file):
        code, out = run_cli(["build", source_file])
        assert code == 0
        assert "image verified" in out


class TestObservabilityFlags:
    """Acceptance surface for --trace-out / --metrics-out / --profile."""

    @pytest.fixture
    def modules(self, tmp_path):
        lib = tmp_path / "Lib.sw"
        lib.write_text("func scale(x: Int) -> Int {\n"
                       "    var acc = x\n"
                       "    for i in 0..<4 { acc += i * x }\n"
                       "    return acc\n"
                       "}\n")
        app = tmp_path / "Main.sw"
        app.write_text("import Lib\n"
                       "func main() {\n"
                       "    var total = 0\n"
                       "    for i in 0..<5 { total += scale(x: i) }\n"
                       "    print(total)\n"
                       "}\n")
        return [str(lib), str(app)]

    def test_trace_and_metrics_files(self, modules, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code, out, err = run_cli_err(
            ["build", *modules, "--pipeline", "default", "--workers", "2",
             "--rounds", "2",
             "--trace-out", str(trace_path),
             "--metrics-out", str(metrics_path)])
        assert code == 0
        assert "Perfetto" in err or "perfetto" in err

        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        # Every pipeline phase, per-pass LIR spans, per-round outliner
        # spans, and forked-worker chunk spans are on the timeline.
        for phase in ("build", "parse", "sema", "silgen", "lower",
                      "llc", "link", "verify"):
            assert phase in names, phase
        assert any(n.startswith("lir-pass:") for n in names)
        assert "outline-round" in names
        assert any(n.startswith("worker-chunk:") for n in names)
        assert any(e["tid"] > 0 for e in events if e["ph"] == "X")
        assert any(e["ph"] == "M" and e["args"]["name"].startswith(
            "worker chunk") for e in events)

        metrics = json.loads(metrics_path.read_text())
        counters, gauges = metrics["counters"], metrics["gauges"]
        assert any(k.startswith("lir.pass.") for k in counters)
        assert "outliner.rounds" in counters
        assert "cache.hits" in gauges and "cache.enabled" in gauges
        assert gauges["verify.passed"] == 1
        assert gauges["image.text_bytes"] > 0

    def test_profile_prints_summary(self, modules):
        code, out = run_cli(["build", *modules, "--profile"])
        assert code == 0
        assert "profile (span totals" in out
        assert "metrics:" in out

    def test_tracing_does_not_change_the_binary(self, modules, tmp_path):
        def size_lines(extra):
            code, out = run_cli(["build", *modules, "--rounds", "3", *extra])
            assert code == 0
            return [line for line in out.splitlines()
                    if line.startswith(("code:", "data:", "binary:"))]

        untraced = size_lines([])
        traced = size_lines(["--trace-out", str(tmp_path / "t.json"),
                             "--metrics-out", str(tmp_path / "m.json")])
        assert traced == untraced

    def test_trace_survives_a_degraded_build(self, modules, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        code, out, err = run_cli_err(
            ["build", *modules, "--pipeline", "default", "--workers", "2",
             "--inject-faults", "seed=9,crash=1",
             "--trace-out", str(trace_path)])
        assert code == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(e["ph"] == "i" and e["name"].startswith("degraded:")
                   for e in events)
