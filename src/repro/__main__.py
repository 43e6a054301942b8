"""Command-line interface: build, run, inspect, serve, and reproduce.

    python -m repro build app.sw [--preset min-size|fast-build|balanced]
    python -m repro build app.sw [--rounds 5] [--pipeline wholeprogram]
    python -m repro build app.sw --target arm64 --target thumb2c
    python -m repro size app.sw [--json] [--baseline size_baseline.json]
    python -m repro run app.sw [--timing]
    python -m repro patterns app.sw [--top 10]
    python -m repro disasm app.sw [--function NAME]
    python -m repro experiments [name ...] [--scale small]
    python -m repro serve --state-dir DIR [--queue-size N] [--deadline S]
    python -m repro submit app.sw --state-dir DIR [--deadline S]
    python -m repro status --state-dir DIR

Multiple source files become one module each (module name = file stem).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.errors import DiagnosticError, ReproError
from repro.pipeline.faults import spec_keys


def _load_sources(paths: List[str]) -> Dict[str, str]:
    sources: Dict[str, str] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as fh:
            sources[name] = fh.read()
    return sources


def _fault_plan(args):
    from repro.pipeline import FaultPlan

    if not getattr(args, "inject_faults", None):
        return None
    return FaultPlan.parse(args.inject_faults)


@contextmanager
def _obs_session(args):
    """Activate a tracer for the command when any observability flag is
    set; on the way out write ``--trace-out`` / ``--metrics-out`` files
    and print the ``--profile`` table.

    Exports run in a ``finally`` so a degraded or failed build still
    leaves its partial trace behind (often the most interesting one).
    """
    from repro import obs

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", False)
    if not (trace_out or metrics_out or profile):
        yield None
        return
    tracer = obs.Tracer()
    try:
        with obs.use_tracer(tracer):
            yield tracer
    finally:
        if trace_out:
            obs.write_chrome_trace(tracer, trace_out)
            print(f"trace:     {trace_out} (load in chrome://tracing or "
                  f"https://ui.perfetto.dev)", file=sys.stderr)
        if metrics_out:
            obs.write_metrics(tracer, metrics_out)
            print(f"metrics:   {metrics_out}", file=sys.stderr)
        if profile:
            for line in obs.profile_lines(tracer):
                print(line)


#: (argparse attribute, BuildConfig field) — flags default to None so an
#: absent flag falls through to the preset (or built-in default): the
#: documented ``explicit > preset > default`` precedence.
_CLI_KNOBS = (
    ("pipeline", "pipeline"), ("rounds", "outline_rounds"),
    ("target", "target"), ("merge", "merge_mode"),
    ("strip", "strip"),
    ("data_layout", "data_layout"), ("layout", "layout"),
    ("layout_seed", "layout_seed"), ("profile_in", "profile_path"),
    ("workers", "workers"), ("incremental", "incremental"),
    ("cache_dir", "cache_dir"),
)


def _target_args(args) -> List[str]:
    """The ``--target`` values (``action="append"`` yields a list)."""
    value = getattr(args, "target", None)
    if not value:
        return []
    return list(value) if isinstance(value, list) else [value]


def _config_from_args(args):
    from repro.pipeline import BuildConfig

    # Multi---target slicing is handled by cmd_build/cmd_size (which null
    # out args.target first); everywhere else a single value is required.
    if isinstance(getattr(args, "target", None), list):
        if len(args.target) > 1:
            raise ReproError("this command takes one --target; multi-target "
                             "slicing is a 'build'/'size' feature")
        args.target = args.target[0]
    knobs = {config_field: getattr(args, attr)
             for attr, config_field in _CLI_KNOBS
             if getattr(args, attr, None) is not None}
    plan = _fault_plan(args)
    if plan is not None:
        knobs["fault_plan"] = plan
    preset = getattr(args, "preset", None)
    if preset is not None:
        return BuildConfig.preset(preset, **knobs)
    # Historical CLI default: build/run outline unless told otherwise.
    knobs.setdefault("outline_rounds", 5)
    return BuildConfig(**knobs)


def _build(args):
    from repro import api

    config = _config_from_args(args)
    return api.build(_load_sources(args.sources), config), config


def _build_sliced(args):
    """Build one slice per --target (the configured target when none is
    given) from one shared frontend.  Returns
    ``({target: BuildResult}, config)``."""
    from repro import api

    targets = _target_args(args)
    args.target = None
    config = _config_from_args(args)
    results = api.build(_load_sources(args.sources), config,
                        targets=targets or [config.target])
    return results, config


def _print_build_summary(name: str, result, config) -> None:
    sizes = result.sizes
    print(f"pipeline:  {config.pipeline}, outline rounds: "
          f"{config.outline_rounds}, target: {name}")
    print(f"code:      {sizes.text_bytes} bytes ({sizes.num_instrs} instructions)")
    print(f"data:      {sizes.data_bytes} bytes")
    print(f"binary:    {sizes.binary_bytes} bytes ({sizes.num_functions} functions)")
    for stat in result.outline_stats:
        print(f"  round {stat.round_no}: {stat.sequences_outlined} sequences "
              f"-> {stat.functions_created} outlined functions, "
              f"{stat.bytes_saved} bytes saved (cumulative)")
    for line in result.report.summary_lines():
        print(line)


def cmd_build(args) -> int:
    with _obs_session(args):
        results, config = _build_sliced(args)
    multi = len(results) > 1
    for i, (name, result) in enumerate(results.items()):
        if multi:
            if i:
                print()
            print(f"-- slice {name} " + "-" * max(1, 58 - len(name)))
        _print_build_summary(name, result, config)
    return 0


def cmd_size(args) -> int:
    import json

    from repro.link import sizereport

    with _obs_session(args):
        results, _config = _build_sliced(args)
    report = sizereport.build_size_report(results)
    payload = sizereport.canonical_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"size report: {args.out}", file=sys.stderr)
    if args.json:
        print(payload)
    else:
        for line in sizereport.render_report(report):
            print(line)
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        lines, failures = sizereport.diff_reports(
            baseline, report, max_text_growth_pct=args.max_text_growth_pct)
        print(f"baseline:  {args.baseline} "
              f"(gate: +{args.max_text_growth_pct:g}% __text)")
        for line in lines:
            print(f"  {line}")
        if failures:
            print(f"error: size regression past the {args.max_text_growth_pct:g}% "
                  f"gate:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
    return 0


def cmd_run(args) -> int:
    from repro.pipeline import run_build
    from repro.sim.profile import ProfileCollector
    from repro.sim.timing import DeviceConfig, TimingModel

    collector = ProfileCollector() if args.profile_out else None
    with _obs_session(args):
        result, _ = _build(args)
        timing = TimingModel(DeviceConfig()) if args.timing else None
        start = time.time()
        execution = run_build(result, timing=timing,
                              max_steps=args.max_steps,
                              profile=collector)
    if collector is not None:
        profile = collector.finalize(result.image)
        digest = profile.save(args.profile_out)
        print(f"profile:   {args.profile_out} ({profile.num_edges} call "
              f"edges, sha256 {digest[:12]})", file=sys.stderr)
    for line in execution.output:
        print(line)
    if args.stats:
        print(f"-- {execution.steps} instructions retired in "
              f"{time.time() - start:.2f}s host time", file=sys.stderr)
        if execution.cycles is not None:
            print(f"-- {execution.cycles} simulated cycles", file=sys.stderr)
        if execution.leaked:
            print(f"-- LEAKED {len(execution.leaked)} objects",
                  file=sys.stderr)
            return 1
    return 0


def cmd_patterns(args) -> int:
    from repro.analysis.patterns import mine_build_patterns
    from repro.outliner.stats import pattern_census

    with _obs_session(args):
        result, _ = _build(args)
    stats = mine_build_patterns(result)
    census = pattern_census(stats)
    print(f"{census['num_patterns']} profitable patterns, "
          f"{census['num_candidates']} candidates, "
          f"longest {census['max_length']} instructions")
    for stat in stats[:args.top]:
        print(f"\n#{stat.pattern_id}  x{stat.num_candidates}  "
              f"len {stat.length}  [{stat.outline_class.value}]  "
              f"saves {stat.benefit_bytes}B")
        for line in stat.rendered:
            print(f"    {line}")
        if stat.functions:
            print(f"    in: {', '.join(stat.functions)}")
    return 0


def cmd_disasm(args) -> int:
    with _obs_session(args):
        result, _ = _build(args)
    for module in result.machine_modules:
        for fn in module.functions:
            if args.function and args.function not in fn.name:
                continue
            print(fn.render())
            print()
    return 0


def cmd_serve(args) -> int:
    from repro.service import BuildService, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        build_workers=args.build_workers,
        default_deadline=args.deadline if args.deadline > 0 else None,
        breaker_threshold=args.breaker_threshold,
        breaker_window=args.breaker_window,
        breaker_cooldown=args.breaker_cooldown,
        max_cache_bytes=args.max_cache_bytes,
        fault_plan=_fault_plan(args))
    service = BuildService(config)
    service.start()

    def _drain_signal(signum, frame):  # noqa: ARG001
        service.request_drain(f"signal {signum}")

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    host, port = service.start_server(args.host, args.port)
    endpoint = service.endpoint_path(args.state_dir)
    print(f"serving:   {host}:{port} (endpoint file {endpoint})", flush=True)
    if service.recovered_count:
        print(f"recovered: {service.recovered_count} journaled job(s) "
              f"re-admitted", flush=True)
    try:
        while not service._draining.is_set():
            time.sleep(0.2)
    finally:
        service.stop_server()
        summary = service.drain(timeout=args.drain_timeout)
        print("drained:   " + ", ".join(
            f"{key}={value}" for key, value in sorted(summary.items())))
    return 0


def _submit_config(args) -> Dict[str, object]:
    """The wire fields of the config ``build`` would resolve from the same
    flags and preset; speed and robustness knobs are the daemon's."""
    from repro.service.protocol import config_to_wire

    return config_to_wire(_config_from_args(args))


def cmd_submit(args) -> int:
    from repro import api

    client = api.connect(state_dir=args.state_dir, host=args.host_opt,
                         port=args.port_opt, timeout=args.client_timeout)
    outcome = client.submit(_load_sources(args.sources),
                            config=_submit_config(args),
                            deadline=args.deadline if args.deadline > 0
                            else None,
                            wait=not args.no_wait)
    print(f"job:       {outcome.job_id} [{outcome.status}]"
          + (" (recovered)" if outcome.recovered else "")
          + (" (breaker open: serial-uncached)" if outcome.breaker_open
             else ""))
    if outcome.image:
        image = outcome.image
        print(f"code:      {image.get('text_bytes')} bytes "
              f"({image.get('num_instrs')} instructions)")
        print(f"data:      {image.get('data_bytes')} bytes")
        print(f"binary:    {image.get('binary_bytes')} bytes "
              f"({image.get('num_functions')} functions)")
        print(f"text sha:  {image.get('text_sha256')}")
    if outcome.report is not None:
        # The same summary (including `degraded:` lines) the one-shot
        # CLI prints — DegradationEvents travel the wire.
        for line in outcome.report.summary_lines():
            print(line)
    return 0


def cmd_status(args) -> int:
    from repro import api

    client = api.connect(state_dir=args.state_dir, host=args.host_opt,
                         port=args.port_opt, timeout=args.client_timeout)
    status = client.status()
    for key, value in sorted(status["summary"].items()):
        print(f"{key}: {value}")
    gauges = status["metrics"].get("gauges", {})
    for name in ("service.queue_depth", "service.breaker_open"):
        if name in gauges:
            print(f"{name}: {gauges[name]}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    wanted = args.names or list(ALL_EXPERIMENTS)
    for name in wanted:
        module = ALL_EXPERIMENTS.get(name)
        if module is None:
            print(f"unknown experiment {name!r}; available: "
                  f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 1
        print("=" * 72)
        print(f"experiment: {name}")
        print("=" * 72)
        kwargs = {}
        if "scale" in module.run.__code__.co_varnames:
            kwargs["scale"] = args.scale
        print(module.format_report(module.run(**kwargs)))
        print()
    return 0


def _add_image_args(parser) -> None:
    """``--preset`` and the flags that define the image, shared by
    ``build`` and ``submit`` so a daemon job resolves its flags exactly
    as a one-shot build does."""
    # Flags default to None (= "not given") so _config_from_args can tell
    # an explicit flag from an absent one; absent flags fall through to
    # the --preset (if any), then to the BuildConfig defaults.  Every
    # string mode offers the one tuple BuildConfig checks it against.
    from repro.pipeline.config import (DATA_LAYOUTS, LAYOUT_MODES,
                                       MERGE_MODES, PIPELINES, PRESETS,
                                       STRIP_MODES)

    parser.add_argument("--preset", default=None,
                        choices=tuple(sorted(PRESETS)),
                        help="named configuration to start from "
                             "(min-size: what the paper shipped; "
                             "fast-build: incremental inner-loop builds; "
                             "balanced: in between).  Explicit flags "
                             "override preset fields.")
    parser.add_argument("--rounds", type=int, default=None,
                        help="machine outlining rounds (default 5)")
    parser.add_argument("--pipeline", default=None, choices=PIPELINES)
    from repro.target import available_targets
    parser.add_argument("--target", default=None, action="append",
                        choices=available_targets(),
                        help="target specification (instruction widths, "
                             "alignment, calling convention); default "
                             "$REPRO_TARGET or arm64.  'build' and 'size' "
                             "accept the flag repeatedly for an "
                             "app-thinning sliced build (one shared "
                             "frontend, one slice per target)")
    parser.add_argument("--merge", default=None,
                        choices=MERGE_MODES,
                        help="whole-program function merging: off, exact "
                             "(bit-identical dedup), or optimistic "
                             "(similarity merging with priced thunks); "
                             "default $REPRO_MERGE or off")
    parser.add_argument("--strip", default=None,
                        choices=STRIP_MODES,
                        help="link-time whole-program stripping: remove "
                             "machine functions unreachable from the entry "
                             "symbol right before the link (default off; "
                             "on in the min-size preset)")
    parser.add_argument("--data-layout", default=None, choices=DATA_LAYOUTS)
    parser.add_argument("--layout", default=None, choices=LAYOUT_MODES,
                        help="function ordering in __text: source (link "
                             "order), near-callers (each outlined function "
                             "after its busiest caller), callgraph-c3 "
                             "(profile-guided clustering; uses "
                             "--profile-in or a static call-site census), "
                             "random (seeded control)")
    parser.add_argument("--layout-seed", type=int, default=None,
                        help="seed for --layout random (default 0)")


def _add_build_args(parser) -> None:
    parser.add_argument("sources", nargs="+", help="Swiftlet source files")
    _add_image_args(parser)
    parser.add_argument("--profile-in", default=None, metavar="PATH",
                        help="layout profile from a previous "
                             "'run --profile-out' feeding callgraph-c3 "
                             "edge weights")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for per-module compilation "
                             "(1 = serial, 0 = one per core)")
    parser.add_argument("--incremental", action="store_true", default=None,
                        help="reuse the content-addressed build cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache location (default: $REPRO_CACHE_DIR "
                             "or a per-checkout tempdir)")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="seeded fault injection, e.g. "
                             "'seed=7,crash=0.3,corrupt=1' (keys: "
                             f"{spec_keys(service=False)})")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace_event JSON of the build "
                             "(load in chrome://tracing or Perfetto)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the build's metrics (counters/gauges/"
                             "histograms) as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-span/per-metric summary table "
                             "after the command")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile and report sizes")
    _add_build_args(p_build)
    p_build.set_defaults(func=cmd_build)

    p_run = sub.add_parser("run", help="compile and execute")
    _add_build_args(p_run)
    p_run.add_argument("--timing", action="store_true",
                       help="enable the cycle timing model")
    p_run.add_argument("--stats", action="store_true",
                       help="print execution statistics to stderr")
    p_run.add_argument("--max-steps", type=int, default=100_000_000)
    p_run.add_argument("--profile-out", default=None, metavar="PATH",
                       help="record a layout profile (call-graph edge "
                            "counts) of this run for 'build --layout "
                            "callgraph-c3 --profile-in PATH'")
    p_run.set_defaults(func=cmd_run)

    p_size = sub.add_parser("size",
                            help="per-module size breakdown and the "
                                 "baseline-diff regression gate")
    _add_build_args(p_size)
    p_size.add_argument("--json", action="store_true",
                        help="print the canonical JSON report instead of "
                             "the table")
    p_size.add_argument("--out", default=None, metavar="PATH",
                        help="also write the canonical JSON report here")
    p_size.add_argument("--baseline", default=None, metavar="PATH",
                        help="diff against this committed size-report JSON; "
                             "exits 1 on __text growth past the gate")
    p_size.add_argument("--max-text-growth-pct", type=float, default=1.0,
                        help="per-target __text growth allowed over the "
                             "baseline before failing (default 1.0)")
    p_size.set_defaults(func=cmd_size)

    p_pat = sub.add_parser("patterns",
                           help="mine repeated machine patterns (§IV)")
    _add_build_args(p_pat)
    p_pat.add_argument("--top", type=int, default=8)
    p_pat.set_defaults(func=cmd_patterns)

    p_dis = sub.add_parser("disasm", help="print generated machine code")
    _add_build_args(p_dis)
    p_dis.add_argument("--function", help="filter by function-name substring")
    p_dis.set_defaults(func=cmd_disasm)

    p_exp = sub.add_parser("experiments",
                           help="regenerate the paper's tables/figures")
    p_exp.add_argument("names", nargs="*",
                       help="experiment names (default: all)")
    p_exp.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "medium", "large"))
    p_exp.set_defaults(func=cmd_experiments)

    p_serve = sub.add_parser("serve", help="run the build daemon")
    p_serve.add_argument("--state-dir", required=True,
                         help="journal + endpoint + default cache location")
    p_serve.add_argument("--cache-dir", default=None,
                         help="shared build cache (default: state-dir/cache)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 = ephemeral; the bound port is written to "
                              "state-dir/endpoint.json")
    p_serve.add_argument("--queue-size", type=int, default=16,
                         help="bounded admission queue; a full queue "
                              "rejects with QueueFullError (default 16)")
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="concurrent jobs (default 2)")
    p_serve.add_argument("--build-workers", type=int, default=2,
                         help="forked compile workers per job (default 2)")
    p_serve.add_argument("--deadline", type=float, default=120.0,
                         help="default per-job deadline seconds "
                              "(0 disables; default 120)")
    p_serve.add_argument("--drain-timeout", type=float, default=60.0,
                         help="seconds to wait for in-flight jobs on drain")
    p_serve.add_argument("--breaker-threshold", type=int, default=3)
    p_serve.add_argument("--breaker-window", type=int, default=10)
    p_serve.add_argument("--breaker-cooldown", type=int, default=5)
    p_serve.add_argument("--max-cache-bytes", type=int, default=None,
                         help="LRU-prune the shared cache to this size "
                              "after every job")
    p_serve.add_argument("--inject-faults", default=None, metavar="SPEC",
                         help="seeded service+pipeline fault injection "
                              f"(keys: {spec_keys(service=True)})")
    p_serve.set_defaults(func=cmd_serve)

    def _add_client_args(p) -> None:
        p.add_argument("--state-dir", default=None,
                       help="daemon state dir (reads host/port and the "
                            "auth token from endpoint.json)")
        p.add_argument("--host", dest="host_opt", default=None,
                       help="daemon host; pair with --state-dir so the "
                            "auth token can still be read")
        p.add_argument("--port", dest="port_opt", type=int, default=None)
        p.add_argument("--client-timeout", type=float, default=300.0,
                       help="socket timeout waiting for the daemon")

    p_submit = sub.add_parser("submit",
                              help="submit a build to a running daemon")
    p_submit.add_argument("sources", nargs="+", help="Swiftlet source files")
    _add_image_args(p_submit)
    p_submit.add_argument("--deadline", type=float, default=0.0,
                          help="per-job deadline seconds (0 = daemon "
                               "default)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="return after admission; query later")
    _add_client_args(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status", help="query a running daemon")
    _add_client_args(p_status)
    p_status.set_defaults(func=cmd_status)

    args = parser.parse_args(argv)
    if args.command != "serve":
        # One-shot commands: route SIGTERM through the normal exception
        # path so finally blocks run — worker pools are terminated and
        # no half-published cache temp files or orphaned forks remain
        # (`serve` installs its own graceful-drain handlers instead).
        _install_interrupt_handler()
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted (worker pools torn down)", file=sys.stderr)
        return 130
    except DiagnosticError as exc:
        # Source-level diagnostics already carry file:line:col.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # Unreadable inputs, bad --inject-faults specs, and the like.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _install_interrupt_handler() -> None:
    """Make SIGTERM behave like Ctrl-C for cleanup purposes."""

    def _on_sigterm(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        pass  # not the main thread, or an exotic platform


if __name__ == "__main__":
    sys.exit(main())
