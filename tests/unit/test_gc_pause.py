"""The cyclic garbage collector is paused for exactly the length of a build.

``build_targets`` (and so ``build_program``, ``api.build``, the CLI and
daemon jobs), ``compile_frontend`` and ``compile_backend`` run with the
collector off.  Nested builds and concurrent builds in threads share one
depth count; the outermost exit, exceptions included, restores the
caller's collector state.  The observers below wrap passes that run
inside a build and record what they see.
"""

import gc
import os
import sys
import threading

import pytest

from repro.errors import SemaError
from repro.pipeline import (BuildConfig, build_program, compile_backend,
                            compile_frontend)
from repro.pipeline import build as build_mod

SOURCES = {"Lib": "func triple(x: Int) -> Int { return x * 3 }\n",
           "Main": "import Lib\nfunc main() { print(triple(x: 14)) }\n"}


@pytest.fixture
def observed(monkeypatch):
    """``gc.isenabled()`` as seen from inside parse and verify."""
    seen = []

    def observing(fn):
        def wrapper(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(build_mod, "parse_module",
                        observing(build_mod.parse_module))
    monkeypatch.setattr(build_mod, "verify_image",
                        observing(build_mod.verify_image))
    return seen


@pytest.fixture
def collector_on():
    """Start with the collector on and put the caller's state back."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_collector_is_off_inside_every_build_entry(observed, collector_on):
    build_program(SOURCES, BuildConfig())
    artifact = compile_frontend(SOURCES, BuildConfig())
    compile_backend(artifact, BuildConfig(target="thumb2c"))
    # Two parses, then a verify; compile_backend only verifies.
    assert observed == [False] * 6
    assert gc.isenabled()
    assert build_mod._COLLECTOR_PAUSE.depth == 0


def test_nested_build_keeps_the_outer_pause(monkeypatch, collector_on):
    inner_after = []
    verify = build_mod.verify_image

    def verify_with_nested_build(*args, **kwargs):
        if not inner_after:
            compile_frontend(SOURCES, BuildConfig())
            inner_after.append(gc.isenabled())
        return verify(*args, **kwargs)

    monkeypatch.setattr(build_mod, "verify_image", verify_with_nested_build)
    build_program(SOURCES, BuildConfig())
    assert inner_after == [False]
    assert gc.isenabled()
    assert build_mod._COLLECTOR_PAUSE.depth == 0


def test_failed_build_restores_the_collector(observed, collector_on):
    with pytest.raises(SemaError):
        build_program({"Main": "func main() { print(missing) }\n"},
                      BuildConfig())
    assert observed == [False]
    assert gc.isenabled()
    assert build_mod._COLLECTOR_PAUSE.depth == 0


def test_build_leaves_a_disabled_collector_disabled(observed):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        build_program(SOURCES, BuildConfig())
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert observed == [False] * 3
    assert build_mod._COLLECTOR_PAUSE.depth == 0


def test_concurrent_builds_share_one_pause(observed, collector_on):
    # More threads than cores and a short switch interval, so threads
    # interleave inside the pause's entry and exit; a lost update to the
    # depth count would turn the collector back on under a running build,
    # or leave it off after the last one.  Half the threads build; the
    # other half enter and leave the pause in a tight loop, as a stream of
    # trivial builds would, so the depth passes through 0 often.
    threads = 2 * ((os.cpu_count() or 2) + 2)
    builds_each = 10
    pauses_each = 100_000
    errors = []
    start = threading.Barrier(threads)

    def build():
        for _ in range(builds_each):
            build_program(SOURCES, BuildConfig())

    def pause():
        for _ in range(pauses_each):
            with build_mod._COLLECTOR_PAUSE:
                observed.append(gc.isenabled())

    def run(work):
        try:
            start.wait(timeout=60)
            work()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=run, args=(work,))
                for _ in range(threads // 2) for work in (build, pause)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    assert len(observed) == threads // 2 * (3 * builds_each + pauses_each)
    assert not any(observed)
    assert gc.isenabled()
    assert build_mod._COLLECTOR_PAUSE.depth == 0
