"""Fault-injection property harness for the build orchestrator.

The invariant the whole robustness layer exists to uphold: under ANY
combination of injected faults — worker crashes, hangs past the chunk
deadline, unpicklable results, a fork-less platform, corrupted cache
entries, torn cache writes — ``build_program`` either produces an image
**bit-identical** to the fault-free serial build or raises a **typed**
:class:`~repro.errors.ReproError`.  It must never return a different
binary, and it must never leak an untyped exception.

hypothesis draws random fault plans (seeds and rates) and random
parallel/incremental configurations over a fixed synthetic app; the CI
fault-injection job runs the same harness under a fixed seed matrix.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.pipeline import BuildConfig, FaultPlan, build_program

SOURCES = {
    "Lib": """
class Accum {
    var total: Int
    init() { self.total = 0 }
    func add(x: Int) -> Int {
        self.total = self.total + x
        return self.total
    }
}
func fa(x: Int) -> Int { return x * 2 + 1 }
func fb(x: Int) -> Int { return x * 2 + 2 }
""",
    "Util": """
func fc(x: Int) -> Int { return x * 2 + 3 }
func fd(x: Int) -> Int { return x * 2 + 4 }
""",
    "Main": """
import Lib
import Util

func main() {
    let acc = Accum()
    var v = 0
    for i in 0..<3 {
        v = acc.add(x: fa(x: i) + fb(x: i) + fc(x: i) + fd(x: i))
    }
    print(v)
}
""",
}


def _reference():
    result = build_program(SOURCES, BuildConfig(outline_rounds=1))
    return (result.image.text_section(), result.image.data_section())


REFERENCE = _reference()


def check_invariant(plan, *, pipeline="wholeprogram", workers=3,
                    incremental=False, cache_dir=None, prebuilds=0):
    """One verdict: bit-identical image or typed error.  Returns what
    happened, for callers that want to assert on coverage."""
    config = BuildConfig(pipeline=pipeline, outline_rounds=1,
                         workers=workers, incremental=incremental,
                         cache_dir=cache_dir, fault_plan=plan,
                         chunk_timeout=0.15)
    for _ in range(prebuilds):
        # Populate (and then stress) the cache under the same plan.
        try:
            build_program(SOURCES, config)
        except ReproError:
            pass
    try:
        result = build_program(SOURCES, config)
    except ReproError:
        return "typed-error"
    except Exception as exc:  # pragma: no cover - the bug this test hunts
        pytest.fail(f"untyped exception escaped the orchestrator: "
                    f"{type(exc).__name__}: {exc}")
    fingerprint = (result.image.text_section(), result.image.data_section())
    assert fingerprint == REFERENCE, (
        "fault injection changed the produced binary")
    return "bit-identical"


@st.composite
def fault_plans(draw):
    rate = st.sampled_from([0.0, 0.3, 1.0])
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        worker_crash_rate=draw(rate),
        worker_hang_rate=draw(st.sampled_from([0.0, 0.3])),
        pickle_failure_rate=draw(rate),
        cache_corrupt_rate=draw(rate),
        torn_write_rate=draw(rate),
        fork_unavailable=draw(st.booleans()),
        hang_seconds=0.4)


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(),
       pipeline=st.sampled_from(["wholeprogram", "default"]),
       incremental=st.booleans())
def test_faulted_builds_are_identical_or_typed_errors(plan, pipeline,
                                                      incremental):
    cache_dir = tempfile.mkdtemp(prefix="repro-fault-") if incremental else None
    try:
        check_invariant(plan, pipeline=pipeline, incremental=incremental,
                        cache_dir=cache_dir, prebuilds=int(incremental))
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


#: The CI fault-injection job's fixed seed matrix: every fault class alone
#: at full strength, plus mixed-rate plans, on both pipelines.
SEED_MATRIX = [
    FaultPlan(seed=101, worker_crash_rate=1.0),
    FaultPlan(seed=102, worker_hang_rate=1.0, hang_seconds=0.4),
    FaultPlan(seed=103, pickle_failure_rate=1.0),
    FaultPlan(seed=104, fork_unavailable=True),
    FaultPlan(seed=105, cache_corrupt_rate=1.0),
    FaultPlan(seed=106, torn_write_rate=1.0),
    FaultPlan(seed=107, worker_crash_rate=0.4, worker_hang_rate=0.2,
              pickle_failure_rate=0.4, cache_corrupt_rate=0.4,
              torn_write_rate=0.4, hang_seconds=0.4),
]


@pytest.mark.parametrize("pipeline", ["wholeprogram", "default"])
@pytest.mark.parametrize("plan", SEED_MATRIX,
                         ids=lambda p: f"seed{p.seed}")
def test_seed_matrix(plan, pipeline, tmp_path):
    cache_faults = plan.cache_corrupt_rate > 0 or plan.torn_write_rate > 0
    outcome = check_invariant(plan, pipeline=pipeline,
                              incremental=cache_faults,
                              cache_dir=str(tmp_path) if cache_faults else None,
                              prebuilds=int(cache_faults))
    # The degradation ladder bottoms out at an in-parent serial re-run, so
    # worker-side faults must never escalate to an error at all.
    if plan.cache_corrupt_rate == 0 and plan.torn_write_rate == 0:
        assert outcome == "bit-identical"


def test_degradations_are_visible_on_the_report():
    plan = FaultPlan(seed=42, worker_crash_rate=1.0)
    config = BuildConfig(pipeline="default", outline_rounds=1, workers=3,
                         fault_plan=plan, chunk_timeout=0.5)
    result = build_program(SOURCES, config)
    kinds = {e.kind for e in result.report.degradations}
    assert "worker-crash" in kinds
    assert "chunk-serial-rerun" in kinds
    rendered = "\n".join(result.report.summary_lines())
    assert "degraded:" in rendered
