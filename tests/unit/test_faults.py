"""Unit tests for the seeded fault-injection framework (pipeline/faults.py)."""

import dataclasses
import pickle

import pytest

from repro.pipeline.faults import FaultPlan, spec_keys


class TestDecisions:
    def test_deterministic_across_calls_and_instances(self):
        a = FaultPlan(seed=7, worker_crash_rate=0.5)
        b = FaultPlan(seed=7, worker_crash_rate=0.5)
        sites = [f"lower:{i}:a{j}" for i in range(20) for j in range(3)]
        assert ([a.should_fire("worker_crash", s) for s in sites]
                == [b.should_fire("worker_crash", s) for s in sites])

    def test_seed_changes_the_schedule(self):
        sites = [f"llc:{i}:a0" for i in range(64)]
        one = [FaultPlan(seed=1, worker_crash_rate=0.5)
               .should_fire("worker_crash", s) for s in sites]
        two = [FaultPlan(seed=2, worker_crash_rate=0.5)
               .should_fire("worker_crash", s) for s in sites]
        assert one != two

    def test_rate_zero_never_fires_rate_one_always(self):
        off = FaultPlan(seed=3)
        on = FaultPlan(seed=3, worker_crash_rate=1.0, cache_corrupt_rate=1.0)
        for i in range(50):
            assert not off.should_fire("worker_crash", f"s{i}")
            assert on.should_fire("worker_crash", f"s{i}")
            assert on.should_fire("cache_corrupt", f"s{i}")

    def test_rate_is_roughly_respected(self):
        plan = FaultPlan(seed=11, worker_hang_rate=0.3)
        fired = sum(plan.should_fire("worker_hang", f"site{i}")
                    for i in range(2000))
        assert 450 < fired < 750  # 0.3 +/- generous slack

    def test_attempts_draw_fresh_decisions(self):
        # A transient fault: some chunk that fails on attempt 0 must pass
        # on a later attempt (this is what makes in-pool retry useful).
        plan = FaultPlan(seed=5, worker_crash_rate=0.5)
        recovered = any(
            plan.should_fire("worker_crash", f"lower:{i}:a0")
            and not plan.should_fire("worker_crash", f"lower:{i}:a1")
            for i in range(32))
        assert recovered

    def test_fault_kinds_are_independent(self):
        plan = FaultPlan(seed=9, worker_crash_rate=0.5,
                         torn_write_rate=0.5)
        sites = [f"s{i}" for i in range(256)]
        crash = [plan.should_fire("worker_crash", s) for s in sites]
        torn = [plan.should_fire("torn_write", s) for s in sites]
        assert crash != torn

    def test_plans_are_picklable(self):
        plan = FaultPlan(seed=4, pickle_failure_rate=0.25,
                         fork_unavailable=True)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7, crash=0.3, hang=0.1, pickle=0.2, corrupt=1, torn=0.5,"
            " nofork=1, hangsecs=0.25")
        assert plan == FaultPlan(seed=7, worker_crash_rate=0.3,
                                 worker_hang_rate=0.1,
                                 pickle_failure_rate=0.2,
                                 cache_corrupt_rate=1.0,
                                 torn_write_rate=0.5,
                                 fork_unavailable=True, hang_seconds=0.25)

    def test_empty_spec_is_the_default_plan(self):
        assert FaultPlan.parse("") == FaultPlan()

    @pytest.mark.parametrize("spec", ["bogus=1", "crash", "crash=lots"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_every_field_has_a_spec_key_that_parses(self):
        keys = [f.metadata["key"] for f in dataclasses.fields(FaultPlan)]
        assert len(set(keys)) == len(keys)
        assert spec_keys(service=True) == ", ".join(keys)
        for f in dataclasses.fields(FaultPlan):
            plan = FaultPlan.parse(f"{f.metadata['key']}=1")
            assert getattr(plan, f.name) == 1
        # A build's keys leave out the ones only the daemon reads.
        build_keys = spec_keys(service=False).split(", ")
        assert "crash" in build_keys and "hangsecs" in build_keys
        assert not {"disconnect", "jtorn", "deadline", "sigterm"} & set(
            build_keys)

    @pytest.mark.parametrize("spec", ["crash=2", "hang=-1", "hangsecs=-5",
                                      "jtorn=1.5", "corrupt=nan"])
    def test_out_of_range_values_raise(self, spec):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan.parse(spec)
