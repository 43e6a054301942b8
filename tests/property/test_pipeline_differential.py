"""Differential fuzzing of the *whole* pipeline: random programs must
behave identically under the minimal build and under the full pass stack
(SIL outlining, function merging, FMSA, the inliner, repeated machine
outlining, both pipelines, both layouts) — same printed output,
no leaks, every optional transform at once.

This extends ``test_outline_equivalence`` (which varies only the round
count) to the paper's complete optimisation surface: the configurations
below differ in every semantics-preserving knob the pipeline has.
"""

from hypothesis import given, settings, strategies as st

from repro.pipeline import BuildConfig, build_program, run_build
from tests.property.test_outline_equivalence import ProgramGenerator

#: Reference: whole-program with every optional transform off.
MINIMAL = BuildConfig(pipeline="wholeprogram", outline_rounds=0,
                      global_dce=False)

#: Everything the paper stacked on top, all at once, plus layout and
#: pipeline variants that must not change observable behaviour.
FULL_STACK = (
    BuildConfig(pipeline="wholeprogram", outline_rounds=5,
                enable_sil_outlining=True, merge_mode="exact",
                enable_fmsa=True, enable_inliner=True),
    BuildConfig(pipeline="wholeprogram", outline_rounds=3,
                enable_sil_outlining=True, merge_mode="exact",
                enable_fmsa=True, enable_inliner=True,
                data_layout="interleaved", layout="near-callers"),
    BuildConfig(pipeline="default", outline_rounds=2,
                enable_sil_outlining=True, enable_fmsa=True),
)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_full_pass_stack_preserves_behaviour(seed):
    source = ProgramGenerator(seed).generate()
    reference = run_build(build_program({"Gen": source}, MINIMAL),
                          max_steps=5_000_000)
    assert reference.leaked == [], f"seed={seed} minimal build leaked"
    for config in FULL_STACK:
        execution = run_build(build_program({"Gen": source}, config),
                              max_steps=5_000_000)
        assert execution.leaked == [], (
            f"seed={seed} leaked under {config.backend_fingerprint()}")
        assert execution.output == reference.output, (
            f"seed={seed} diverged under {config.backend_fingerprint()}")
    assert reference.output and all(part.lstrip("-").isdigit()
                                    for part in reference.output)
