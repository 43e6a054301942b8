"""Cross-target differential tests for the TargetSpec abstraction.

Three claims, each enforced directly:

1. **Both targets are pinned bit-identically** — every build in
   ``GOLDEN_CONFIGS`` must match the golden fixtures
   (``tests/fixtures/golden_arm64.json`` / ``golden_thumb2c.json``), with
   ``merge_mode="off"`` pinned so a leaking ``REPRO_MERGE`` can never
   silently change the baseline.  A mismatch fails loudly, naming every
   diverging field and how to regenerate on purpose.
2. **thumb2c is a real variable-width target** — its images carry a
   per-instruction address table, pass the structural verifier
   (alignment padding included), never grow under outlining, and run to
   the same program output as arm64.
3. **Targets never share cache entries** — the backend fingerprint keys
   the image cache by target, so a thumb2c rebuild over a warm arm64
   cache recompiles instead of resurrecting 4-byte code.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from repro.errors import ImageVerifierError
from repro.link.verify import verify_image
from repro.pipeline import BuildConfig, build_program
from repro.pipeline.build import run_build
from repro.target import get_target
from repro.workloads.appgen import generate_app

# The fixture spec, pinned configs, and observation schema live with the
# regeneration script so the two can never drift apart.
_MAKE_GOLDEN = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                            "make_golden.py")
_spec = importlib.util.spec_from_file_location("make_golden", _MAKE_GOLDEN)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

APP_SPEC = make_golden.APP_SPEC
GOLDEN_CONFIGS = make_golden.GOLDEN_CONFIGS


@pytest.fixture(scope="module")
def sources():
    return generate_app(APP_SPEC)


@pytest.fixture(scope="module")
def golden():
    def _load(target):
        with open(make_golden.golden_path(target), encoding="utf-8") as fh:
            return json.load(fh)
    return {target: _load(target) for target in make_golden.GOLDEN_TARGETS}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_matches_golden(target, case, got, want):
    """Compare one observation to its golden record, failing loudly with
    every diverging field spelled out."""
    diffs = [f"  {field}: built {got[field]!r}, golden {want[field]!r}"
             for field in make_golden.GOLDEN_FIELDS
             if got[field] != want[field]]
    if diffs:
        pytest.fail(
            f"{target} image for {case!r} diverged from the golden "
            "fixture:\n" + "\n".join(diffs) +
            "\nIf this change is intentional, regenerate with\n"
            "  PYTHONPATH=src python tests/fixtures/make_golden.py\n"
            "and commit the fixture diff with an explanation.")


# --- 1. both targets stay bit-identical to the golden images -----------------


@pytest.mark.parametrize("case", sorted(GOLDEN_CONFIGS))
def test_arm64_bit_identical_to_golden(case, sources, golden):
    result = build_program(sources, BuildConfig(target="arm64",
                                                **GOLDEN_CONFIGS[case]))
    assert_matches_golden("arm64", case, make_golden.observe(result),
                          golden["arm64"][case])
    # The fixed-width target keeps the uniform layout: no address table,
    # no alignment padding.
    assert result.image.instr_addrs is None
    assert result.image.alignment_padding_bytes == 0


@pytest.mark.parametrize("case", sorted(GOLDEN_CONFIGS))
def test_thumb2c_bit_identical_to_golden(case, sources, golden):
    result = build_program(sources, BuildConfig(target="thumb2c",
                                                **GOLDEN_CONFIGS[case]))
    assert_matches_golden("thumb2c", case, make_golden.observe(result),
                          golden["thumb2c"][case])
    assert result.image.instr_addrs is not None


def test_golden_mismatch_names_every_diverging_field(golden):
    """The loud-diff helper must name the fields that moved, so a golden
    failure is diagnosable from the CI log alone."""
    want = golden["arm64"]["app-wholeprogram-r0"]
    got = dict(want, text_sha256="0" * 64, num_functions=want["num_functions"] + 1)
    with pytest.raises(pytest.fail.Exception) as excinfo:
        assert_matches_golden("arm64", "app-wholeprogram-r0", got, want)
    message = str(excinfo.value)
    assert "text_sha256" in message
    assert "num_functions" in message
    assert "make_golden.py" in message
    assert "data_sha256" not in message, "unchanged fields must not be listed"


# --- 2. thumb2c: variable-width layout, verified, shrinking, same output -----


@pytest.fixture(scope="module")
def thumb_results(sources):
    # merge_mode pinned off: these builds feed exact-size and
    # exact-step-count assertions, which REPRO_MERGE must not perturb.
    return {rounds: build_program(sources, BuildConfig(
                outline_rounds=rounds, target="thumb2c", merge_mode="off"))
            for rounds in (0, 1, 3, 5)}


def test_thumb2c_layout_is_variable_width_and_padded(thumb_results):
    image = thumb_results[5].image
    assert image.target_name == "thumb2c"
    assert image.instr_addrs is not None
    assert len(image.instr_addrs) == len(image.instrs)
    spec = get_target("thumb2c")
    widths = {spec.instr_bytes(i) for i in image.instrs}
    assert widths == {2, 4}, "a compressed build should mix widths"
    # Function starts honour the target alignment; the gaps are padding.
    for ext in image.functions:
        assert ext.start % spec.function_alignment == 0
    assert image.text_bytes < len(image.instrs) * 4, \
        "variable-width text must be denser than fixed-width"


def test_thumb2c_passes_the_structural_verifier(thumb_results):
    for result in thumb_results.values():
        verify_image(result.image)  # target taken from the image
        assert "verify" in result.report.phase_wall


def test_thumb2c_outlining_never_increases_text(thumb_results):
    sizes = {r: res.sizes.text_bytes for r, res in thumb_results.items()}
    assert sizes[1] <= sizes[0]
    assert sizes[3] <= sizes[1]
    assert sizes[5] <= sizes[3]
    assert sizes[5] < sizes[0], "five rounds must actually save bytes"


def test_thumb2c_runs_to_the_same_output_as_arm64(sources, thumb_results):
    # With outlining the two targets legally produce *different* code
    # (their cost models disagree about what is profitable), so only the
    # program's observable output must match at rounds=5 ...
    arm5 = build_program(sources, BuildConfig(outline_rounds=5,
                                              target="arm64",
                                              merge_mode="off"))
    assert run_build(thumb_results[5]).output == run_build(arm5).output
    # ... while at rounds=0 the instruction stream is identical and the
    # retired-instruction count must match exactly.
    arm0 = build_program(sources, BuildConfig(outline_rounds=0,
                                              target="arm64",
                                              merge_mode="off"))
    arm_exec = run_build(arm0)
    thumb_exec = run_build(thumb_results[0])
    assert thumb_exec.output == arm_exec.output
    assert thumb_exec.steps == arm_exec.steps


def test_verifier_rejects_misaligned_thumb2c_layout(thumb_results):
    import pickle

    img = pickle.loads(pickle.dumps(thumb_results[5].image))
    # Shift the second function's extent (and its instructions' recorded
    # addresses) off the target's alignment grid by the narrow width.
    ext = img.functions[1]
    lo = img.index_of_addr(ext.start)
    hi = img.index_of_addr(ext.end)
    ext.start += 2
    ext.end += 2
    img.symbols[ext.name] += 2
    for i in range(lo, hi):
        img.instr_addrs[i] += 2
    with pytest.raises(ImageVerifierError, match="align|contiguous"):
        verify_image(img)


# --- 3. targets never collide in the image cache -----------------------------


def test_image_cache_entries_are_keyed_by_target(sources, tmp_path):
    arm_cfg = BuildConfig(outline_rounds=2, incremental=True,
                          cache_dir=str(tmp_path), target="arm64")
    thumb_cfg = BuildConfig(outline_rounds=2, incremental=True,
                            cache_dir=str(tmp_path), target="thumb2c")
    cold_arm = build_program(sources, arm_cfg)
    assert not cold_arm.report.image_cache_hit
    # Same sources, same cache dir, different target: must be a miss.
    cold_thumb = build_program(sources, thumb_cfg)
    assert not cold_thumb.report.image_cache_hit
    assert cold_thumb.image.target_name == "thumb2c"
    assert cold_thumb.sizes.text_bytes != cold_arm.sizes.text_bytes
    # Each target then hits its own entry and round-trips its own image.
    warm_arm = build_program(sources, arm_cfg)
    warm_thumb = build_program(sources, thumb_cfg)
    assert warm_arm.report.image_cache_hit
    assert warm_thumb.report.image_cache_hit
    assert warm_arm.image.target_name == "arm64"
    assert warm_thumb.image.target_name == "thumb2c"
    assert (_sha(warm_thumb.image.text_section())
            == _sha(cold_thumb.image.text_section()))


def test_backend_fingerprint_differs_per_target():
    a = BuildConfig(target="arm64").backend_fingerprint()
    b = BuildConfig(target="thumb2c").backend_fingerprint()
    assert a != b


# --- cross-target generality experiment --------------------------------------


def test_generality_reports_every_target_per_corpus():
    from repro.experiments import generality

    result = generality.run(rounds=1, targets=("arm64", "thumb2c"))
    assert result.targets == ("arm64", "thumb2c")
    by_target = {}
    for row in result.corpora:
        by_target.setdefault(row.target, set()).add(row.corpus)
        assert row.outlined_text <= row.baseline_text
    assert by_target["arm64"] == by_target["thumb2c"] == {
        "linux-kernel", "clang"}
    report = generality.format_report(result)
    assert "thumb2c" in report and "arm64" in report
