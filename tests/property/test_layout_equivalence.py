"""Differential harness for profile-guided function layout (this PR's
correctness backbone): hypothesis-generated call-graph-rich programs are
built under every ``layout`` mode on both targets and executed in the
simulator.  Function layout is pure physics — it may move code, never
change it — so every mode must produce:

* identical program output and no leaks;
* an identical *set* of text symbols (addresses are allowed — expected —
  to differ);
* an image that passes the post-link structural verifier.

A second property closes the loop the subsystem ships for: a profile
collected from the ``source``-layout run feeds ``callgraph-c3`` and the
relinked program must still agree — the profile round-trips through its
serialized form on the way, so the file format is under test too.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.link.verify import verify_image
from repro.pipeline import BuildConfig
from repro.sim.profile import LayoutProfile, ProfileCollector
from repro.sim.cpu import run_binary

import random

TARGETS = ("arm64", "thumb2c")
LAYOUTS = ("source", "callgraph-c3", "random")

_SUPPRESS = [HealthCheck.function_scoped_fixture]


class LayoutProgramGenerator:
    """Deterministic random Swiftlet programs with deep, skewed call graphs.

    Layout only matters when control transfers cross function boundaries,
    so the generator builds layered helper chains (layer N calls layer
    N+1), gives each function loops and conditionals (taken-branch
    profile fodder), and skews call counts so C3 has hot edges to chase.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def generate(self) -> str:
        rng = self.rng
        layers = rng.randint(2, 4)
        width = rng.randint(2, 3)
        names = [[f"fn_{layer}_{i}" for i in range(width)]
                 for layer in range(layers)]
        parts = []
        # Leaf layer: pure arithmetic.
        for name in names[-1]:
            m, c = rng.randint(1, 9), rng.randint(0, 99)
            parts.append(
                f"func {name}(x: Int) -> Int {{\n"
                f"    var t = x * {m} + {c}\n"
                f"    if t % 2 == 0 {{ t += {rng.randint(1, 9)} }}\n"
                f"    return t\n}}")
        # Inner layers: call 1..width functions of the next layer, with
        # skewed (loop-carried) call counts.
        for layer in range(layers - 2, -1, -1):
            for name in names[layer]:
                callees = rng.sample(names[layer + 1],
                                     rng.randint(1, width))
                body = [f"func {name}(x: Int) -> Int {{",
                        "    var t = x"]
                for callee in callees:
                    reps = rng.choice((1, 1, 2, rng.randint(3, 8)))
                    body.append(f"    for i in 0..<{reps} "
                                f"{{ t += {callee}(x: t % 50 + i) }}")
                if rng.random() < 0.5:
                    body.append(f"    if t > {rng.randint(50, 500)} "
                                f"{{ t = t % 1000 }}")
                body.append("    return t")
                body.append("}")
                parts.append("\n".join(body))
        entries = rng.sample(names[0], rng.randint(1, len(names[0])))
        main = ["func main() {", "    var total = 0"]
        for name in entries:
            main.append(f"    total += {name}(x: {rng.randint(0, 20)})")
        main.append("    print(total)")
        main.append("}")
        parts.append("\n".join(main))
        return "\n\n".join(parts)


def _text_symbols(result):
    return {fx.name for fx in result.image.functions}


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=30, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_all_layout_modes_preserve_semantics(build_and_run, target, seed):
    """source / callgraph-c3 (static census) / random: same output, same
    symbol set, verifier-clean image — on both targets, with the outliner
    on so outlined functions get shuffled too."""
    source = LayoutProgramGenerator(seed).generate()
    reference_output = None
    reference_symbols = None
    for layout in LAYOUTS:
        result, execution = build_and_run(
            source, BuildConfig(target=target, outline_rounds=3,
                                layout=layout, layout_seed=seed % 1000))
        assert execution.leaked == [], f"{layout} leaked on {target}"
        verify_image(result.image, target)
        if reference_output is None:
            reference_output = execution.output
            reference_symbols = _text_symbols(result)
            continue
        assert execution.output == reference_output, \
            f"seed={seed} target={target} layout={layout}"
        assert _text_symbols(result) == reference_symbols, \
            f"seed={seed} target={target} layout={layout}: symbol set changed"


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=10, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_profile_driven_c3_preserves_semantics(build_and_run, tmp_path,
                                               target, seed):
    """The shipping loop: profile the source-layout run, round-trip the
    profile through its serialized form, relink under callgraph-c3 with
    it, and the program must not notice."""
    source = LayoutProgramGenerator(seed).generate()
    base_result, base_exec = build_and_run(
        source, BuildConfig(target=target, outline_rounds=3))
    collector = ProfileCollector()
    run_binary(base_result.image, registry=base_result.registry,
               profile=collector)
    profile = collector.finalize(base_result.image)
    path = os.path.join(str(tmp_path), f"p{seed}.json")
    digest = profile.save(path)
    assert LayoutProfile.load(path).digest() == digest

    c3_result, c3_exec = build_and_run(
        source, BuildConfig(target=target, outline_rounds=3,
                            layout="callgraph-c3", profile_path=path))
    verify_image(c3_result.image, target)
    assert c3_exec.output == base_exec.output, f"seed={seed} target={target}"
    assert c3_exec.leaked == []
    assert _text_symbols(c3_result) == _text_symbols(base_result)


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=10, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9),
       seed_a=st.integers(min_value=0, max_value=10 ** 6),
       seed_b=st.integers(min_value=0, max_value=10 ** 6))
def test_random_layout_seeds_agree(build_and_run, target, seed,
                                   seed_a, seed_b):
    """Any two random-layout seeds are semantically interchangeable (and
    distinct seeds genuinely shuffle — checked when orders differ)."""
    source = LayoutProgramGenerator(seed).generate()
    out = {}
    for s in {seed_a, seed_b}:
        result, execution = build_and_run(
            source, BuildConfig(target=target, layout="random",
                                layout_seed=s))
        verify_image(result.image, target)
        out[s] = execution.output
    assert len(set(map(tuple, out.values()))) == 1, \
        f"seed={seed} target={target}: random seeds disagree"


def test_harness_is_not_vacuous(build_and_run):
    """C3 with a skewed static call graph must actually move functions —
    otherwise every equivalence above is trivially true."""
    source = LayoutProgramGenerator(7).generate()
    base, _ = build_and_run(source, BuildConfig(outline_rounds=0))
    moved, _ = build_and_run(
        source, BuildConfig(outline_rounds=0, layout="random",
                            layout_seed=3))
    base_order = [fx.name for fx in base.image.functions]
    moved_order = [fx.name for fx in moved.image.functions]
    assert sorted(base_order) == sorted(moved_order)
    assert base_order != moved_order, "random layout did not move anything"
