"""Differential harness for function merging (the PR's correctness
backbone): hypothesis-generated programs are built under every
``merge_mode`` and executed in the simulator; every mode must produce
identical output and exit state, and the padded text section must shrink
monotonically off -> exact -> optimistic.

The generator is engineered to contain exactly the redundancy the mergers
chase: clone families differing in zero, one, or several constants,
throwing variants (error-register forwarding through thunks), float
bodies, ARC-heavy class helpers, and near-identical closures
(address-taken function thunks).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pipeline import BuildConfig

TARGETS = ("arm64", "thumb2c")
MERGE_MODES = ("off", "exact", "optimistic")

_SUPPRESS = [HealthCheck.function_scoped_fixture]


class MergeProgramGenerator:
    """Deterministic random Swiftlet programs built around clone families.

    Each family instantiates one body template several times; a clone
    either copies the family's constants exactly (exact-merge fodder) or
    perturbs a subset of them (optimistic-merge fodder).
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- body templates ---------------------------------------------------

    def _arith(self, name, p):
        return (f"func {name}(x: Int) -> Int {{\n"
                f"    var t = x * {p['m']} + {p['c']}\n"
                f"    for i in 0..<{p['n']} {{ t += i * x + {p['k']} }}\n"
                f"    if t > {p['lim']} {{ t -= {p['d']} }}\n"
                f"    return t\n}}")

    def _throwing(self, name, p):
        return (f"func {name}(x: Int) throws -> Int {{\n"
                f"    var t = x * {p['m']} + {p['c']}\n"
                f"    for i in 0..<{p['n']} {{ t += i + {p['k']} }}\n"
                f"    if t % 7 == {p['r']} {{ throw t % 97 + 1 }}\n"
                f"    return t - {p['d']}\n}}")

    def _floaty(self, name, p):
        return (f"func {name}(a: Double) -> Double {{\n"
                f"    var t = a * {p['m']}.5 + {p['c']}.25\n"
                f"    t = t / 2.0 + {p['k']}.125\n"
                f"    return t\n}}")

    def _classy(self, name, p):
        return (f"func {name}(x: Int) -> Int {{\n"
                f"    let b = Box(value: x + {p['c']})\n"
                f"    var t = {p['m']}\n"
                f"    for i in 0..<{p['n']} {{ t += b.value + i * {p['k']} }}\n"
                f"    return t\n}}")

    _TEMPLATES = (
        ("a", _arith, ("m", "c", "k", "d")),
        ("t", _throwing, ("m", "c", "k", "r", "d")),
        ("f", _floaty, ("m", "c", "k")),
        ("b", _classy, ("m", "c", "k")),
    )

    def _params(self):
        rng = self.rng
        return {"m": rng.randint(1, 9), "c": rng.randint(0, 99),
                "n": rng.randint(1, 5), "k": rng.randint(0, 9),
                "lim": rng.randint(20, 200), "d": rng.randint(1, 40),
                "r": rng.randint(0, 6)}

    def generate(self) -> str:
        rng = self.rng
        parts = ["class Box {\n    var value: Int\n"
                 "    init(value: Int) { self.value = value }\n}"]
        int_helpers, throw_helpers, float_helpers = [], [], []
        for fam in range(rng.randint(1, 3)):
            tag, template, variable = rng.choice(self._TEMPLATES)
            base = self._params()
            for clone in range(rng.randint(2, 3)):
                params = dict(base)
                if rng.random() < 0.6:  # perturb: optimistic fodder
                    for key in rng.sample(variable,
                                          rng.randint(1, len(variable))):
                        params[key] = rng.randint(0, 99)
                name = f"{tag}{fam}_{clone}"
                parts.append(template(self, name, params))
                {"a": int_helpers, "b": int_helpers,
                 "t": throw_helpers, "f": float_helpers}[tag].append(name)

        lines = ["func main() {", "    var total = 0"]
        for name in int_helpers:
            for _ in range(rng.randint(1, 2)):
                lines.append(f"    total += {name}(x: {rng.randint(0, 30)})")
        for name in throw_helpers:
            lines.append(f"    for i in 0..<4 {{")
            lines.append(f"        do {{ total += try {name}(x: i * "
                         f"{rng.randint(1, 5)}) }}")
            lines.append(f"        catch {{ total -= error % 19 }}")
            lines.append(f"    }}")
        if float_helpers:
            lines.append("    var facc = 0.0")
            for name in float_helpers:
                lines.append(f"    facc += {name}(a: {rng.randint(0, 9)}.5)")
            lines.append("    print(facc)")
        # Two near-identical closures: their compiler-generated thunks are
        # address-taken, so only thunk-based merging may touch them.
        a, b, c = (rng.randint(1, 9) for _ in range(3))
        lines.append(f"    let c1 = {{ (k: Int) -> Int in "
                     f"return k * {a} + {b} }}")
        lines.append(f"    let c2 = {{ (k: Int) -> Int in "
                     f"return k * {a} + {c} }}")
        lines.append("    total += c1(3) + c2(4)")
        lines.append("    print(total)")
        lines.append("}")
        parts.append("\n".join(lines))
        return "\n\n".join(parts)


def _run_modes(build_and_run, source, target, configs):
    """Build+run one program under several configs; return results."""
    out = {}
    for label, kwargs in configs.items():
        result, execution = build_and_run(
            source, BuildConfig(target=target, **kwargs))
        assert execution.leaked == [], f"{label} leaked on {target}"
        out[label] = (result, execution)
    return out


# -- the tentpole property: all modes agree, text shrinks monotonically -------


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=200, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_merge_modes_agree_and_text_is_monotone(build_and_run, target, seed):
    source = MergeProgramGenerator(seed).generate()
    results = _run_modes(
        build_and_run, source, target,
        {mode: dict(outline_rounds=0, merge_mode=mode)
         for mode in MERGE_MODES})
    outputs = {mode: execution.output
               for mode, (_, execution) in results.items()}
    assert outputs["off"] == outputs["exact"] == outputs["optimistic"], \
        f"seed={seed} target={target}: {outputs}"
    text = {mode: result.sizes.text_bytes
            for mode, (result, _) in results.items()}
    assert text["optimistic"] <= text["exact"] <= text["off"], \
        f"seed={seed} target={target}: padded text grew: {text}"


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=15, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_merge_stacked_with_outliner_preserves_output(build_and_run,
                                                      target, seed):
    """Merging composed with repeated outlining (and the per-module
    pipeline) must still agree with the unmerged program."""
    source = MergeProgramGenerator(seed).generate()
    reference = None
    for pipeline, rounds in (("wholeprogram", 5), ("default", 1)):
        results = _run_modes(
            build_and_run, source, target,
            {mode: dict(pipeline=pipeline, outline_rounds=rounds,
                        merge_mode=mode)
             for mode in MERGE_MODES})
        for mode, (_, execution) in results.items():
            if reference is None:
                reference = execution.output
            assert execution.output == reference, \
                f"seed={seed} target={target} {pipeline}/{mode}"


def test_harness_is_not_vacuous(build_and_run):
    """A known-merge-friendly program must actually exercise both merge
    phases — otherwise every property above passes trivially."""
    source = """
func f1(x: Int) -> Int {
    var t = x * 3 + 10
    for i in 0..<4 { t += i * x + 7 }
    if t > 100 { t -= 55 }
    return t
}
func f2(x: Int) -> Int {
    var t = x * 3 + 99
    for i in 0..<4 { t += i * x + 7 }
    if t > 100 { t -= 55 }
    return t
}
func f3(x: Int) -> Int {
    var t = x * 3 + 42
    for i in 0..<4 { t += i * x + 7 }
    if t > 100 { t -= 55 }
    return t
}
func dup1(x: Int) -> Int { return x * x + 1 }
func dup2(x: Int) -> Int { return x * x + 1 }
func main() {
    print(f1(x: 5) + f2(x: 5) + f3(x: 5))
    print(dup1(x: 3) + dup2(x: 4))
}
"""
    result, execution = build_and_run(
        source, BuildConfig(outline_rounds=0, merge_mode="optimistic"))
    stats = result.report.merge_stats
    assert stats["exact_merged"] >= 1, stats
    assert stats["parameterized_merged"] >= 3, stats
    assert stats["thunks_created"] >= 3, stats
    assert stats["bytes_saved"] > 0, stats
    plain, plain_exec = build_and_run(
        source, BuildConfig(outline_rounds=0, merge_mode="off"))
    assert execution.output == plain_exec.output
    assert result.sizes.text_bytes < plain.sizes.text_bytes


# -- satellite: the legacy Table I passes under the same sim oracle -----------


@settings(max_examples=40, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_legacy_exact_passes_preserve_output(build_and_run, seed):
    """The Table I baselines (`merge_mode="exact"` plus `enable_fmsa`)
    get the same differential treatment as the other merge stages, not
    just structural unit checks."""
    source = MergeProgramGenerator(seed).generate()
    _, base = build_and_run(
        source, BuildConfig(outline_rounds=0, merge_mode="off"))
    _, merged = build_and_run(
        source, BuildConfig(outline_rounds=0, merge_mode="exact",
                            enable_fmsa=True))
    assert merged.output == base.output
    assert merged.leaked == []
