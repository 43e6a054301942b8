"""Differential harness for link-time whole-program stripping.

Hypothesis-generated programs are built with ``strip="off"`` and
``strip="program"`` on both targets and executed in the simulator:

* the two builds must produce identical output and leak nothing;
* padded __text must be monotone non-increasing under stripping;
* functions the program can actually reach — address-taken closures
  (``FuncAddr``-only references, no direct call anywhere) and throwing
  functions called through ``try`` — must never be stripped;
* a crafted program pins the FuncAddr edge explicitly: a function whose
  only reference is a taken address survives and still runs.

The generators deliberately emit *dead* functions (never referenced at
all) so stripping has real work to do, plus call-graph chains so
transitive reachability is exercised, on top of the reachable shapes the
safety rules protect.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pipeline import BuildConfig

TARGETS = ("arm64", "thumb2c")

_SUPPRESS = [HealthCheck.function_scoped_fixture]


class StripProgramGenerator:
    """Random Swiftlet programs with a known live/dead partition.

    ``generate()`` returns ``(source, live, dead)`` where *live* is the
    set of helper names main reaches (directly, transitively, via
    ``try``, or only through a taken closure address) and *dead* the set
    nothing references.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _leaf(self, name, p):
        return (f"func {name}(x: Int) -> Int {{\n"
                f"    var t = x * {p['m']} + {p['c']}\n"
                f"    for i in 0..<{p['n']} {{ t += i * {p['k']} }}\n"
                f"    return t\n}}")

    def _chain(self, name, callee, p):
        return (f"func {name}(x: Int) -> Int {{\n"
                f"    return {callee}(x: x + {p['c']}) * {p['m']}\n}}")

    def _throwing(self, name, p):
        return (f"func {name}(x: Int) throws -> Int {{\n"
                f"    if x % 5 == {p['r']} {{ throw x + 3 }}\n"
                f"    return x * {p['m']} + {p['c']}\n}}")

    def _params(self):
        rng = self.rng
        return {"m": rng.randint(1, 9), "c": rng.randint(0, 99),
                "n": rng.randint(1, 4), "k": rng.randint(1, 9),
                "r": rng.randint(0, 4)}

    def generate(self):
        rng = self.rng
        parts, live, dead = [], set(), set()

        # Live chains: main -> chainN -> leafN (transitive reachability).
        chain_roots = []
        for i in range(rng.randint(1, 3)):
            leaf, root = f"leaf{i}", f"chain{i}"
            parts.append(self._leaf(leaf, self._params()))
            parts.append(self._chain(root, leaf, self._params()))
            live.update({leaf, root})
            chain_roots.append(root)

        # Throwing helpers, reached only through try/catch.
        throwers = []
        for i in range(rng.randint(1, 2)):
            name = f"thrower{i}"
            parts.append(self._throwing(name, self._params()))
            live.add(name)
            throwers.append(name)

        # Dead helpers: defined, never referenced anywhere.  Some call
        # each other so whole dead *subgraphs* must go.
        n_dead = rng.randint(1, 4)
        for i in range(n_dead):
            name = f"deadfn{i}"
            parts.append(self._leaf(name, self._params()))
            dead.add(name)
        if n_dead > 1:
            parts.append(self._chain("deadroot", "deadfn0", self._params()))
            dead.add("deadroot")

        lines = ["func main() {", "    var total = 0"]
        for root in chain_roots:
            lines.append(f"    total += {root}(x: {rng.randint(0, 20)})")
        for name in throwers:
            lines.append("    for i in 0..<6 {")
            lines.append(f"        do {{ total += try {name}(x: i) }}")
            lines.append("        catch { total -= error % 13 }")
            lines.append("    }")
        # An address-taken closure: its body is referenced only via a
        # materialized function address (ADRP/ADDlo), never a direct BL.
        a, b = rng.randint(1, 9), rng.randint(0, 9)
        lines.append(f"    let cl = {{ (k: Int) -> Int in "
                     f"return k * {a} + {b} }}")
        lines.append(f"    total += cl({rng.randint(1, 6)})")
        lines.append("    print(total)")
        lines.append("}")
        parts.append("\n".join(lines))
        return "\n\n".join(parts), live, dead


def _names(result):
    return {ext.name for ext in result.image.functions}


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=120, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_strip_preserves_output_and_never_grows_text(build_and_run,
                                                     target, seed):
    source, live, dead = StripProgramGenerator(seed).generate()
    builds = {}
    for mode in ("off", "program"):
        # merge_mode pinned off: the checks below go by function name, and
        # merging folds identical helpers away under another name (a
        # leaking REPRO_MERGE would fail them for no strip fault).
        result, execution = build_and_run(
            source, BuildConfig(target=target, global_dce=False,
                                strip=mode, merge_mode="off"))
        assert execution.leaked == [], f"seed={seed} {mode} leaked"
        builds[mode] = (result, execution)

    out_off = builds["off"][1].output
    out_on = builds["program"][1].output
    assert out_off == out_on, f"seed={seed} target={target}"

    text_off = builds["off"][0].image.text_bytes
    text_on = builds["program"][0].image.text_bytes
    assert text_on <= text_off, f"seed={seed}: stripping grew __text"

    names_off, names_on = _names(builds["off"][0]), _names(builds["program"][0])
    assert names_on <= names_off
    qualified_live = {f"Main::{n}" for n in live}
    qualified_dead = {f"Main::{n}" for n in dead}
    # Safety: everything main reaches — including the address-taken
    # closure body and the throwing helpers — survives the strip.
    assert qualified_live <= names_on, \
        f"seed={seed}: live function stripped: {qualified_live - names_on}"
    assert any("closure" in n for n in names_on), \
        f"seed={seed}: address-taken closure body stripped"
    # Effectiveness: nothing unreferenced survives.
    assert not (qualified_dead & names_on), \
        f"seed={seed}: dead function survived: {qualified_dead & names_on}"
    # Report bookkeeping agrees with the image delta.
    report = builds["program"][0].report
    assert report.strip_mode == "program"
    assert report.stripped_functions == len(names_off - names_on)


@pytest.mark.parametrize("target", TARGETS)
def test_funcaddr_only_function_survives(build_and_run, target):
    """The crafted FuncAddr edge: ``pick`` is never called directly —
    its address escapes through a variable — yet it must survive
    stripping and execute."""
    source = """
func pick(x: Int) -> Int { return x * 11 + 5 }
func orphan(x: Int) -> Int { return x - 1 }
func main() {
    let f = { (k: Int) -> Int in return pick(x: k) }
    var total = 0
    for i in 0..<3 { total += f(i) }
    print(total)
}
"""
    result, execution = build_and_run(
        source, BuildConfig(target=target, global_dce=False,
                            strip="program"))
    assert execution.output == ["48"]
    names = _names(result)
    assert "Main::pick" in names
    assert "Main::orphan" not in names
    assert result.report.stripped_functions >= 1


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=20, deadline=None, suppress_health_check=_SUPPRESS)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_strip_composes_with_outlining_and_merging(build_and_run,
                                                   target, seed):
    """The min-size stack (wholeprogram + outlining + optimistic merge +
    link-time strip) must agree with the plain unstripped build, and
    strip must stay monotone with the rest of the stack active."""
    source, _live, _dead = StripProgramGenerator(seed).generate()
    plain, plain_exec = build_and_run(
        source, BuildConfig(target=target))
    unstripped, unstripped_exec = build_and_run(
        source, BuildConfig.preset("min-size", target=target, strip="off"))
    stripped, stripped_exec = build_and_run(
        source, BuildConfig.preset("min-size", target=target))
    assert (plain_exec.output == unstripped_exec.output
            == stripped_exec.output), f"seed={seed}"
    assert stripped.image.text_bytes <= unstripped.image.text_bytes
