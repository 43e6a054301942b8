"""The function-ordering stage: C3 clustering, validation, and the
typed-rejection contract (a bad layout request raises LinkError; it never
links an image that only the post-link verifier could reject)."""

import pytest

from repro.errors import LinkError, ProfileError
from repro.link import funclayout
from repro.link.funclayout import LAYOUT_MODES, LayoutDecision, order_functions
from repro.link.linker import link_binary
from repro.pipeline import BuildConfig, build_program
from repro.sim.profile import LayoutProfile
from repro.target import get_target

CALLGRAPH_PROGRAM = """
func hot(x: Int) -> Int {
    return x * 2 + 1
}
func warm(x: Int) -> Int {
    var t = 0
    for i in 0..<3 { t += hot(x: x + i) }
    return t
}
func cold(x: Int) -> Int {
    return x - 9
}
func main() {
    print(warm(x: 4) + cold(x: 1))
}
"""


def _modules(source=CALLGRAPH_PROGRAM, **config_kwargs):
    result = build_program({"Main": source},
                           BuildConfig(outline_rounds=0, **config_kwargs))
    return result.machine_modules, result.image.entry_symbol


class TestValidation:
    def test_unknown_layout_rejected(self):
        with pytest.raises(LinkError, match="unknown layout"):
            order_functions([], layout="hot-cold-split",
                            spec=get_target("arm64"))


class TestPermutationGuard:
    def test_dropped_function_raises_typed_error(self, monkeypatch):
        """An ordering bug that loses a function must surface as LinkError
        at link time, not as a verifier failure (or a sim crash) later."""
        modules, entry = _modules()

        real = funclayout.order_functions

        def lossy(functions, **kwargs):
            decision = real(functions, **kwargs)
            return LayoutDecision(order=decision.order[:-1],
                                  mode=decision.mode)

        monkeypatch.setattr("repro.link.linker.order_functions", lossy)
        with pytest.raises(LinkError, match="not a permutation"):
            link_binary(modules, entry_symbol=entry, layout="random")

    def test_duplicated_function_raises_typed_error(self, monkeypatch):
        modules, entry = _modules()

        real = funclayout.order_functions

        def doubling(functions, **kwargs):
            decision = real(functions, **kwargs)
            return LayoutDecision(order=decision.order + decision.order[:1],
                                  mode=decision.mode)

        monkeypatch.setattr("repro.link.linker.order_functions", doubling)
        with pytest.raises(LinkError, match="not a permutation"):
            link_binary(modules, entry_symbol=entry)


class TestC3Ordering:
    def _functions(self):
        modules, _ = _modules()
        return [fn for m in modules for fn in m.functions]

    def test_profiled_hot_edge_becomes_adjacent(self):
        """With a profile saying warm->hot dominates, C3 must place hot
        directly in warm's cluster (adjacent in the final order)."""
        functions = self._functions()
        profile = LayoutProfile(calls={"Main::warm": {"Main::hot": 500},
                                       "Main::main": {"Main::warm": 1}})
        decision = order_functions(functions, layout="callgraph-c3",
                                   profile=profile, spec=get_target("arm64"))
        names = [fn.name for fn in decision.order]
        assert decision.used_profile
        assert decision.profile_edges == 2
        assert names.index("Main::hot") == names.index("Main::warm") + 1
        # Cold, never-called code sinks behind the profiled cluster.
        assert names.index("Main::cold") > names.index("Main::hot")

    def test_static_census_fallback_is_deterministic(self):
        functions = self._functions()
        spec = get_target("arm64")
        a = order_functions(functions, layout="callgraph-c3", spec=spec)
        b = order_functions(functions, layout="callgraph-c3", spec=spec)
        assert [f.name for f in a.order] == [f.name for f in b.order]
        assert not a.used_profile and a.profile_edges > 0

    def test_cluster_budget_limits_merging(self):
        """With a budget smaller than two functions, every function stays
        its own cluster and the order degenerates to density-sorted."""
        functions = self._functions()
        profile = LayoutProfile(calls={"Main::warm": {"Main::hot": 500}})
        spec = get_target("arm64")
        old = funclayout.C3_CLUSTER_BUDGET_BYTES
        funclayout.C3_CLUSTER_BUDGET_BYTES = 1
        try:
            decision = order_functions(functions, layout="callgraph-c3",
                                       profile=profile, spec=spec)
        finally:
            funclayout.C3_CLUSTER_BUDGET_BYTES = old
        assert decision.clusters == len(functions)

    def test_random_layout_is_seed_deterministic(self):
        functions = self._functions()
        spec = get_target("arm64")
        a = order_functions(functions, layout="random", seed=42, spec=spec)
        b = order_functions(functions, layout="random", seed=42, spec=spec)
        c = order_functions(functions, layout="random", seed=43, spec=spec)
        assert [f.name for f in a.order] == [f.name for f in b.order]
        assert sorted(f.name for f in c.order) == \
            sorted(f.name for f in a.order)

    def test_all_modes_are_permutations(self):
        functions = self._functions()
        expected = sorted(fn.name for fn in functions)
        for target in ("arm64", "thumb2c"):
            spec = get_target(target)
            for layout in LAYOUT_MODES:
                decision = order_functions(functions, layout=layout,
                                           spec=spec)
                assert sorted(f.name for f in decision.order) == expected, \
                    (target, layout)


class TestPipelineIntegration:
    def test_missing_profile_fails_typed_before_linking(self, tmp_path):
        with pytest.raises(ProfileError):
            build_program({"Main": CALLGRAPH_PROGRAM},
                          BuildConfig(layout="callgraph-c3",
                                      profile_path=str(tmp_path / "no.json")))

    def test_layout_changes_addresses_not_symbols(self):
        base = build_program({"Main": CALLGRAPH_PROGRAM},
                             BuildConfig(outline_rounds=0))
        shuffled = build_program({"Main": CALLGRAPH_PROGRAM},
                                 BuildConfig(outline_rounds=0,
                                             layout="random", layout_seed=0))
        assert {f.name for f in base.image.functions} == \
            {f.name for f in shuffled.image.functions}
        assert [f.name for f in base.image.functions] != \
            [f.name for f in shuffled.image.functions]
