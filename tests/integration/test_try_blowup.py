"""E17 — the Listing 10 / Figure 9 / Listing 11 out-of-SSA blow-up.

A decoder class with N `try`-initialised properties produces a shared error
block with ~N phis and ~N incoming edges; phi elimination then inserts
O(N^2) copies.  We verify (a) the phi structure exists, (b) machine code
for the init grows superlinearly in N, and (c) semantics stay exact on both
success and failure paths.
"""

from repro.frontend.parser import parse_module
from repro.frontend.sema import analyze_program
from repro.lir.passes import constprop, dce, mem2reg, simplifycfg
from repro.lir.irgen import generate_lir
from repro.pipeline import BuildConfig, build_program, run_build
from repro.sil.silgen import generate_sil


def decoder_source(n_fields, with_main=True):
    fields = "\n".join(f"    let f{i}: String" for i in range(n_fields))
    inits = "\n".join(
        f"        self.f{i} = try src.getString(key: {i})"
        for i in range(n_fields))
    main = """
func main() {
    do {
        let ok = try MyClass(src: Source(failKey: -1))
        print(ok.f0.count)
        let bad = try MyClass(src: Source(failKey: %d))
        print(bad.f0.count)
    } catch {
        print(error)
    }
}
""" % (n_fields // 2)
    return f"""
class Source {{
    var failKey: Int
    init(failKey: Int) {{ self.failKey = failKey }}
    func getString(key: Int) throws -> String {{
        if key == self.failKey {{ throw key }}
        return "v"
    }}
}}
class MyClass {{
{fields}
    init(src: Source) throws {{
{inits}
    }}
}}
{main if with_main else ''}
"""


def lowered_init(n_fields):
    info = analyze_program([parse_module(decoder_source(n_fields, False),
                                         "M")])
    modules = generate_lir(generate_sil(info))
    module = modules[0]
    mem2reg.run_on_module(module)
    constprop.run_on_module(module)
    dce.run_on_module(module)
    simplifycfg.run_on_module(module)
    for fn in module.functions:
        if "MyClass.init" in fn.symbol:
            return fn
    raise KeyError("init not found")


def test_shared_cleanup_block_accumulates_phis():
    fn = lowered_init(12)
    phi_counts = []
    for blk in fn.blocks:
        phis = blk.phis()
        if phis:
            phi_counts.append(len(phis))
    # One block must carry phis for (roughly) every init flag.
    assert max(phi_counts) >= 10


def test_out_of_ssa_copies_grow_superlinearly():
    from repro.lir.passes import phielim

    sizes = {}
    for n in (6, 12, 24):
        fn = lowered_init(n)
        copies = phielim.run_on_function(fn)
        sizes[n] = copies
    # Doubling the field count should far more than double the copies
    # (quadratic edge x phi growth).
    assert sizes[12] > 2.5 * sizes[6]
    assert sizes[24] > 2.5 * sizes[12]


def test_machine_code_grows_superlinearly():
    text = {}
    for n in (6, 12, 24):
        build = build_program({"M": decoder_source(n)},
                              BuildConfig(outline_rounds=0))
        mf = [f for m in build.machine_modules for f in m.functions
              if "MyClass.init" in f.name][0]
        text[n] = mf.num_instrs
    growth_1 = text[12] / text[6]
    growth_2 = text[24] / text[12]
    assert growth_1 > 2.2, text
    assert growth_2 > 2.2, text


def test_semantics_on_success_and_failure_paths():
    for rounds in (0, 5):
        build = build_program({"M": decoder_source(10)},
                              BuildConfig(outline_rounds=rounds))
        execution = run_build(build)
        # ok.f0.count == 1; bad throws with code n//2 == 5.
        assert execution.output == ["1", "5"], rounds
        assert execution.leaked == []
