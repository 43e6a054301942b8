"""Machine-level identical-code folding (:mod:`repro.outliner.machinemerge`).

The fold runs on real llc output: programs are built end-to-end, the
machine modules folded, relinked, re-verified, and re-executed — the same
route the mergeorder experiment's "merge after outline" arm takes.
"""

import copy

import pytest

from repro.link.linker import link_binary
from repro.link.verify import verify_image
from repro.outliner import machinemerge
from repro.pipeline import BuildConfig, build_program
from repro.sim.cpu import run_binary

#: Two clone families: s* are self-recursive twins (exact-foldable once
#: self-calls are normalised), p*/q* are mutually-recursive pairs that
#: only fold under the optimistic class-equivalence refinement.
SOURCE = """
func sa(n: Int) -> Int {
    if n < 1 { return 3 }
    return sa(n: n - 2) + n
}
func sb(n: Int) -> Int {
    if n < 1 { return 3 }
    return sb(n: n - 2) + n
}
func pa(n: Int) -> Int {
    if n < 1 { return 7 }
    return pb(n: n - 1) + 1
}
func pb(n: Int) -> Int {
    if n < 1 { return 7 }
    return pa(n: n - 1) + 1
}
func qa(n: Int) -> Int {
    if n < 1 { return 7 }
    return qb(n: n - 1) + 1
}
func qb(n: Int) -> Int {
    if n < 1 { return 7 }
    return qa(n: n - 1) + 1
}
func main() {
    print(sa(n: 9) + sb(n: 12) + pa(n: 6) + qa(n: 9))
}
"""


@pytest.fixture(scope="module")
def base():
    return build_program({"Main": SOURCE},
                         BuildConfig(outline_rounds=0, merge_mode="off"))


def _fold_and_run(base, mode):
    modules = copy.deepcopy(base.machine_modules)
    stats = {"functions_folded": 0, "instrs_removed": 0}
    for module in modules:
        s = machinemerge.fold_module(module, mode=mode,
                                     entry_symbol=base.image.entry_symbol)
        for key in stats:
            stats[key] += s[key]
    image = link_binary(modules, entry_symbol=base.image.entry_symbol,
                        layout=base.config.layout,
                        target=base.config.target)
    verify_image(image)
    return stats, image


def test_exact_folds_self_recursive_twins(base):
    reference = run_binary(base.image, registry=base.registry)
    stats, image = _fold_and_run(base, "exact")
    # sa/sb fold (self-calls normalised); the mutual pairs cannot — their
    # bodies name different callee symbols.
    assert stats["functions_folded"] == 1
    assert stats["instrs_removed"] > 0
    assert image.text_bytes < base.image.text_bytes
    assert run_binary(image, registry=base.registry).output \
        == reference.output


def test_optimistic_folds_mutually_recursive_clones(base):
    reference = run_binary(base.image, registry=base.registry)
    stats, image = _fold_and_run(base, "optimistic")
    # The p/q family is one equivalence class of four (plus the s twins):
    # optimistic folding strictly dominates exact.
    assert stats["functions_folded"] >= 4
    assert image.text_bytes < base.image.text_bytes
    assert run_binary(image, registry=base.registry).output \
        == reference.output


def test_entry_symbol_is_never_dropped(base):
    for mode in ("exact", "optimistic"):
        _, image = _fold_and_run(base, mode)
        assert base.image.entry_symbol in image.symbols


def test_unknown_mode_rejected(base):
    with pytest.raises(ValueError, match="machine-merge mode"):
        machinemerge.fold_module(copy.deepcopy(base.machine_modules[0]),
                                 mode="bogus")


def test_address_taken_functions_survive_folding():
    # Closures materialise function addresses: their thunks are
    # address-taken and must never be deleted, even when bit-identical.
    source = """
func main() {
    let c1 = { (k: Int) -> Int in return k * 4 + 9 }
    let c2 = { (k: Int) -> Int in return k * 4 + 9 }
    print(c1(3) + c2(4))
}
"""
    base = build_program({"Main": source},
                         BuildConfig(outline_rounds=0, merge_mode="off"))
    reference = run_binary(base.image, registry=base.registry)
    modules = copy.deepcopy(base.machine_modules)
    before = {fn.name for m in modules for fn in m.functions}
    for module in modules:
        machinemerge.fold_module(module, mode="optimistic",
                                 entry_symbol=base.image.entry_symbol)
    taken = set()
    for module in copy.deepcopy(base.machine_modules):
        taken |= machinemerge._address_taken(module)
    after = {fn.name for m in modules for fn in m.functions}
    assert taken <= after, "address-taken functions must survive"
    assert before >= after
    image = link_binary(modules, entry_symbol=base.image.entry_symbol,
                        layout=base.config.layout,
                        target=base.config.target)
    verify_image(image)
    assert run_binary(image, registry=base.registry).output \
        == reference.output
