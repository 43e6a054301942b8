"""Differential tests closing the DESIGN.md §5 suffix-tree invariant on the
alphabet the outliner actually uses: mapped *machine instruction* sequences.

The existing property tests compare the suffix tree against the naive
O(n²) scanner on small plain-integer alphabets.  Here the sequences come
from :class:`~repro.outliner.candidates.InstructionMapper` over randomized
instruction streams and over a real build, so the comparison covers the
mapper's interned ids, the negative unique sentinels for illegal
instructions, and the block-boundary separators.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import MachineFunction, MachineInstr, Opcode
from repro.outliner.candidates import InstructionMapper
from repro.outliner.suffix_tree import SuffixTree, naive_repeated_substrings

_REGS = ("x0", "x1", "x8", "x9")


@st.composite
def _random_instr(draw):
    """One machine instruction from a small, collision-rich pool."""
    kind = draw(st.integers(min_value=0, max_value=4))
    reg = st.sampled_from(_REGS)
    if kind == 0:
        return MachineInstr(Opcode.ADDXri,
                            (draw(reg), draw(reg),
                             draw(st.integers(min_value=0, max_value=2))))
    if kind == 1:
        return MachineInstr(Opcode.ORRXrs, (draw(reg), draw(reg), draw(reg)))
    if kind == 2:
        return MachineInstr(Opcode.MOVZXi,
                            (draw(reg),
                             draw(st.integers(min_value=0, max_value=3)), 0))
    if kind == 3:
        return MachineInstr(Opcode.EORXrr, (draw(reg), draw(reg), draw(reg)))
    # Returns are illegal to outline: the mapper gives each one a fresh
    # negative sentinel, which must never take part in a repeat.
    return MachineInstr(Opcode.RET, ())


@st.composite
def _random_functions(draw):
    functions = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        fn = MachineFunction(name=f"f{i}")
        for b in range(draw(st.integers(min_value=1, max_value=2))):
            block = fn.new_block(f"b{b}")
            for instr in draw(st.lists(_random_instr(), min_size=1,
                                       max_size=20)):
                block.append(instr)
        functions.append(fn)
    return functions


def _assert_tree_matches_naive(ids):
    tree = SuffixTree(list(ids))
    got = {
        rs.substring(tree.seq): sorted(rs.starts)
        for rs in tree.repeated_substrings(min_len=2, max_len=64)
    }
    want = {
        key: sorted(starts)
        for key, starts in naive_repeated_substrings(
            list(ids), min_len=2, max_len=64).items()
    }
    assert got == want
    return got


@settings(max_examples=150, deadline=None)
@given(_random_functions())
def test_mapped_instruction_sequences_match_naive(functions):
    program = InstructionMapper().map_functions(functions)
    repeats = _assert_tree_matches_naive(program.ids)
    # Unique sentinels (< 0) mark unoutlinable points and block boundaries;
    # by construction they can never appear inside a repeated substring.
    for substring in repeats:
        assert all(token > 0 for token in substring)


def test_real_build_sequence_matches_naive():
    from repro.pipeline import BuildConfig, build_program

    source = """
func mixOne(a: Int, b: Int) -> Int { return a * 31 + b }
func mixTwo(a: Int, b: Int) -> Int { return a * 31 + b }
func main() {
    print(mixOne(a: 3, b: 4) + mixTwo(a: 5, b: 6))
}
"""
    # merge_mode pinned off: the duplicate pair must survive to machine
    # code, or the mapped sequence collapses below the size this asserts.
    result = build_program({"M": source}, BuildConfig(outline_rounds=0,
                                                      merge_mode="off"))
    functions = [fn for module in result.machine_modules
                 for fn in module.functions]
    program = InstructionMapper().map_functions(functions)
    assert len(program.ids) > 20
    _assert_tree_matches_naive(program.ids)
