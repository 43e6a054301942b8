"""Property tests over compiler semantics: generated arithmetic matches
Python's reference evaluation, constants materialize exactly, and the
whole pipeline agrees with a Python oracle on integer expression programs.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.isa.instructions import Opcode, materialize_constant
from repro.pipeline import BuildConfig, build_program, run_build

_INT_MASK = (1 << 64) - 1


def _wrap(value):
    value &= _INT_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


def _emulate_materialize(instrs):
    """Reference semantics of the MOVZ/MOVK/MOVN chunks."""
    reg = 0
    for mi in instrs:
        dst, imm, shift = mi.operands
        if mi.opcode is Opcode.MOVZXi:
            reg = _wrap(imm << shift)
        elif mi.opcode is Opcode.MOVNXi:
            reg = _wrap(~(imm << shift))
        elif mi.opcode is Opcode.MOVKXi:
            u = reg & _INT_MASK
            u = (u & ~(0xFFFF << shift)) | (imm << shift)
            reg = _wrap(u)
        else:
            raise AssertionError(mi.opcode)
    return reg


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_materialize_constant_exact(value):
    instrs = materialize_constant("x0", value)
    assert 1 <= len(instrs) <= 4
    assert _emulate_materialize(instrs) == value


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=0xFFFF))
def test_small_constants_one_instruction(value):
    assert len(materialize_constant("x0", value)) == 1


@st.composite
def int_expr(draw, depth=0):
    """A Swiftlet Int expression paired with its Python value oracle."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=-100, max_value=100))
        return (f"({value})", value)
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    left_src, left_val = draw(int_expr(depth=depth + 1))
    right_src, right_val = draw(int_expr(depth=depth + 1))
    value = {
        "+": left_val + right_val,
        "-": left_val - right_val,
        "*": left_val * right_val,
        "&": left_val & right_val,
        "|": left_val | right_val,
        "^": left_val ^ right_val,
    }[op]
    return (f"({left_src} {op} {right_src})", value)


@settings(max_examples=40, deadline=None)
@given(int_expr())
def test_expression_pipeline_matches_python(pair):
    source_expr, expected = pair
    assume(abs(expected) < 2 ** 62)  # stay clear of wrap (Python oracle)
    program = f"func main() {{ print({source_expr}) }}"
    execution = run_build(build_program({"E": program},
                                        BuildConfig(outline_rounds=0)))
    assert execution.output == [str(expected)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=12))
def test_array_sum_matches_python(values):
    items = ", ".join(str(v) for v in values)
    program = f"""
func main() {{
    let a = [{items}]
    var total = 0
    for v in a {{ total += v }}
    print(total)
    print(a.count)
}}
"""
    execution = run_build(build_program({"E": program}))
    assert execution.output == [str(sum(values)), str(len(values))]
    assert execution.leaked == []


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=1, max_value=50))
def test_division_semantics_match_aarch64(a, b):
    """Swiftlet / and % follow AArch64 (truncating) semantics."""
    program = f"""
func main() {{
    var x = {a}
    var y = {b}
    print(x / y)
    print(x % y)
}}
"""
    execution = run_build(build_program({"E": program}))
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    r = a - q * b
    assert execution.output == [str(q), str(r)]
