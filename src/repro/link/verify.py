"""Post-link binary verifier: prove an image is structurally sound.

Runs after every build and on every image-cache hit (the cache restores
pickles from disk — exactly the artifact a torn write, a bit flip, or a
bad pickler could have damaged).  The checks mirror what the paper's
pipeline learned the hard way (§VI): a size-reducing transform or a
pipeline change that *links* is not necessarily *correct*, so the final
image is validated once more before anyone executes or ships it.

Checks, in order:

1. **Text layout** — function extents start at ``text_base``, are sorted,
   non-overlapping, instruction-aligned, and cover the instruction stream
   exactly (a truncated ``instrs`` list or a phantom extent both fail).
2. **Symbol table consistency** — every function extent has a symbol at
   its start address; every symbol resolves into text, a runtime stub, or
   the data segment; the entry symbol (when set) is a real function.
3. **Branch/call targets in range** — every local branch lands inside its
   own function; every resolved call lands on a function start or a
   runtime stub; every direct call/tail call has a resolved target.
4. **Outlined call/return pairing** — outlined functions end in ``RET``
   or a tail call (control always returns to the caller), and nothing
   branches into the middle of an outlined body.
5. **Data layout monotonic** — the data segment sits above text, module
   extents are well-formed and inside the segment, and every initialised
   word lies inside the segment.

All violations raise :class:`~repro.errors.ImageVerifierError` — a
structurally wrong binary must never be returned to the caller.

Cost: a linked image holds one shared object per distinct instruction, so
the checks classify (and, on a variable-width target, size) each distinct
object once.  Every index that holds a branch, a call or an address is
still checked against its own resolved address; on a uniform fixed-width
image the layout walk is arithmetic per extent.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Dict, List, Tuple, Union

from repro.errors import ImageVerifierError
from repro.link.binary import BinaryImage, Ref, reference_of
from repro.obs import trace
from repro.target import get_target
from repro.target.spec import TargetSpec


def verify_image(image: BinaryImage,
                 target: Union[str, TargetSpec, None] = None) -> None:
    """Raise :class:`ImageVerifierError` unless ``image`` is sound.

    The width/alignment model is taken from *target* when given, else from
    the image's recorded ``target_name``.
    """
    spec = get_target(target if target is not None else image.target_name)
    problems: List[str] = []
    with trace.span("verify-image", kind="verify",
                    num_functions=len(image.functions),
                    target=spec.name) as span:
        _check_text_layout(image, problems, spec)
        checks = 1
        if not problems:
            # Later checks index by extent; skip them if layout is broken.
            _check_symbols(image, problems)
            _check_targets(image, problems)
            _check_outlined(image, problems)
            _check_data(image, problems)
            checks = 5
        span.annotate(checks=checks, problems=len(problems))
        metrics = trace.metrics()
        metrics.set_gauge("verify.checks_run", checks)
        metrics.set_gauge("verify.problems", len(problems))
        metrics.set_gauge("verify.passed", int(not problems))
    if problems:
        preview = "; ".join(problems[:4])
        more = f" (+{len(problems) - 4} more)" if len(problems) > 4 else ""
        raise ImageVerifierError(
            f"binary image failed verification: {preview}{more}")


def _check_text_layout(image: BinaryImage, problems: List[str],
                       spec: TargetSpec) -> None:
    addr = image.text_base
    idx = 0
    instrs = image.instrs
    num_instrs = len(instrs)
    # When every instruction is as wide as the image's uniform stride, an
    # extent's walk is settled by its first instruction's address and a
    # count.  Otherwise the walk steps by each instruction's width,
    # computed once per distinct instruction.
    stride = image.uniform_stride
    uniform = (stride is not None and spec.is_fixed_width
               and spec.widths.default_bytes == stride)
    width_of: Dict[int, int] = {}
    if not uniform:
        # Keyed by object: each shared instruction is sized once.
        for key, instr in dict(zip(map(id, instrs), instrs)).items():
            width_of[key] = spec.instr_bytes(instr)
    for ext in image.functions:
        expected = spec.align_up(addr)
        if ext.start != expected:
            problems.append(
                f"function {ext.name!r} starts at {ext.start:#x}, "
                f"expected {expected:#x} (extents must be contiguous and "
                f"{spec.function_alignment}-byte aligned)")
            return
        if ext.start % spec.function_alignment:
            problems.append(
                f"function {ext.name!r} starts at unaligned address "
                f"{ext.start:#x} (alignment {spec.function_alignment})")
            return
        if ext.end <= ext.start:
            problems.append(
                f"function {ext.name!r} has a bad extent "
                f"[{ext.start:#x}, {ext.end:#x})")
            return
        # Walk the extent instruction by instruction under the target's
        # width model; the extent must cover its instructions exactly.
        fn_addr = ext.start
        if uniform:
            # The walk's first step decides every later one.
            if idx < num_instrs and image.addr_of_index(idx) != fn_addr:
                problems.append(
                    f"instruction {idx} of {ext.name!r} recorded at "
                    f"{image.addr_of_index(idx):#x}, expected {fn_addr:#x}")
                return
            steps = min(num_instrs - idx, -(-(ext.end - ext.start) // stride))
            fn_addr += steps * stride
            idx += steps
        else:
            while idx < num_instrs and fn_addr < ext.end:
                if image.addr_of_index(idx) != fn_addr:
                    problems.append(
                        f"instruction {idx} of {ext.name!r} recorded at "
                        f"{image.addr_of_index(idx):#x}, expected "
                        f"{fn_addr:#x}")
                    return
                fn_addr += width_of[id(instrs[idx])]
                idx += 1
        if fn_addr != ext.end:
            problems.append(
                f"function {ext.name!r} extent [{ext.start:#x}, "
                f"{ext.end:#x}) does not match its encoded instruction "
                f"bytes (ends {fn_addr:#x}; truncated or rewritten text)")
            return
        addr = ext.end
    text_end = image.text_end_address()
    if addr != text_end:
        problems.append(
            f"text section holds {num_instrs} instructions "
            f"(ends {text_end:#x}) but extents end at {addr:#x} "
            f"(truncated or padded text)")
    if idx != num_instrs:
        problems.append(
            f"{num_instrs - idx} instructions lie beyond the last "
            f"function extent")


def _check_symbols(image: BinaryImage, problems: List[str]) -> None:
    starts = {ext.start for ext in image.functions}
    for ext in image.functions:
        if image.symbols.get(ext.name) != ext.start:
            problems.append(
                f"symbol table disagrees with extent of {ext.name!r}: "
                f"{image.symbols.get(ext.name)!r} != {ext.start:#x}")
    text_end = image.text_end_address()
    for name, addr in image.symbols.items():
        in_text = image.text_base <= addr < text_end
        in_data = image.data_base <= addr < max(image.data_end,
                                                image.data_base + 1)
        is_stub = addr in image.runtime_stubs
        if in_text and addr not in starts:
            problems.append(
                f"symbol {name!r} points inside a function body "
                f"({addr:#x})")
        elif not (in_text or in_data or is_stub):
            problems.append(
                f"symbol {name!r} points outside every segment ({addr:#x})")
    entry = image.entry_symbol
    if entry is not None and image.symbols.get(entry) not in starts:
        problems.append(f"entry symbol {entry!r} is not a function start")


def _check_targets(image: BinaryImage, problems: List[str]) -> None:
    instrs = image.instrs
    starts = {ext.start for ext in image.functions}
    stubs = image.runtime_stubs
    target_of = image.resolved_target.get
    # Classify each distinct instruction once; the checks below then visit
    # only the indices that hold a local branch or a direct call, each
    # against its own resolved target.
    ids = list(map(id, instrs))
    labels, calls = set(), set()
    for key, instr in dict(zip(ids, instrs)).items():
        ref, _ = reference_of(instr)
        if ref is Ref.LABEL:
            labels.add(key)
        elif ref is Ref.CALL:
            calls.add(key)
    checked = labels | calls
    found: List[Tuple[int, str]] = []  # (index, problem)
    # _check_text_layout has already proven the extents sorted, contiguous
    # and exactly covering the instruction stream, so a single forward walk
    # over (extent, index one past its end) finds each branch's function.
    extents = ((ext, image.index_of_addr(ext.end))
               for ext in image.functions)
    ext, ext_end = next(extents, (None, 0))
    is_instr_addr = image.is_instr_addr
    for idx in compress(count(), map(checked.__contains__, ids)):
        target = target_of(idx)
        if ids[idx] in labels:
            while ext is not None and idx >= ext_end:
                ext, ext_end = next(extents, (None, 0))
            if target is None:
                found.append((idx, f"branch at {image.addr_of_index(idx):#x}"
                                   f" ({instrs[idx].render()}) was never "
                                   f"resolved"))
            elif (ext is None or not ext.start <= target < ext.end
                    or not is_instr_addr(target)):
                found.append((idx, f"branch at {image.addr_of_index(idx):#x}"
                                   f" targets {target:#x}, outside its "
                                   f"function {ext.name if ext else '?'!r}"))
        elif target is None:
            found.append((idx, f"call at {image.addr_of_index(idx):#x} "
                               f"({instrs[idx].render()}) was never "
                               f"resolved"))
        elif target not in starts and target not in stubs:
            found.append((idx, f"call at {image.addr_of_index(idx):#x} "
                               f"targets {target:#x}, which is neither a "
                               f"function start nor a runtime stub"))
    for idx, sym_addr in image.resolved_sym.items():
        if (sym_addr is None or not isinstance(idx, int)
                or not 0 <= idx < len(instrs)):
            continue
        in_data = image.data_base <= sym_addr < image.data_end
        if not (in_data or sym_addr in starts or sym_addr in stubs):
            found.append((idx, f"address materialisation at "
                               f"{image.addr_of_index(idx):#x} resolves to "
                               f"{sym_addr:#x}, outside data and function "
                               f"starts"))
    # In text order; the sort is stable, so at one index a branch or call
    # problem still precedes an address problem.
    found.sort(key=lambda item: item[0])
    problems.extend(problem for _, problem in found)


def _check_outlined(image: BinaryImage, problems: List[str]) -> None:
    outlined = [ext for ext in image.functions if ext.is_outlined]
    if not outlined:
        return
    for ext in outlined:
        last = image.instrs[image.index_of_addr(ext.end) - 1]
        if not (last.is_return or last.is_tail_call):
            problems.append(
                f"outlined function {ext.name!r} falls through its end "
                f"(last instruction {last.render()!r}) — call/return "
                f"pairing is broken")
    # Nothing may branch into the middle of an outlined body: outlined
    # code is only entered via BL/tail call at its start (checked above),
    # and local branches stay within their own function (checked above),
    # so the remaining hazard is an outlined extent whose start has no
    # symbol — an unreachable orphan that bloats text silently.
    for ext in outlined:
        if image.symbols.get(ext.name) != ext.start:
            problems.append(
                f"outlined function {ext.name!r} has no symbol at its "
                f"start address")


def _check_data(image: BinaryImage, problems: List[str]) -> None:
    text_end = image.text_end_address()
    if image.data_end < image.data_base:
        problems.append(
            f"data segment is inverted: [{image.data_base:#x}, "
            f"{image.data_end:#x})")
        return
    if image.data_init and image.data_base < text_end:
        problems.append(
            f"data segment [{image.data_base:#x}, ...) overlaps text "
            f"(ends {text_end:#x})")
    for name, (lo, hi) in image.data_extent_of_module.items():
        if not (image.data_base <= lo <= hi <= image.data_end):
            problems.append(
                f"module {name!r} data extent [{lo:#x}, {hi:#x}) escapes "
                f"the data segment")
    for addr in image.data_init:
        if not image.data_base <= addr < image.data_end:
            problems.append(
                f"initialised data word at {addr:#x} lies outside "
                f"[{image.data_base:#x}, {image.data_end:#x})")
            break  # one example is enough; data_init can be large
