"""Function-level cache key inputs (the tentpole of the scale work).

A module's cache key changes whenever *any* of its source changes, so a
one-line edit relowers the whole module.  The function level fixes that:
each SIL function gets a **self-validating** key — deliberately *not*
derived from the module key — built from everything that can change its
optimized LIR:

* its own post-sema SIL (:func:`function_digest`): the rendered body plus
  the signature facts ``SILFunction.render`` omits (parameter temps and
  types, return type, bareness, source module);
* the signatures of every symbol it applies (:func:`callees_digest`):
  IRGen consults callee parameter/return types to decide float-ness of
  arguments and results, so a callee signature change must miss;
* the owning module's ordered string-intern table
  (:func:`interns_digest`): ``.strN`` numbering is shared module-wide in
  first-use order, so any change to the set *or order* of string
  constants in the module invalidates every function that could name one.

Because the -Osize scalar cleanup pipeline is strictly function-local
(each pass is ``run_on_function`` summed over the module), a module
assembled from cached per-function LIR plus freshly lowered-and-optimized
misses is bit-identical to a cold whole-module lowering; the determinism
harness enforces this.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.pipeline import cache as cache_mod
from repro.sil import sil


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def _signature_tag(silfn: sil.SILFunction) -> str:
    return (f"params={[str(t) for t in silfn.param_types]!r};"
            f"temps={silfn.param_temps!r};"
            f"ret={str(silfn.ret_type) if silfn.ret_type else 'None'};"
            f"bare={int(silfn.is_bare)};src={silfn.source_module}")


def function_digest(silfn: sil.SILFunction) -> str:
    """Digest of one function's post-sema, post-SIL-passes SIL."""
    return _sha(silfn.render(), _signature_tag(silfn))


def callees_digest(silfn: sil.SILFunction,
                   signatures: Dict[str, sil.SILFunction]) -> str:
    """Digest of the signatures of every symbol the function applies."""
    callees = set()
    for block in silfn.blocks:
        for instr in block.instrs:
            if isinstance(instr, (sil.Apply, sil.TryApply)):
                callees.add(instr.callee)
    parts = []
    for symbol in sorted(callees):
        callee = signatures.get(symbol)
        if callee is None:
            parts.append(f"{symbol}=<extern>")
        else:
            parts.append(f"{symbol}="
                         f"{[str(t) for t in callee.param_types]!r}->"
                         f"{str(callee.ret_type) if callee.ret_type else 'None'}")
    return _sha(*parts)


def interns_digest(sm: sil.SILModule) -> str:
    """Digest of the module's ordered string-intern table.

    Scans functions/blocks/instructions in order — exactly the first-use
    order IRGen interns in — so the digest pins both the ``.strN``
    numbering and the owning module name that prefixes the symbols.
    """
    seen: Dict[str, int] = {}
    for silfn in sm.functions:
        for block in silfn.blocks:
            for instr in block.instrs:
                if isinstance(instr, sil.ConstString):
                    seen.setdefault(instr.value, len(seen))
    ordered = sorted(seen, key=seen.get)
    return _sha(sm.name, *ordered)


def module_content_key(sm: sil.SILModule, function_keys: List[str]) -> str:
    """Content identity of a module's *assembled* LIR (llc cache base).

    The module-level cache key couples a module to the interfaces of its
    transitive imports and to the class and closure counts of every
    earlier module, so a signature edit or a new class invalidates the
    module key of everything downstream even when their LIR is
    unchanged.  This key instead derives from what the LIR actually is —
    the ordered per-function keys plus the lowered globals — so an
    unchanged downstream module keeps its machine-code cache entry.
    """
    globals_tag = [f"{g.symbol};{g.ty};{g.const_value!r};"
                   f"{int(g.is_let)};{g.origin_module}"
                   for g in sm.globals]
    return _sha(sm.name, sm.entry_symbol or "", *globals_tag,
                "::fns::", *function_keys)


def module_function_keys(
        sm: sil.SILModule,
        signatures: Dict[str, sil.SILFunction],
        frontend_fingerprint: str,
) -> List[Tuple[sil.SILFunction, str]]:
    """(function, cache key) for every function in the module, in order."""
    interns = interns_digest(sm)
    return [(silfn,
             cache_mod.function_key(frontend_fingerprint,
                                    function_digest(silfn),
                                    callees_digest(silfn, signatures),
                                    interns))
            for silfn in sm.functions]
