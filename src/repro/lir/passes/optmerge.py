"""Optimistic global function merging (the ROADMAP's "genuinely new
result"; cf. the optimistic global function merger the paper's team later
shipped for iOS).

Where :mod:`repro.lir.passes.mergefunctions` only folds *bit-identical*
bodies and :mod:`repro.lir.passes.fmsa` rewrites every call site, this pass
merges similar-but-not-identical functions without touching any caller:

1. bucket every function by a structural **similarity hash** — the SHA-256
   of its const-abstracted canonical form (:func:`fmsa.shape_key_and_consts`,
   so the two mergers can never disagree about "similar");
2. for each bucket, parameterise the differing immediates: one fresh
   ``__merged.N`` function carries the shared body with the diverging
   constants as extra trailing parameters, and every original symbol
   becomes a two-instruction **thunk** (``Call __merged.N(args..., c...);
   Ret``) so signatures, pointer identity, and the call graph are
   untouched;
3. **price the rewrite exactly**: the candidate bodies, the merged body,
   and the thunks are compiled with the real backend
   (:func:`repro.backend.llc.compile_function` on deep copies) and measured
   with the per-target :class:`~repro.target.spec.TargetSpec`
   (``function_text_bytes`` + ``function_metadata_bytes``).  A merge is
   kept only when it *strictly* shrinks text+metadata, so the pass can
   never grow the padded text section — optimistically propose, pessimally
   verify.

Because thunks preserve the original symbols, address-taken functions
(closure thunks) are mergeable here even though exact aliasing must skip
them.  Throwing functions are safe too: the error register is
caller-saved, so a thunk's ``Call; Ret`` forwards the callee's error state
to the original caller untouched.

The pass runs *last* in the whole-program -Osize stack — after
constprop/dce/simplifycfg — so the bodies it prices are exactly the bodies
llc will compile.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Dict, List, Tuple

from repro.lir import ir
from repro.lir.passes import fmsa, mergefunctions
from repro.obs import trace

#: Same register-budget limits as FMSA (extra params ride in arg GPRs).
MAX_EXTRA_PARAMS = fmsa.MAX_EXTRA_PARAMS


def similarity_digest(key: Tuple) -> str:
    """Bucket id: SHA-256 over the canonical shape (stable across runs)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _compiled_cost(fns: List[ir.LIRFunction], spec) -> int:
    """Exact text+metadata bytes these functions cost in the final image.

    Compiles deep copies through the real backend (phi elimination mutates
    its input) and measures with the target's own width/alignment model, so
    the price agrees byte-for-byte with what llc emits for the same LIR.
    """
    from repro.backend.llc import compile_function

    total = 0
    for fn in fns:
        mf = compile_function(copy.deepcopy(fn), spec)
        total += spec.function_text_bytes(mf) + spec.function_metadata_bytes
    return total


def _make_thunk(original: ir.LIRFunction, target_symbol: str,
                extra_consts: List[ir.Const]) -> ir.LIRFunction:
    """A forwarding wrapper keeping *original*'s symbol and signature."""
    thunk = ir.LIRFunction(symbol=original.symbol,
                           ret_is_float=original.ret_is_float,
                           has_return_value=original.has_return_value,
                           throws=original.throws,
                           source_module=original.source_module)
    thunk.params = [thunk.new_value() for _ in original.params]
    thunk.param_is_float = list(original.param_is_float)
    entry = thunk.new_block("entry")
    result = thunk.new_value() if original.has_return_value else None
    entry.instrs.append(ir.Call(
        result=result,
        callee=target_symbol,
        args=list(thunk.params) + list(extra_consts),
        throws=original.throws,
        ret_is_float=original.ret_is_float,
        arg_is_float=tuple(original.param_is_float)
        + tuple(c.is_float for c in extra_consts)))
    # No explicit error plumbing: the error register is caller-saved, so
    # the callee's success/throw state flows through the thunk's Ret to
    # the original caller unmodified.
    entry.instrs.append(ir.Ret(value=result,
                               is_float=original.ret_is_float))
    return thunk


def _fresh_symbol(existing: set, prefix: str, counter: int) -> Tuple[str, int]:
    while True:
        symbol = f"{prefix}__merged.{counter}"
        counter += 1
        if symbol not in existing:
            return symbol, counter


def run_on_module(module: ir.LIRModule, target=None,
                  symbol_prefix: str = "") -> Dict[str, int]:
    """Merge similar functions in *module*; returns the stats dict."""
    from repro.target import get_target

    spec = get_target(target)
    report: Dict[str, int] = {
        "functions_merged": 0,       # originals rewritten (aliased/thunked)
        "exact_merged": 0,           # phase 1: bit-identical, aliased away
        "parameterized_merged": 0,   # phase 2: const-divergent, thunked
        "thunks_created": 0,
        "merged_bodies_created": 0,
        "groups_considered": 0,
        "rejected_unprofitable": 0,
        "instrs_removed": 0,
        "bytes_saved": 0,            # phase 2 only, exact per the target
    }

    # -- Phase 1: exact dedup (the conservative pass, shared canonical key).
    exact = mergefunctions.run_on_module(module)
    report["exact_merged"] = exact["functions_merged"]
    report["functions_merged"] += exact["functions_merged"]
    report["instrs_removed"] += exact["instrs_removed"]

    # -- Phase 2: similarity buckets over the survivors.
    groups: Dict[str, List[Tuple[ir.LIRFunction, Tuple,
                                 List[ir.Const]]]] = {}
    for fn in module.functions:
        if fn.symbol == module.entry_symbol:
            continue
        key, consts = fmsa.shape_key_and_consts(fn)
        groups.setdefault(similarity_digest(key), []).append(
            (fn, key, consts))

    existing = {fn.symbol for fn in module.functions}
    thunk_for: Dict[str, ir.LIRFunction] = {}
    merged_bodies: List[ir.LIRFunction] = []
    counter = 0
    for bucket in groups.values():
        # A digest collision across different shapes would merge garbage;
        # split the bucket by true key equality before trusting it.
        by_key: Dict[Tuple, List[Tuple[ir.LIRFunction, List[ir.Const]]]] = {}
        for fn, key, consts in bucket:
            by_key.setdefault(key, []).append((fn, consts))
        for members in by_key.values():
            if len(members) < 2:
                continue
            report["groups_considered"] += 1
            rep_fn, rep_consts = members[0]
            nconsts = len(rep_consts)
            if any(len(c) != nconsts for _, c in members):
                continue  # belt and braces; the key pins the const count
            diff = [
                i for i in range(nconsts)
                if len({mergefunctions.const_token(c[i])
                        for _, c in members}) > 1
            ]
            if len(diff) > MAX_EXTRA_PARAMS:
                continue
            if len(rep_fn.params) + len(diff) > spec.cc.max_reg_args:
                continue
            if any(rep_consts[i].is_float for i in diff):
                continue  # extra params stay integer-class, like FMSA

            old_cost = _compiled_cost([fn for fn, _ in members], spec)
            if diff:
                # One fresh body, every original becomes a thunk.
                symbol, counter = _fresh_symbol(existing, symbol_prefix,
                                                counter)
                merged = copy.deepcopy(rep_fn)
                merged.symbol = symbol
                new_params = fmsa._rewrite_consts_as_params(merged, diff)
                merged.params.extend(new_params)
                merged.param_is_float.extend(False for _ in new_params)
                thunks = [
                    _make_thunk(fn, symbol, [consts[i] for i in diff])
                    for fn, consts in members
                ]
                new_cost = _compiled_cost([merged] + thunks, spec)
                if new_cost >= old_cost:
                    report["rejected_unprofitable"] += 1
                    continue
                existing.add(symbol)
                merged_bodies.append(merged)
                report["merged_bodies_created"] += 1
                for (fn, _), thunk in zip(members, thunks):
                    thunk_for[fn.symbol] = thunk
                    report["instrs_removed"] += (fn.num_instrs
                                                 - thunk.num_instrs)
                report["thunks_created"] += len(thunks)
                report["parameterized_merged"] += len(members)
            else:
                # Identical bodies that exact aliasing had to skip
                # (address-taken): keep the representative, thunk the rest.
                thunks = [_make_thunk(fn, rep_fn.symbol, [])
                          for fn, _ in members[1:]]
                new_cost = _compiled_cost([rep_fn] + thunks, spec)
                if new_cost >= old_cost:
                    report["rejected_unprofitable"] += 1
                    continue
                for (fn, _), thunk in zip(members[1:], thunks):
                    thunk_for[fn.symbol] = thunk
                    report["instrs_removed"] += (fn.num_instrs
                                                 - thunk.num_instrs)
                report["thunks_created"] += len(thunks)
            report["functions_merged"] += len(thunks)
            report["bytes_saved"] += old_cost - new_cost

    if thunk_for or merged_bodies:
        module.functions = [thunk_for.get(fn.symbol, fn)
                            for fn in module.functions] + merged_bodies

    metrics = trace.metrics()
    metrics.inc("optmerge.functions_merged", report["functions_merged"])
    metrics.inc("optmerge.thunks_created", report["thunks_created"])
    metrics.inc("optmerge.bytes_saved", report["bytes_saved"])
    metrics.inc("optmerge.rejected_unprofitable",
                report["rejected_unprofitable"])
    return report
