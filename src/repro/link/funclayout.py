"""Function-ordering stage of the system linker.

PR 4 gave the linker exact per-instruction addresses and the timing model
line-straddle accounting; this module is the optimization that substrate
was built for: *where* each function lands in ``__text`` decides which
icache lines, iTLB entries, and text pages a cold span touches.  Four
orderings sit behind ``BuildConfig.layout``:

* ``"source"`` — link order as the modules arrived (the baseline every
  prior PR shipped; bit-identical to the pre-layout-stage linker), with
  outlined functions wherever the outliner appended them;
* ``"near-callers"`` — link order, except that each outlined function
  sits directly after its busiest caller (the paper's future work #3);
* ``"callgraph-c3"`` — C3-style call-chain clustering (*Optimizing
  Function Layout for Mobile Applications*, arXiv 2211.09285): each
  function starts as its own cluster, callees are appended to their
  hottest caller's cluster most-frequent-edge first under a page-size
  budget, and clusters are emitted by heat density — hot call chains
  become physically adjacent code;
* ``"random"`` — a seeded shuffle, the experiment's control arm.

Edge weights come from a :class:`~repro.sim.profile.LayoutProfile`
collected by the simulator; without a profile the pass falls back to
static call-site counts, which keeps ``callgraph-c3`` deterministic and
usable before any run exists.

Every ordering must be a permutation of its input — the linker enforces
that (with a typed ``LinkError``) rather than letting a buggy
ordering produce an image that only the post-link verifier can reject.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import LinkError
from repro.isa.instructions import MachineFunction
from repro.target.spec import TargetSpec

#: Valid ``BuildConfig.layout`` values.
LAYOUT_MODES = ("source", "near-callers", "callgraph-c3", "random")

#: C3 cluster byte budget: once a cluster reaches a text page, appending
#: more functions cannot improve page locality and starts hurting the
#: density ordering, so merging stops there (arXiv 2211.09285, §4).
C3_CLUSTER_BUDGET_BYTES = 4096


@dataclass
class LayoutDecision:
    """The ordering stage's output plus what the obs layer reports."""

    order: List[MachineFunction]
    mode: str
    #: Distinct caller->callee edges that carried weight into the pass.
    profile_edges: int = 0
    #: Clusters emitted by callgraph-c3 (0 for other modes).
    clusters: int = 0
    #: True when edge weights came from an execution profile (False =
    #: static call-site census fallback, or a mode that uses no weights).
    used_profile: bool = False


def order_functions(functions: List[MachineFunction], *,
                    layout: str = "source",
                    profile=None,
                    seed: int = 0,
                    spec: TargetSpec) -> LayoutDecision:
    """Produce the final ``__text`` function order.

    *profile* is a :class:`~repro.sim.profile.LayoutProfile` (or any
    object with an ``edge_weights()`` returning ``{(caller, callee):
    count}``); ``None`` selects the static call-site census.
    """
    if layout not in LAYOUT_MODES:
        raise LinkError(f"unknown layout {layout!r}; expected one of: "
                        f"{', '.join(LAYOUT_MODES)}")
    ordered = list(functions)
    if layout == "source":
        return LayoutDecision(order=ordered, mode=layout)
    if layout == "near-callers":
        return LayoutDecision(order=order_outlined_near_callers(ordered),
                              mode=layout)
    if layout == "random":
        rng = random.Random(seed)
        rng.shuffle(ordered)
        return LayoutDecision(order=ordered, mode=layout)
    # callgraph-c3
    if profile is not None:
        weights = {edge: count
                   for edge, count in profile.edge_weights().items()
                   if count > 0}
        used_profile = True
    else:
        weights = _static_edge_weights(ordered)
        used_profile = False
    order, clusters = _c3_order(ordered, weights, spec)
    return LayoutDecision(order=order, mode=layout,
                          profile_edges=len(weights), clusters=clusters,
                          used_profile=used_profile)


def _static_edge_weights(
        functions: List[MachineFunction]) -> Dict[Tuple[str, str], int]:
    """Call-site census: caller->callee edge weight = number of direct
    call/tail-call sites.  The profile-free fallback for callgraph-c3."""
    names = {fn.name for fn in functions}
    weights: Dict[Tuple[str, str], int] = {}
    for fn in functions:
        for instr in fn.instructions():
            callee = instr.callee()
            if callee in names and callee != fn.name:
                key = (fn.name, callee)
                weights[key] = weights.get(key, 0) + 1
    return weights


def _c3_order(functions: List[MachineFunction],
              weights: Dict[Tuple[str, str], int],
              spec: TargetSpec) -> Tuple[List[MachineFunction], int]:
    """Call-chain clustering (C3), fully deterministic.

    1. every function is a singleton cluster, sized by its padded text
       bytes under *spec* (the same ``align_up`` rule the linker applies);
    2. callees in decreasing incoming weight are appended to the cluster
       of their hottest caller, unless already co-clustered, the merge
       would exceed :data:`C3_CLUSTER_BUDGET_BYTES`, or the caller's
       cluster already *contains* the callee's head mid-chain;
    3. clusters are emitted by decreasing heat density (cluster weight /
       cluster bytes), ties broken by the earliest original position —
       cold never-called code sinks to the end in stable source order.
    """
    index = {fn.name: i for i, fn in enumerate(functions)}
    by_name = {fn.name: fn for fn in functions}
    # Drop self-edges and edges whose endpoints are not being laid out.
    edges = {(c, f): w for (c, f), w in weights.items()
             if c in index and f in index and c != f and w > 0}

    cluster_of: Dict[str, int] = {fn.name: i for i, fn in enumerate(functions)}
    members: Dict[int, List[str]] = {i: [fn.name]
                                     for i, fn in enumerate(functions)}
    sizes: Dict[int, int] = {i: spec.function_text_bytes(fn)
                             for i, fn in enumerate(functions)}

    incoming: Dict[str, int] = {}
    callers_of: Dict[str, List[Tuple[str, int]]] = {}
    for (caller, callee), weight in sorted(edges.items()):
        incoming[callee] = incoming.get(callee, 0) + weight
        callers_of.setdefault(callee, []).append((caller, weight))

    # Hottest callees first; ties resolved by original link order.
    hot_callees = sorted(incoming,
                         key=lambda name: (-incoming[name], index[name]))
    for callee in hot_callees:
        # Hottest caller first (then original order for determinism).
        candidates = sorted(callers_of[callee],
                            key=lambda cw: (-cw[1], index[cw[0]]))
        src = cluster_of[callee]
        for caller, _weight in candidates:
            dst = cluster_of[caller]
            if dst == src:
                continue
            if sizes[dst] + sizes[src] > C3_CLUSTER_BUDGET_BYTES:
                continue
            for name in members[src]:
                cluster_of[name] = dst
            members[dst].extend(members[src])
            sizes[dst] += sizes[src]
            del members[src], sizes[src]
            break

    def cluster_weight(names: List[str]) -> int:
        return sum(incoming.get(name, 0) for name in names)

    emitted = sorted(
        members.items(),
        key=lambda item: (-cluster_weight(item[1]) / max(1, sizes[item[0]]),
                          min(index[name] for name in item[1])))
    order = [by_name[name] for _, names in emitted for name in names]
    return order, len(emitted)


def order_outlined_near_callers(
        functions: List[MachineFunction]) -> List[MachineFunction]:
    """Place each outlined function after its most frequent caller.

    Outlined functions called from everywhere (the popular retain/release
    thunks) still get one home; the win comes from the long tail of
    outlined functions with one or two callers, which land on the same
    page / cache lines as the code that calls them.
    """
    regular = [fn for fn in functions if not fn.is_outlined]
    outlined = [fn for fn in functions if fn.is_outlined]
    if not outlined:
        return functions
    # Caller census: outlined name -> {caller name: call sites}.
    callers: Dict[str, Dict[str, int]] = {fn.name: {} for fn in outlined}
    for fn in functions:
        for instr in fn.instructions():
            callee = instr.callee()
            if callee in callers:
                census = callers[callee]
                census[fn.name] = census.get(fn.name, 0) + 1
    placed_after: Dict[str, List[MachineFunction]] = {}
    orphans: List[MachineFunction] = []
    for fn in outlined:
        census = callers[fn.name]
        if not census:
            orphans.append(fn)
            continue
        best = max(sorted(census), key=lambda name: census[name])
        placed_after.setdefault(best, []).append(fn)
    out: List[MachineFunction] = []
    for fn in regular:
        out.append(fn)
        out.extend(placed_after.pop(fn.name, ()))
    # Callers that were themselves outlined: resolve iteratively.
    remaining = [fn for group in placed_after.values() for fn in group]
    progress = True
    while remaining and progress:
        progress = False
        placed_names = {fn.name: i for i, fn in enumerate(out)}
        still: List[MachineFunction] = []
        for fn in remaining:
            census = callers[fn.name]
            hosts = [n for n in census if n in placed_names]
            if hosts:
                host = max(sorted(hosts), key=lambda name: census[name])
                out.insert(placed_names[host] + 1, fn)
                progress = True
            else:
                still.append(fn)
        remaining = still
    out.extend(remaining)
    out.extend(orphans)
    return out
