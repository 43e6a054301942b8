"""Generalised suffix tree over integer sequences (Ukkonen's algorithm).

This is the data structure at the heart of LLVM's MachineOutliner ("it
maintains machine instructions belonging to every basic block of a function
in a suffix tree", §II-C).  The instruction mapper turns every machine
instruction into an integer (identical instructions -> identical integers,
illegal instructions and block boundaries -> unique integers), and each
internal node of the tree is a *repeated substring* — an outlining pattern.

The implementation is iterative (no recursion limits) and linear-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Sentinel id guaranteed unique (appended internally).
_END_SYMBOL_BASE = -1


class _Node:
    __slots__ = ("start", "end", "link", "children", "index")

    def __init__(self, start: int, end: Optional[int], index: int = -1):
        self.start = start
        self.end = end  # None = leaf (grows to current end)
        #: Suffix link, as a position in the tree's internal-node list
        #: (0 = the root).  A link points across the tree, often at the
        #: root, so a node reference would tie every internal node into a
        #: reference cycle that only the cyclic collector can free.
        self.link = 0
        self.children: Dict[int, "_Node"] = {}
        #: This node's position in the internal-node list (-1 = leaf).
        self.index = index


@dataclass
class RepeatedSubstring:
    """A substring of length >= min_len occurring >= 2 times."""

    length: int
    #: Start offsets of every occurrence in the input sequence.
    starts: List[int]

    def substring(self, seq: List[int]) -> Tuple[int, ...]:
        s = self.starts[0]
        return tuple(seq[s:s + self.length])


class SuffixTree:
    """Ukkonen suffix tree over ``seq`` (a list of ints).

    The tree is built once, from the whole sequence plus a unique
    terminator (so every suffix ends at a leaf), and never extended
    afterwards: repeated outlining builds a fresh tree each round, over
    the program as the previous round left it (§V-B).
    """

    def __init__(self, seq: Sequence[int]):
        self.seq: List[int] = list(seq)
        self.seq.append(_END_SYMBOL_BASE)
        self.root = _Node(-1, -1, 0)
        seq = self.seq
        root = self.root
        # Every internal node, root first, indexed by ``_Node.index``.
        internal: List[_Node] = [root]
        active_node = root
        active_edge = -1  # index into seq of the edge's first symbol
        active_length = 0
        remainder = 0

        for i, symbol in enumerate(seq):
            remainder += 1
            last_internal: Optional[_Node] = None
            while remainder > 0:
                if active_length == 0:
                    active_edge = i
                edge_symbol = seq[active_edge]
                child = active_node.children.get(edge_symbol)
                if child is None:
                    # New leaf directly below active_node.
                    leaf = _Node(i, None)
                    active_node.children[edge_symbol] = leaf
                    if last_internal is not None:
                        last_internal.link = active_node.index
                        last_internal = None
                else:
                    # A leaf's edge runs to the symbol being inserted.
                    end = i + 1 if child.end is None else child.end
                    edge_len = end - child.start
                    if active_length >= edge_len:
                        active_edge += edge_len
                        active_length -= edge_len
                        active_node = child
                        continue
                    if seq[child.start + active_length] == symbol:
                        # Symbol already on the edge: extend active point.
                        active_length += 1
                        if last_internal is not None:
                            last_internal.link = active_node.index
                        break
                    # Split the edge.
                    split = _Node(child.start, child.start + active_length,
                                  len(internal))
                    internal.append(split)
                    active_node.children[edge_symbol] = split
                    leaf = _Node(i, None)
                    split.children[symbol] = leaf
                    child.start += active_length
                    split.children[seq[child.start]] = child
                    if last_internal is not None:
                        last_internal.link = split.index
                    last_internal = split
                remainder -= 1
                if active_node is root and active_length > 0:
                    active_length -= 1
                    active_edge = i - remainder + 1
                elif active_node is not root:
                    active_node = internal[active_node.link]

    # -- queries -----------------------------------------------------------

    def repeated_substrings(self, min_len: int = 2,
                            max_len: int = 2048) -> Iterator[RepeatedSubstring]:
        """Yield every right-maximal repeated substring (internal node).

        A substring is yielded once per internal node at depth in
        [min_len, max_len]; ``starts`` lists all its occurrences.
        """
        n = len(self.seq)
        # Iterative DFS carrying path depth; collect leaf suffix indices.
        stack: List[Tuple[_Node, int, bool]] = [(self.root, 0, False)]
        leaves_of: Dict[int, List[int]] = {}
        order: List[Tuple[_Node, int]] = []
        while stack:
            node, depth, processed = stack.pop()
            if processed:
                order.append((node, depth))
                continue
            stack.append((node, depth, True))
            for child in node.children.values():
                end = n if child.end is None else child.end
                stack.append((child, depth + end - child.start, False))
        # Post-order: accumulate leaf suffix starts upward.
        for node, depth in order:
            if not node.children:
                # Leaf: suffix start = n - depth.
                leaves_of[id(node)] = [n - depth]
                continue
            acc: List[int] = []
            for child in node.children.values():
                acc.extend(leaves_of.pop(id(child), ()))
            leaves_of[id(node)] = acc
            if node is self.root:
                continue
            if depth < min_len or depth > max_len:
                continue
            if len(acc) >= 2:
                starts = [s for s in acc if s + depth <= n - 1]
                if len(starts) >= 2:
                    yield RepeatedSubstring(length=depth, starts=sorted(starts))


def naive_repeated_substrings(seq: List[int], min_len: int = 2,
                              max_len: int = 64) -> Dict[Tuple[int, ...], List[int]]:
    """O(n^2) reference implementation used by property tests.

    Returns every *right-maximal* repeated substring, i.e. substrings whose
    occurrence set cannot be extended one symbol to the right without
    shrinking — matching what the suffix tree's internal nodes represent.
    """
    n = len(seq)
    occurrences: Dict[Tuple[int, ...], List[int]] = {}
    for length in range(min_len, min(max_len, n) + 1):
        for start in range(n - length + 1):
            key = tuple(seq[start:start + length])
            occurrences.setdefault(key, []).append(start)
    repeated = {k: v for k, v in occurrences.items() if len(v) >= 2}
    # Keep only right-maximal substrings.
    out: Dict[Tuple[int, ...], List[int]] = {}
    for key, starts in repeated.items():
        extensions = set()
        for s in starts:
            end = s + len(key)
            extensions.add(seq[end] if end < n else ("$", s))
        if len(extensions) > 1:
            out[key] = starts
    return out
