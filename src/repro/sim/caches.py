"""Set-associative cache and TLB models (LRU replacement).

Used by the timing model for the instruction cache and iTLB — the two
structures whose pressure the paper credits for outlining's mild *speedups*
on cold-code-heavy spans ("smaller instruction footprint and hence possibly
less icache and iTLB pressure").
"""

from __future__ import annotations

from typing import List


class SetAssociativeCache:
    """A classic set-associative LRU cache keyed by block address."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int):
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, size_bytes // (line_bytes * ways))
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch *addr*; returns True on hit."""
        line = addr // self.line_bytes
        idx = line % self.num_sets
        ways = self._sets[idx]
        try:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        except ValueError:
            self.misses += 1
            ways.append(line)
            if len(ways) > self.ways:
                ways.pop(0)
            return False


class TLB(SetAssociativeCache):
    """A TLB is just a small cache of page numbers."""

    def __init__(self, entries: int, page_bytes: int, ways: int = 4):
        super().__init__(size_bytes=entries * page_bytes, line_bytes=page_bytes,
                         ways=ways)
