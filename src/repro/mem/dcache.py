"""Set-associative L1 D-cache with LRU replacement.

Used for input-data cache blocks in SSMC (5 KB/core) and the GPGPU SM
(32 KB/SM).  The cache tracks *presence and recency* only; data values are
read from the global backing store at consumption time (input data is
read-only during the Map phase, so presence tracking is value-exact).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class SetAssocCache:
    """Block-granular set-associative cache.

    Lookups and fills take *block tags* (block indices); :meth:`block_of`
    maps a word address to its tag.

    >>> c = SetAssocCache(total_bytes=512, line_bytes=128, assoc=2)
    >>> c.access(c.block_of(0))
    False
    >>> c.insert(0)
    >>> c.access(0)
    True
    """

    def __init__(self, total_bytes: int, line_bytes: int, assoc: int, word_bytes: int = 4):
        if total_bytes % (line_bytes * assoc):
            raise ValueError(
                f"cache geometry invalid: {total_bytes}B total, "
                f"{line_bytes}B lines, {assoc}-way"
            )
        self.line_words = line_bytes // word_bytes
        self.assoc = assoc
        self.n_sets = total_bytes // (line_bytes * assoc)
        # per-set OrderedDict acting as an LRU list: oldest first
        self._sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def block_of(self, word_addr: int) -> int:
        """Block tag (block index) containing ``word_addr``."""
        return word_addr // self.line_words

    def block_base(self, block: int) -> int:
        return block * self.line_words

    # ------------------------------------------------------------------
    def access(self, block: int) -> bool:
        """Demand lookup of ``block``; updates LRU and hit/miss counters."""
        s = self._sets[block % self.n_sets]
        if block in s:
            s.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, block: int) -> bool:
        """Probe ``block`` without perturbing LRU or counters."""
        return block in self._sets[block % self.n_sets]

    def insert(self, block: int) -> Optional[int]:
        """Fill ``block``; returns the evicted block tag, if any."""
        s = self._sets[block % self.n_sets]
        if block in s:
            s.move_to_end(block)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim, _ = s.popitem(last=False)
            self.evictions += 1
        s[block] = None
        return victim

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0
