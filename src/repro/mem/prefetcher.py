"""Sequential cache-block prefetching into an L1 D-cache.

This is the input-data path of the *baseline* architectures (GPGPU, VWS,
SSMC - section V: "the GPGPU, VWS, and SSMC use sequential cache-block
prefetch").  On every demand access to input block *B* the prefetcher
issues fills for *B+1 .. B+degree* that are not present or in flight.
Prefetching hides latency but does not change DRAM bandwidth or row
locality - exactly the property the paper leans on when arguing that
"100%-accurate cache-block prefetching does not help" the baselines.

An MSHR table merges demand misses with in-flight fills so concurrent
threads never duplicate DRAM traffic for the same block.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dram.controller import MemoryController, DramRequest
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.mem.dcache import SetAssocCache


class BlockStream:
    """Bounds of the streamed input region, in words."""

    __slots__ = ("base", "end")

    def __init__(self, base: int, end: int):
        if end <= base:
            raise ValueError(f"empty input region [{base}, {end})")
        self.base = base
        self.end = end


def core_block_schedule(
    *,
    base_word: int,
    n_fields: int,
    block_records: int,
    n_blocks: int,
    core_id: int,
    n_cores: int,
    line_words: int,
) -> list[int]:
    """The ordered distinct cache-block sequence one MIMD core demands
    under the chunked traversal: per record block, fields in kernel order,
    the core's contiguous ``B/n_cores``-word slice of each field row.

    This is what a "100%-accurate sequential prefetch" (section V) follows;
    it is fully determined by the layout, not by the data.
    """
    span = block_records // n_cores
    lo = core_id * span
    schedule: list[int] = []
    for bl in range(n_blocks):
        for f in range(n_fields):
            start = base_word + bl * n_fields * block_records + f * block_records + lo
            first = start // line_words
            last = (start + span - 1) // line_words
            for b in range(first, last + 1):
                if not schedule or schedule[-1] != b:
                    schedule.append(b)
    return schedule


def sm_block_schedule(
    *,
    base_word: int,
    n_fields: int,
    block_records: int,
    n_blocks: int,
    n_threads: int,
    line_words: int,
) -> list[int]:
    """The ordered distinct cache-block sequence one SM demands under the
    word-interleaved traversal: per record block, per T-record group, the
    warps sweep each field's T consecutive words before the next field."""
    schedule: list[int] = []
    groups = block_records // n_threads
    for bl in range(n_blocks):
        for k in range(groups):
            for f in range(n_fields):
                start = (base_word + bl * n_fields * block_records
                         + f * block_records + k * n_threads)
                first = start // line_words
                last = (start + n_threads - 1) // line_words
                for b in range(first, last + 1):
                    if not schedule or schedule[-1] != b:
                        schedule.append(b)
    return schedule


class SequentialPrefetcher:
    """L1D + sequential prefetcher + MSHRs for one core (or one SM).

    With ``schedule=None`` the prefetcher is next-block sequential (the SM
    case: coalesced SIMT traffic is address-sequential within each field
    region).  With a per-core block ``schedule`` it is the 100%-accurate
    stream prefetcher the paper grants the MIMD baselines: it runs
    ``degree`` blocks ahead of the core's own demand stream - accuracy and
    timeliness are perfect, but bandwidth and row locality are whatever
    the stream's DRAM behaviour gives (the paper's point).
    """

    def __init__(
        self,
        engine: Engine,
        mc: MemoryController,
        cache: SetAssocCache,
        stream: BlockStream,
        stats: Stats,
        name: str,
        degree: int = 2,
        max_inflight: int = 8,
        schedule: Optional[list[int]] = None,
    ):
        self.engine = engine
        self.mc = mc
        self.cache = cache
        self.stream = stream
        self.stats = stats.scoped(name)
        self.degree = degree
        self.max_inflight = max_inflight
        #: block tag -> list of waiter callbacks (None entries = prefetches)
        self._inflight: dict[int, list[Callable[[int], None]]] = {}
        self.schedule = schedule
        self._sched_pos: dict[int, int] = (
            {b: i for i, b in enumerate(schedule)} if schedule else {}
        )
        self._ptr = 0  # consumption pointer into the schedule

    # ------------------------------------------------------------------
    def demand_access(self, word_addr: int, on_ready: Callable[[int], None]) -> None:
        """Demand load at the current engine time.  ``on_ready(ready_ps)``
        fires when the block is (or already was) present."""
        block = word_addr // self.cache.line_words
        if self.cache.access(block):
            self.stats.inc("demand_hits")
            self._prefetch_ahead(block)
            on_ready(self.engine.now)
            return
        self.stats.inc("demand_misses")
        waiters = self._inflight.get(block)
        if waiters is not None:
            # merged into an in-flight fill (MSHR hit)
            self.stats.inc("mshr_merges")
            waiters.append(on_ready)
        else:
            self._inflight[block] = [on_ready]
            self._issue(block, demand=True)
        self._prefetch_ahead(block)

    def demand_access_multi(self, word_addrs: list[int], on_all_ready: Callable[[int], None]) -> int:
        """Coalesced warp access: wait for every distinct block of
        ``word_addrs``.  Returns the number of distinct blocks (transactions)
        for port-serialization accounting."""
        blocks = sorted({self.cache.block_of(a) for a in word_addrs})
        remaining = len(blocks)
        latest = self.engine.now

        def one_ready(ready_ps: int) -> None:
            nonlocal remaining, latest
            remaining -= 1
            latest = max(latest, ready_ps)
            if remaining == 0:
                on_all_ready(latest)

        for block in blocks:
            self.demand_access(self.cache.block_base(block), one_ready)
        return len(blocks)

    # ------------------------------------------------------------------
    def _prefetch_ahead(self, block: int) -> None:
        """Issue fills for the prefetch candidates after a demand to
        ``block``: the next ``degree`` blocks, or the next ``degree``
        entries of the schedule."""
        schedule = self.schedule
        if schedule is None:
            candidates = range(block + 1, block + 1 + self.degree)
        else:
            pos = self._sched_pos.get(block)
            if pos is None:
                return
            if pos > self._ptr:
                self._ptr = pos
            ptr = self._ptr
            candidates = schedule[ptr + 1 : ptr + 1 + self.degree]
        inflight = self._inflight
        cache = self.cache
        line_words = cache.line_words
        base, end = self.stream.base, self.stream.end
        for b in candidates:
            if len(inflight) >= self.max_inflight:
                break
            if not base <= b * line_words < end:
                break
            if b in inflight or cache.contains(b):
                continue
            inflight[b] = []
            self.stats.inc("prefetches")
            self._issue(b, demand=False)

    def _issue(self, block: int, demand: bool) -> None:
        base = self.cache.block_base(block)
        n_words = min(self.cache.line_words, self.stream.end - base)
        self.mc.access(base, n_words, callback=self._fill, tag=block)
        if demand:
            self.stats.inc("demand_fills")

    def _fill(self, req: DramRequest) -> None:
        block = req.tag
        self.cache.insert(block)
        waiters = self._inflight.pop(block, [])
        now = self.engine.now
        for cb in waiters:
            cb(now)
