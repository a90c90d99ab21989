"""Unit tests for caches, scratchpads, shared memory, and prefetchers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import SystemConfig
from repro.dram.controller import MemoryController
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.mem.dcache import SetAssocCache
from repro.mem.local_memory import LocalMemory
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, core_block_schedule
from repro.mem.shared_memory import BankedSharedMemory


class TestLocalMemory:
    def test_roundtrip_and_counters(self):
        lm = LocalMemory(32)
        lm.write(5, 1.5)
        assert lm.read(5) == 1.5
        assert (lm.reads, lm.writes, lm.accesses) == (1, 1, 2)

    def test_bounds(self):
        lm = LocalMemory(8)
        with pytest.raises(IndexError):
            lm.read(8)
        with pytest.raises(IndexError):
            lm.write(-1, 0)

    def test_snapshot_is_copy(self):
        lm = LocalMemory(4)
        snap = lm.snapshot()
        lm.write(0, 9)
        assert snap[0] == 0


class TestSetAssocCache:
    def test_miss_then_hit(self):
        c = SetAssocCache(1024, 128, 2)
        assert not c.access(0)
        c.insert(0)
        assert c.access(0)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction(self):
        c = SetAssocCache(256, 128, 2)  # 1 set, 2 ways
        c.insert(0)
        c.insert(1)        # second line
        c.access(0)        # touch block 0 -> block 1 becomes LRU
        victim = c.insert(2)
        assert victim == 1  # block 1 evicted
        assert c.access(0)
        assert not c.access(1)

    def test_block_of_maps_words_to_tags(self):
        c = SetAssocCache(256, 128, 2)  # 32-word lines
        assert [c.block_of(w) for w in (0, 31, 32, 64)] == [0, 0, 1, 2]
        assert c.block_base(2) == 64

    def test_sets_isolate(self):
        c = SetAssocCache(512, 128, 1)  # 4 sets, direct-mapped
        c.insert(0)       # set 0
        c.insert(1)       # set 1
        assert c.contains(0) and c.contains(1)
        c.insert(4)       # block 4 -> set 0, evicts block 0
        assert not c.contains(0)
        assert c.contains(1)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssocCache(1000, 128, 3)

    def test_contains_does_not_perturb(self):
        c = SetAssocCache(256, 128, 2)
        c.insert(0)
        before = (c.hits, c.misses)
        c.contains(0)
        assert (c.hits, c.misses) == before

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, blocks):
        c = SetAssocCache(512, 64, 2)
        for b in blocks:
            c.insert(b)
        total = sum(len(s) for s in c._sets)
        assert total <= c.n_sets * c.assoc


class TestBankedSharedMemory:
    def test_conflict_free_distinct_banks(self):
        sm = BankedSharedMemory(128, 32)
        assert sm.conflict_cycles(list(range(32))) == 1

    def test_full_conflict(self):
        sm = BankedSharedMemory(128, 32)
        assert sm.conflict_cycles([0, 32, 64]) == 3

    def test_striped_translation_is_conflict_free(self):
        """The paper's striping: any per-lane addresses are conflict-free
        because lane l's state lives entirely in bank l."""
        sm = BankedSharedMemory(32 * 32, 32)
        for addrs in ([0] * 32, list(range(32)), [(l * 7) % 32 for l in range(32)]):
            phys = [sm.translate(a, lane) for lane, a in enumerate(addrs)]
            assert sm.conflict_cycles(phys) == 1

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=32))
    def test_striping_property(self, addrs):
        """Conflict-freedom holds for *arbitrary* (irregular, data-
        dependent) per-lane state addresses - the paper's section III-E."""
        sm = BankedSharedMemory(31 * 32, 32)
        phys = [sm.translate(a, lane) for lane, a in enumerate(addrs)]
        banks = [p % 32 for p in phys]
        assert len(set(banks)) == len(banks)


def _prefetcher(degree=2, schedule=None, line_bytes=64, cache_bytes=512):
    eng = Engine()
    stats = Stats()
    mc = MemoryController(eng, SystemConfig().dram, stats)
    cache = SetAssocCache(cache_bytes, line_bytes, cache_bytes // line_bytes)
    pf = SequentialPrefetcher(
        eng, mc, cache, BlockStream(0, 1 << 16), stats, "pf",
        degree=degree, schedule=schedule,
    )
    return eng, pf, stats


class TestSequentialPrefetcher:
    def test_demand_miss_then_fill(self):
        eng, pf, stats = _prefetcher()
        ready = []
        eng.schedule(0, pf.demand_access, 0, ready.append)
        eng.run()
        assert len(ready) == 1 and ready[0] > 0
        assert stats["pf.demand_misses"] == 1

    def test_prefetch_makes_next_block_hit(self):
        eng, pf, stats = _prefetcher()
        times = []
        eng.schedule(0, pf.demand_access, 0, times.append)
        eng.run()
        # by now block 1 and 2 were prefetched; a later access hits
        hit = []
        eng.schedule(0, pf.demand_access, 16, hit.append)
        eng.run()
        assert stats["pf.demand_hits"] == 1

    def test_mshr_merges_concurrent_misses(self):
        eng, pf, stats = _prefetcher()
        ready = []
        eng.schedule(0, pf.demand_access, 0, ready.append)
        eng.schedule(0, pf.demand_access, 4, ready.append)  # same block
        eng.run()
        assert len(ready) == 2
        assert stats["pf.mshr_merges"] == 1
        assert stats["dram.requests"] == 1 + stats["pf.prefetches"]

    def test_multi_block_access(self):
        eng, pf, stats = _prefetcher()
        done = []
        eng.schedule(0, lambda: pf.demand_access_multi([0, 16, 17], done.append))
        eng.run()
        assert len(done) == 1  # one callback when all blocks present

    def test_oracle_schedule_prefetches_strided_stream(self):
        # a stream with stride 8 blocks: sequential prefetch would be useless
        schedule = [i * 8 for i in range(16)]
        eng, pf, stats = _prefetcher(degree=2, schedule=schedule, cache_bytes=1024)
        eng.schedule(0, pf.demand_access, 0, lambda t: None)
        eng.run()
        # blocks 8 and 16 (the next schedule entries) were prefetched
        assert pf.cache.contains(8)
        assert pf.cache.contains(16)

    def test_oracle_pointer_monotone(self):
        schedule = [0, 8, 16]
        eng, pf, stats = _prefetcher(degree=1, schedule=schedule)
        eng.schedule(0, pf.demand_access, 8 * 16, lambda t: None)
        eng.run()
        eng.schedule(0, pf.demand_access, 0, lambda t: None)  # stale access
        eng.run()
        assert pf._ptr == 1  # did not rewind


class TestCoreBlockSchedule:
    def test_single_field_stride(self):
        sched = core_block_schedule(
            base_word=0, n_fields=1, block_records=512, n_blocks=4,
            core_id=0, n_cores=32, line_words=16,
        )
        # core 0 owns words [0,16) of each row: blocks 0, 32, 64, 96
        assert sched == [0, 32, 64, 96]

    def test_multi_field_visits_each_field_row(self):
        sched = core_block_schedule(
            base_word=0, n_fields=3, block_records=512, n_blocks=1,
            core_id=1, n_cores=32, line_words=16,
        )
        assert sched == [1, 33, 65]  # field rows 0,1,2; core 1 offset 16 words

    def test_wide_span_emits_multiple_lines(self):
        sched = core_block_schedule(
            base_word=0, n_fields=1, block_records=512, n_blocks=1,
            core_id=0, n_cores=8, line_words=16,
        )
        assert sched == [0, 1, 2, 3]  # 64-word span = 4 lines

    def test_schedules_partition_all_blocks(self):
        """Across all cores, schedules cover every input block exactly once
        when spans align to lines."""
        all_blocks = []
        for c in range(32):
            all_blocks += core_block_schedule(
                base_word=0, n_fields=2, block_records=512, n_blocks=2,
                core_id=c, n_cores=32, line_words=16,
            )
        total_lines = 2 * 2 * 512 // 16
        assert sorted(all_blocks) == list(range(total_lines))


class TestSmBlockSchedule:
    def test_single_field_sequential(self):
        from repro.mem.prefetcher import sm_block_schedule

        sched = sm_block_schedule(
            base_word=0, n_fields=1, block_records=512, n_blocks=1,
            n_threads=128, line_words=32,
        )
        # 4 record groups x 128 words = 4 lines each, in order
        assert sched == list(range(16))

    def test_multi_field_record_major(self):
        from repro.mem.prefetcher import sm_block_schedule

        sched = sm_block_schedule(
            base_word=0, n_fields=2, block_records=512, n_blocks=1,
            n_threads=128, line_words=32,
        )
        # group 0: field 0 lines 0..3, field 1 lines 16..19; then group 1...
        assert sched[:8] == [0, 1, 2, 3, 16, 17, 18, 19]
        assert sched[8:12] == [4, 5, 6, 7]

    def test_covers_every_line_once(self):
        from repro.mem.prefetcher import sm_block_schedule

        sched = sm_block_schedule(
            base_word=0, n_fields=3, block_records=512, n_blocks=2,
            n_threads=128, line_words=32,
        )
        assert sorted(sched) == list(range(3 * 2 * 512 // 32))
        assert len(set(sched)) == len(sched)
