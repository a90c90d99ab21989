"""Plain SSMC: a sea of simple MIMD cores with cache-block prefetch.

This is the paper's strongest conventional baseline ("representing previous
multicores without row-orientedness [11], [10], [12]", section V): the
cores and multithreading are *identical* to Millipede corelets; the only
differences are the input-data path (a private 5 KB L1 D-cache per core
with sequential cache-block prefetch, instead of the shared row-oriented
prefetch buffer) and the absence of flow control / rate matching.

Because the cores stray from each other (data-dependent record work), their
per-core block streams interleave different rows at the shared FR-FCFS
controller, degrading row locality - the effect Table IV's "SSMC row miss
rate" quantifies and Fig. 3/4 charge for.
"""

from __future__ import annotations

from typing import Callable

from repro.config import SystemConfig, WORD_BYTES
from repro.core.corelet import MimdCore
from repro.core.processor import MimdProcessor
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.dcache import SetAssocCache
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, core_block_schedule


class L1dCore(MimdCore):
    """A simple core whose input port is its private L1D + prefetcher
    (an SSMC core, or one multicore context bundle).

    Live state nominally resides in the L1 D-cache (section III-E); since
    BMLA state always fits (the paper sizes it so), state accesses are
    modelled as single-cycle L1 hits; :func:`l1d_accesses` bills the
    local memory's access count as L1 (not scratchpad) energy.
    """

    def __init__(self, *args, prefetcher: SequentialPrefetcher, **kwargs):
        super().__init__(*args, **kwargs)
        self.prefetcher = prefetcher

    def _port(self):
        return self.prefetcher.demand_access, ()


def build_l1d_cores(proc: MimdProcessor, new_cache: Callable[[], SetAssocCache],
                    *, input_base_word: int, input_end_word: int, layout,
                    line_bytes: int, degree: int, name: str) -> list[L1dCore]:
    """One :class:`L1dCore` per core of ``proc.core_cfg``, each with its
    own cache and a sequential prefetcher (stats name ``{name}{core_id}``)
    on ``proc.mc``.

    ``layout`` (an InterleavedLayout) enables the oracle stream prefetch
    schedule the paper grants the MIMD baselines ("100%-accurate
    sequential prefetch"); without it prefetching is next-block."""
    n_cores = proc.core_cfg.n_cores
    stream = BlockStream(input_base_word, input_end_word)
    cores = []
    for core_id in range(n_cores):
        cache = new_cache()
        schedule = None
        if layout is not None:
            schedule = core_block_schedule(
                base_word=layout.base,
                n_fields=layout.n_fields,
                block_records=layout.block_records,
                n_blocks=layout.n_blocks,
                core_id=core_id,
                n_cores=n_cores,
                line_words=line_bytes // WORD_BYTES,
            )
        pf = SequentialPrefetcher(
            proc.engine, proc.mc, cache, stream, proc.stats,
            name=f"{name}{core_id}", degree=degree, schedule=schedule,
        )
        cores.append(proc._new_core(L1dCore, core_id, prefetcher=pf))
    return cores


def l1d_accesses(cores: list[L1dCore]) -> int:
    """L1 word accesses: live-state hits plus input-block reads."""
    return (sum(c.local_mem.accesses for c in cores)
            + sum(c.prefetcher.cache.accesses for c in cores))


class SsmcProcessor(MimdProcessor):
    """One 32-core SSMC processor on one die-stacked channel."""

    def __init__(self, engine: Engine, config: SystemConfig, program: Program,
                 global_mem: GlobalMemory, stats: Stats, *, input_base_word: int,
                 input_end_word: int, layout=None, backend: str = "reference"):
        super().__init__(engine, config, program, global_mem, stats,
                         config.core, "ssmc", backend)
        scfg = config.ssmc
        self.mc = MemoryController(engine, config.dram, stats, name="dram")

        #: live state gets a partition equal to Millipede's local memory;
        #: the remaining 1 KB of the 5 KB L1 caches input blocks
        state_bytes = config.millipede.local_memory_bytes
        input_cache_bytes = scfg.l1d_bytes - state_bytes
        if input_cache_bytes <= 0:
            raise ValueError(
                f"L1D ({scfg.l1d_bytes}B) cannot hold the {state_bytes}B "
                "live state plus input blocks"
            )

        # the input region behaves as a fully-associative stream buffer:
        # a core's per-record stream strides across the field regions
        # (stride = one row per field), so set-indexed placement would
        # alias the whole stream into one set and thrash
        def new_cache() -> SetAssocCache:
            return SetAssocCache(
                total_bytes=input_cache_bytes,
                line_bytes=scfg.l1d_line_bytes,
                assoc=input_cache_bytes // scfg.l1d_line_bytes,
            )

        self.cores = build_l1d_cores(
            self, new_cache, input_base_word=input_base_word,
            input_end_word=input_end_word, layout=layout,
            line_bytes=scfg.l1d_line_bytes, degree=scfg.prefetch_degree,
            name="l1d",
        )

    def collect(self) -> dict[str, float]:
        out = super().collect()
        # state hits + input-block reads all pay L1 energy in SSMC
        out["l1d_accesses"] = l1d_accesses(self.cores)
        out["row_miss_rate"] = self.mc.row_miss_rate()
        return out
