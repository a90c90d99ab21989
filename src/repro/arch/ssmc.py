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

from typing import Callable, Optional

from repro.config import SystemConfig, WORD_BYTES
from repro.core.corelet import MimdCore
from repro.core.replay import build_plan
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.dcache import SetAssocCache
from repro.mem.local_memory import LocalMemory
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, core_block_schedule


class _SsmcCore(MimdCore):
    """A simple core whose input port is its private L1D + prefetcher.

    Live state nominally resides in the L1 D-cache (section III-E); since
    BMLA state always fits (the paper sizes it so), state accesses are
    modelled as single-cycle L1 hits; ``collect`` bills the local
    memory's access count as L1 (not scratchpad) energy.
    """

    def __init__(self, *args, prefetcher: SequentialPrefetcher, **kwargs):
        super().__init__(*args, **kwargs)
        self.prefetcher = prefetcher

    def _port(self):
        return self.prefetcher.demand_access, ()


class SsmcProcessor:
    """One 32-core SSMC processor on one die-stacked channel."""

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        program: Program,
        global_mem: GlobalMemory,
        stats: Stats,
        *,
        input_base_word: int,
        input_end_word: int,
        layout=None,
        backend: str = "reference",
    ):
        # layout (an InterleavedLayout) enables the oracle stream prefetch
        # schedule the paper grants the MIMD baselines ("100%-accurate
        # sequential prefetch"); without it prefetching is next-block.
        self._layout = layout
        self.engine = engine
        self.config = config
        self.program = program
        self.global_mem = global_mem
        self.stats = stats
        if backend not in ("reference", "vector"):
            raise ValueError(f"unknown processor backend {backend!r}")
        self.backend = backend
        self._thread_args = None
        self._initial_state = None

        core_cfg = config.core
        scfg = config.ssmc
        self.clock = Clock(core_cfg.clock_hz, "ssmc")
        self.mc = MemoryController(engine, config.dram, stats, name="dram")
        stream = BlockStream(input_base_word, input_end_word)

        self._done_count = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None

        #: live state gets a partition equal to Millipede's local memory;
        #: the remaining 1 KB of the 5 KB L1 caches input blocks
        state_bytes = config.millipede.local_memory_bytes
        input_cache_bytes = scfg.l1d_bytes - state_bytes
        if input_cache_bytes <= 0:
            raise ValueError(
                f"L1D ({scfg.l1d_bytes}B) cannot hold the {state_bytes}B "
                "live state plus input blocks"
            )

        self.cores: list[_SsmcCore] = []
        self.prefetchers: list[SequentialPrefetcher] = []
        for core_id in range(core_cfg.n_cores):
            # the input region behaves as a fully-associative stream buffer:
            # a core's per-record stream strides across the field regions
            # (stride = one row per field), so set-indexed placement would
            # alias the whole stream into one set and thrash
            cache = SetAssocCache(
                total_bytes=input_cache_bytes,
                line_bytes=scfg.l1d_line_bytes,
                assoc=input_cache_bytes // scfg.l1d_line_bytes,
            )
            schedule = None
            if layout is not None:
                schedule = core_block_schedule(
                    base_word=layout.base,
                    n_fields=layout.n_fields,
                    block_records=layout.block_records,
                    n_blocks=layout.n_blocks,
                    core_id=core_id,
                    n_cores=core_cfg.n_cores,
                    line_words=scfg.l1d_line_bytes // WORD_BYTES,
                )
            pf = SequentialPrefetcher(
                engine, self.mc, cache, stream, stats,
                name=f"l1d{core_id}", degree=scfg.prefetch_degree,
                schedule=schedule,
            )
            core = _SsmcCore(
                engine,
                program,
                core_cfg,
                self.clock,
                LocalMemory(state_bytes // WORD_BYTES),
                core_id,
                self._core_done,
                prefetcher=pf,
            )
            self.cores.append(core)
            self.prefetchers.append(pf)

    # ------------------------------------------------------------------
    def load_initial_state(self, state) -> None:
        """Preload every thread's live-state partition with constants."""
        self._initial_state = state
        n_threads = self.config.core.n_threads
        for c in self.cores:
            if len(state) > c.state_words:
                raise ValueError(
                    f"initial state of {len(state)} words exceeds the "
                    f"{c.state_words}-word per-thread partition"
                )
            for slot in range(n_threads):
                lo = slot * c.state_words
                c.local_mem.data[lo : lo + len(state)] = state

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        self._thread_args = args_per_thread
        expected = self.config.core.n_cores * self.config.core.n_threads
        if len(args_per_thread) != expected:
            raise ValueError(f"need {expected} thread-arg dicts, got {len(args_per_thread)}")

    def start(self) -> None:
        plan = build_plan(self, self.config.core.n_registers)
        for c in self.cores:
            c.load_plan(plan)
        for c in self.cores:
            c.start()

    def _core_done(self, core: MimdCore) -> None:
        self._done_count += 1
        if self._done_count == len(self.cores):
            self.finish_ps = max(c.finish_ps for c in self.cores)
            self.stats.set("proc.finish_ps", self.finish_ps)
            if self.on_finished is not None:
                self.on_finished()

    @property
    def done(self) -> bool:
        return self._done_count == len(self.cores)

    # ------------------------------------------------------------------
    def thread_states(self) -> list:
        out = []
        for c in self.cores:
            for slot in range(self.config.core.n_threads):
                lo = slot * c.state_words
                out.append(c.local_mem.data[lo : lo + c.state_words].copy())
        return out

    def collect(self) -> dict[str, float]:
        instructions = sum(c.instructions for c in self.cores)
        return {
            "instructions": instructions,
            "idle_cycles": sum(c.idle_cycles for c in self.cores),
            "branches": sum(c.dynamic_branches for c in self.cores),
            # state hits + input-block reads all pay L1 energy in SSMC
            "l1d_accesses": sum(c.local_mem.accesses for c in self.cores)
            + sum(pf.cache.accesses for pf in self.prefetchers),
            "finish_ps": self.finish_ps or 0,
            "icache_fetches": instructions,
            "row_miss_rate": self.mc.row_miss_rate(),
        }
