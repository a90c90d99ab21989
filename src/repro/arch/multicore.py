"""Conventional multicore baseline for Fig. 5 (section VI-C).

An 8-core, 3.6 GHz, 4-issue, 4-way-SMT "Xeon-like" node with a cache
hierarchy and *off-chip* DRAM at one-fourth the die-stacked bandwidth and
70 pJ/bit [44].  The paper itself flags this comparison as apples-to-
oranges (few complex cores vs. thousands of simple ones); it is included
to quantify the end-to-end gap, with the caveats of section VI-C.

Modelling choices (documented in DESIGN.md):

* The 4-wide out-of-order issue is approximated by a 4-issue in-order SMT
  pipeline using a micro-cycle trick: the core clock runs at
  ``4 x 3.6 GHz`` with a 4-micro-cycle issue gap, so each of the four SMT
  contexts can issue once per *real* cycle and the core sustains up to
  IPC 4 when all contexts are ready.  Idle accounting is converted back to
  real cycles by the same factor.
* The L2 is not separately modelled: BMLA input streams miss every level
  by construction, and the live state fits in L1.
* Off-chip access adds a fixed pin/PCB latency and is billed 70 pJ/bit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.config import SystemConfig, WORD_BYTES
from repro.core.corelet import MimdCore
from repro.core.replay import build_plan
from repro.dram.controller import DramRequest, MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.dcache import SetAssocCache
from repro.mem.local_memory import LocalMemory
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, core_block_schedule


class OffchipController(MemoryController):
    """A DRAM channel reached over pins: extra fixed latency per access."""

    def __init__(self, engine: Engine, cfg, stats: Stats, extra_latency_ps: int,
                 name: str = "offchip"):
        super().__init__(engine, cfg, stats, name=name)
        self.extra_latency_ps = extra_latency_ps

    def _complete(self, req: DramRequest) -> None:
        self.stats.inc("completed")
        if self.observer is not None:
            self.observer.on_complete(req)
        if req.callback is not None:
            self.engine.schedule(self.extra_latency_ps, req.callback, req)
        self._kick()


class _XeonCore(MimdCore):
    """One multicore context bundle (4 SMT threads, 4-issue)."""

    def __init__(self, *args, prefetcher: SequentialPrefetcher, **kwargs):
        super().__init__(*args, **kwargs)
        self.prefetcher = prefetcher

    def _port(self):
        return self.prefetcher.demand_access, ()


class MulticoreProcessor:
    """The full 8-core node (one shared off-chip channel)."""

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
        mcfg = config.multicore

        # micro-cycle trick: clock x issue_width, gap = issue_width
        self.issue_width = mcfg.issue_width
        self.clock = Clock(mcfg.clock_hz * mcfg.issue_width, "multicore")
        core_like = dataclasses.replace(
            config.core,
            clock_hz=mcfg.clock_hz * mcfg.issue_width,
            n_cores=mcfg.n_cores,
            n_threads=mcfg.n_threads,
            issue_gap_cycles=mcfg.issue_width,
        )

        offchip_dram = dataclasses.replace(
            config.dram,
            channel_bytes_per_cycle=max(
                1, round(config.dram.channel_bytes_per_cycle * mcfg.offchip_bandwidth_fraction)
            ),
        )
        self.mc = OffchipController(
            engine, offchip_dram, stats, mcfg.offchip_extra_latency_ps, name="offchip"
        )
        stream = BlockStream(input_base_word, input_end_word)

        state_bytes = config.millipede.local_memory_bytes
        self._done_count = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None

        self.cores: list[_XeonCore] = []
        self.prefetchers: list[SequentialPrefetcher] = []
        for core_id in range(mcfg.n_cores):
            cache = SetAssocCache(mcfg.l1_bytes, mcfg.line_bytes, assoc=8)
            schedule = None
            if layout is not None:
                schedule = core_block_schedule(
                    base_word=layout.base,
                    n_fields=layout.n_fields,
                    block_records=layout.block_records,
                    n_blocks=layout.n_blocks,
                    core_id=core_id,
                    n_cores=mcfg.n_cores,
                    line_words=mcfg.line_bytes // WORD_BYTES,
                )
            pf = SequentialPrefetcher(
                engine, self.mc, cache, stream, stats,
                name=f"mc_l1_{core_id}", degree=4,
                schedule=schedule,
            )
            core = _XeonCore(
                engine,
                program,
                core_like,
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
        n_threads = self.config.multicore.n_threads
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
        expected = self.config.multicore.n_cores * self.config.multicore.n_threads
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
            for slot in range(self.config.multicore.n_threads):
                lo = slot * c.state_words
                out.append(c.local_mem.data[lo : lo + c.state_words].copy())
        return out

    def collect(self) -> dict[str, float]:
        instructions = sum(c.instructions for c in self.cores)
        return {
            "instructions": instructions,
            # convert micro-cycle idle counts back to real cycles
            "idle_cycles": sum(c.idle_cycles for c in self.cores) / self.issue_width,
            "branches": sum(c.dynamic_branches for c in self.cores),
            "l1d_accesses": sum(c.local_mem.accesses for c in self.cores)
            + sum(pf.cache.accesses for pf in self.prefetchers),
            "finish_ps": self.finish_ps or 0,
            "icache_fetches": instructions,
        }
