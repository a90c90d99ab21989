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

from repro.arch.ssmc import build_l1d_cores, l1d_accesses
from repro.config import SystemConfig
from repro.core.processor import MimdProcessor
from repro.dram.controller import DramRequest, MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.dcache import SetAssocCache


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


class MulticoreProcessor(MimdProcessor):
    """The full 8-core node (one shared off-chip channel); each core is
    one context bundle (4 SMT threads, 4-issue)."""

    def __init__(self, engine: Engine, config: SystemConfig, program: Program,
                 global_mem: GlobalMemory, stats: Stats, *, input_base_word: int,
                 input_end_word: int, layout=None, backend: str = "reference"):
        mcfg = config.multicore
        # micro-cycle trick: clock x issue_width, gap = issue_width
        self.issue_width = mcfg.issue_width
        core_like = dataclasses.replace(
            config.core,
            clock_hz=mcfg.clock_hz * mcfg.issue_width,
            n_cores=mcfg.n_cores,
            n_threads=mcfg.n_threads,
            issue_gap_cycles=mcfg.issue_width,
        )
        super().__init__(engine, config, program, global_mem, stats,
                         core_like, "multicore", backend)

        offchip_dram = dataclasses.replace(
            config.dram,
            channel_bytes_per_cycle=max(
                1, round(config.dram.channel_bytes_per_cycle * mcfg.offchip_bandwidth_fraction)
            ),
        )
        self.mc = OffchipController(
            engine, offchip_dram, stats, mcfg.offchip_extra_latency_ps, name="offchip"
        )
        self.cores = build_l1d_cores(
            self, lambda: SetAssocCache(mcfg.l1_bytes, mcfg.line_bytes, assoc=8),
            input_base_word=input_base_word, input_end_word=input_end_word,
            layout=layout, line_bytes=mcfg.line_bytes, degree=4,
            name="mc_l1_",
        )

    def collect(self) -> dict[str, float]:
        out = super().collect()
        # convert micro-cycle idle counts back to real cycles
        out["idle_cycles"] /= self.issue_width
        out["l1d_accesses"] = l1d_accesses(self.cores)
        return out
