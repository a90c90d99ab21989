"""The Millipede processor (section IV).

A Millipede processor = 32 simple MIMD corelets + one flow-controlled,
cross-corelet row prefetch buffer + (optionally) the coarse-grain
rate-matching DFS controller, sitting on one die-stacked memory channel.

The three Fig. 3/4 variants map to constructor flags (all from
:class:`repro.config.MillipedeConfig`):

==============================  =========================================
paper configuration             flags
==============================  =========================================
Millipede                       ``flow_control=True``
Millipede-no-flow-control       ``flow_control=False``
Millipede + rate matching       ``flow_control=True, rate_match=True``
software-barrier ablation       ``record_barriers=True`` (kernel emits
                                ``bar`` per record; flow control off)
==============================  =========================================
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig, WORD_BYTES
from repro.core.corelet import MimdCore
from repro.core.flow_control import BarrierCoordinator
from repro.core.processor import MimdProcessor
from repro.core.rate_match import RateMatchController
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.prefetch_buffer import PrefetchBuffer


class _MillipedeCorelet(MimdCore):
    """A corelet whose input-data port is the shared prefetch buffer."""

    def __init__(self, *args, prefetch_buffer: PrefetchBuffer,
                 barrier: Optional[BarrierCoordinator] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.prefetch_buffer = prefetch_buffer
        self.barrier = barrier

    def _port(self):
        return self.prefetch_buffer.demand_access, (self.core_id,)

    def _barrier_hook(self, slot: int) -> None:
        if self.barrier is None:
            raise RuntimeError(
                "kernel contains `bar` but record_barriers is disabled"
            )
        self.barrier.arrive(self, slot)


class MillipedeProcessor(MimdProcessor):
    """One Millipede processor attached to one die-stacked channel."""

    #: chunked traversal: each corelet reads only its own slab of a
    #: prefetch-buffer row (the sanitizer's ``slab-privacy`` invariant)
    private_slabs = True

    def __init__(self, engine: Engine, config: SystemConfig, program: Program,
                 global_mem: GlobalMemory, stats: Stats, *, input_base_word: int,
                 input_end_word: int, layout=None, backend: str = "reference"):
        core_cfg = config.core
        super().__init__(engine, config, program, global_mem, stats,
                         core_cfg, "millipede", backend)
        mcfg = config.millipede
        row_words = config.dram.row_words
        if input_base_word % row_words or input_end_word % row_words:
            raise ValueError(
                "input region must be row-aligned (the data generator pads "
                f"to whole rows); got [{input_base_word}, {input_end_word}) "
                f"with {row_words}-word rows"
            )

        self.mc = MemoryController(engine, config.dram, stats, name="dram")
        self.prefetch_buffer = PrefetchBuffer(
            engine,
            self.mc,
            stats,
            n_corelets=core_cfg.n_cores,
            n_entries=mcfg.prefetch_entries,
            row_words=row_words,
            flow_control=mcfg.flow_control,
            demand_block_words=mcfg.slab_bytes // WORD_BYTES,
            prefetch_ahead=mcfg.prefetch_ahead,
            record_row_span=layout.n_fields if layout is not None else 1,
        )

        self.rate_controller: Optional[RateMatchController] = None
        if mcfg.rate_match:
            self.rate_controller = RateMatchController(engine, self.clock, mcfg, stats)
            self.prefetch_buffer.on_empty_wait = self.rate_controller.empty_signal
            self.prefetch_buffer.on_full_defer = self.rate_controller.full_signal

        self.barrier: Optional[BarrierCoordinator] = None
        if mcfg.record_barriers:
            self.barrier = BarrierCoordinator(stats)
            self.barrier.set_expected(core_cfg.n_cores * core_cfg.n_threads)

        self.cores = [
            self._new_core(_MillipedeCorelet, core_id,
                           prefetch_buffer=self.prefetch_buffer,
                           barrier=self.barrier)
            for core_id in range(core_cfg.n_cores)
        ]
        self._input_rows = (input_base_word // row_words,
                            input_end_word // row_words - 1)

    def _start_memory(self) -> None:
        self.prefetch_buffer.start(*self._input_rows)

    def collect(self) -> dict[str, float]:
        out = super().collect()
        out["local_accesses"] = sum(c.local_mem.accesses for c in self.cores)
        if self.rate_controller is not None and self.finish_ps:
            out["rate_match_final_hz"] = self.rate_controller.final_freq_hz
            out["rate_match_mean_hz"] = self.rate_controller.mean_freq_hz(self.finish_ps)
            out["rate_match_history"] = [list(h) for h in self.rate_controller.history]
        return out
