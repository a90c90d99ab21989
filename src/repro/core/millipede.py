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

from typing import Callable, Optional

from repro.config import SystemConfig, WORD_BYTES
from repro.core.corelet import MimdCore
from repro.core.flow_control import BarrierCoordinator
from repro.core.rate_match import RateMatchController
from repro.core.replay import build_plan
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.local_memory import LocalMemory
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


class MillipedeProcessor:
    """One Millipede processor attached to one die-stacked channel."""

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
        mcfg = config.millipede
        row_words = config.dram.row_words
        if input_base_word % row_words or input_end_word % row_words:
            raise ValueError(
                "input region must be row-aligned (the data generator pads "
                f"to whole rows); got [{input_base_word}, {input_end_word}) "
                f"with {row_words}-word rows"
            )

        self.clock = Clock(core_cfg.clock_hz, "millipede")
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

        lm_words = mcfg.local_memory_bytes // WORD_BYTES
        self._done_count = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None
        self.corelets = [
            _MillipedeCorelet(
                engine,
                program,
                core_cfg,
                self.clock,
                LocalMemory(lm_words),
                core_id,
                self._corelet_done,
                prefetch_buffer=self.prefetch_buffer,
                barrier=self.barrier,
            )
            for core_id in range(core_cfg.n_cores)
        ]

        self._input_base = input_base_word
        self._input_end = input_end_word

    # ------------------------------------------------------------------
    def load_initial_state(self, state) -> None:
        """Preload every thread's live-state partition (host copy-in of
        constants such as centroids, section IV-E)."""
        self._initial_state = state
        n_threads = self.config.core.n_threads
        for c in self.corelets:
            if len(state) > c.state_words:
                raise ValueError(
                    f"initial state of {len(state)} words exceeds the "
                    f"{c.state_words}-word per-thread partition"
                )
            for slot in range(n_threads):
                lo = slot * c.state_words
                c.local_mem.data[lo : lo + len(state)] = state

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        """Record the kernel ABI registers for the functional phase; global
        thread *g* runs on corelet ``g // n_threads``, context
        ``g % n_threads`` - so the four
        contexts of a corelet process records whose row slabs coincide."""
        self._thread_args = args_per_thread
        expected = self.config.core.n_cores * self.config.core.n_threads
        if len(args_per_thread) != expected:
            raise ValueError(f"need {expected} thread-arg dicts, got {len(args_per_thread)}")

    def start(self) -> None:
        plan = build_plan(self, self.config.core.n_registers)
        for c in self.corelets:
            c.load_plan(plan)
        row_words = self.config.dram.row_words
        self.prefetch_buffer.start(
            self._input_base // row_words,
            self._input_end // row_words - 1,
        )
        for c in self.corelets:
            c.start()

    # ------------------------------------------------------------------
    def _corelet_done(self, corelet: MimdCore) -> None:
        self._done_count += 1
        if self._done_count == len(self.corelets):
            self.finish_ps = max(c.finish_ps for c in self.corelets)
            self.stats.set("proc.finish_ps", self.finish_ps)
            if self.on_finished is not None:
                self.on_finished()

    @property
    def done(self) -> bool:
        return self._done_count == len(self.corelets)

    # ------------------------------------------------------------------
    # result extraction (host copy-out, section IV-E)
    # ------------------------------------------------------------------
    def thread_states(self) -> list:
        """Per-global-thread live-state arrays, in global thread order."""
        out = []
        for c in self.corelets:
            for slot in range(self.config.core.n_threads):
                lo = slot * c.state_words
                out.append(c.local_mem.data[lo : lo + c.state_words].copy())
        return out

    # ------------------------------------------------------------------
    def collect(self) -> dict[str, float]:
        """Aggregate per-run numbers for the energy model / reports."""
        instructions = sum(c.instructions for c in self.corelets)
        idle_cycles = sum(c.idle_cycles for c in self.corelets)
        local_accesses = sum(c.local_mem.accesses for c in self.corelets)
        branches = sum(c.dynamic_branches for c in self.corelets)
        out = {
            "instructions": instructions,
            "idle_cycles": idle_cycles,
            "local_accesses": local_accesses,
            "branches": branches,
            "finish_ps": self.finish_ps or 0,
            "icache_fetches": instructions,  # one fetch per core-instruction
        }
        if self.rate_controller is not None and self.finish_ps:
            out["rate_match_final_hz"] = self.rate_controller.final_freq_hz
            out["rate_match_mean_hz"] = self.rate_controller.mean_freq_hz(self.finish_ps)
            out["rate_match_history"] = [list(h) for h in self.rate_controller.history]
        return out
