"""The processor shell shared by every MIMD architecture.

The paper keeps the SSMC cores and multithreading "identical to Millipede
corelets" (section V), and the conventional multicore runs the same core
model at a wider issue.  So Millipede, SSMC and the multicore differ only
in the input-data path each core's :meth:`MimdCore._port` reaches and in
the extras of :meth:`MimdProcessor.collect`.  :class:`MimdProcessor` owns
everything else: the launch state, plan loading, completion, the host
copy-out and the common counters.  A subclass builds its memory side,
fills ``cores`` (through :meth:`MimdProcessor._new_core`) and may start
its memory side in :meth:`MimdProcessor._start_memory`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import WORD_BYTES, CoreConfig, SystemConfig
from repro.core.corelet import MimdCore
from repro.core.replay import build_plan
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.mem.local_memory import LocalMemory


class MimdProcessor:
    """Simple multithreaded MIMD cores on one memory channel.

    Global thread *g* runs on core ``g // n_threads``, context
    ``g % n_threads``, where ``n_threads`` is the cores' ``cfg.n_threads``.
    """

    def __init__(self, engine: Engine, config: SystemConfig, program: Program,
                 global_mem: GlobalMemory, stats: Stats, core_cfg: CoreConfig,
                 clock_name: str, backend: str):
        if backend not in ("reference", "vector"):
            raise ValueError(f"unknown processor backend {backend!r}")
        # every core's scratchpad (SSMC / multicore: the L1's live-state
        # partition) is Millipede's local memory, split between its threads
        lm_bytes = config.millipede.local_memory_bytes
        self._lm_words = lm_bytes // WORD_BYTES
        if self._lm_words < core_cfg.n_threads:
            raise ValueError(
                f"millipede.local_memory_bytes={lm_bytes} gives "
                f"{core_cfg.n_threads} threads a "
                f"{self._lm_words // core_cfg.n_threads}-word state "
                "partition each; it must be at least 1 word "
                f"(>= {core_cfg.n_threads * WORD_BYTES} bytes)"
            )
        self.engine = engine
        self.config = config
        self.program = program
        self.global_mem = global_mem
        self.stats = stats
        self.backend = backend
        self.core_cfg = core_cfg
        self.clock = Clock(core_cfg.clock_hz, clock_name)
        self._thread_args = None
        self._initial_state = None
        self._done_count = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None
        self.cores: list[MimdCore] = []

    def _new_core(self, cls: type, core_id: int, **kwargs) -> MimdCore:
        """One core of class ``cls`` with its own scratchpad."""
        return cls(self.engine, self.program, self.core_cfg, self.clock,
                   LocalMemory(self._lm_words), core_id, self._core_done,
                   **kwargs)

    # ------------------------------------------------------------------
    # launch
    # ------------------------------------------------------------------
    def load_initial_state(self, state) -> None:
        """Preload every thread's live-state partition (host copy-in of
        constants such as centroids, section IV-E)."""
        self._initial_state = state
        for c in self.cores:
            if len(state) > c.state_words:
                raise ValueError(
                    f"initial state of {len(state)} words exceeds the "
                    f"{c.state_words}-word per-thread partition"
                )
            for slot in range(c.cfg.n_threads):
                lo = slot * c.state_words
                c.local_mem.data[lo : lo + len(state)] = state

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        """Record the kernel ABI registers for the functional phase, in
        global thread order (so the contexts of one Millipede corelet
        process records whose row slabs coincide)."""
        self._thread_args = args_per_thread
        expected = sum(c.cfg.n_threads for c in self.cores)
        if len(args_per_thread) != expected:
            raise ValueError(f"need {expected} thread-arg dicts, got {len(args_per_thread)}")

    def start(self) -> None:
        """Functional phase, then every core's replay.  The order is part
        of the result: same-time events run in scheduling order."""
        plan = build_plan(self, self.config.core.n_registers)
        for c in self.cores:
            c.load_plan(plan)
        self._start_memory()
        for c in self.cores:
            c.start()

    def _start_memory(self) -> None:
        """Hook: start the memory side once the plan is loaded, before
        the cores start."""

    # ------------------------------------------------------------------
    # completion and host copy-out (section IV-E)
    # ------------------------------------------------------------------
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

    def thread_states(self) -> list:
        """Per-global-thread live-state arrays, in global thread order."""
        out = []
        for c in self.cores:
            for slot in range(c.cfg.n_threads):
                lo = slot * c.state_words
                out.append(c.local_mem.data[lo : lo + c.state_words].copy())
        return out

    def collect(self) -> dict[str, float]:
        """Aggregate per-run numbers for the energy model and reports."""
        instructions = sum(c.instructions for c in self.cores)
        return {
            "instructions": instructions,
            "idle_cycles": sum(c.idle_cycles for c in self.cores),
            "branches": sum(c.dynamic_branches for c in self.cores),
            "finish_ps": self.finish_ps or 0,
            "icache_fetches": instructions,  # one fetch per core-instruction
        }
