"""GPGPU SM: SIMT execution with post-dominator divergence stacks.

Model summary (sections III-E and V):

* One SM with 32 lanes, 4-way warp contexts (128 threads), in-order issue,
  4-cycle issue gap per warp hidden by multithreading - identical compute
  resources to one Millipede processor / SSMC.
* **SIMT divergence**: each warp carries a PDOM reconvergence stack; a
  divergent data-dependent branch pushes taken/else paths that execute
  serially and reconverge at the immediate post-dominator (computed by
  :mod:`repro.isa.cfg`).  BMLA branches split ~70/30, so wide warps lose
  throughput - the GPGPU's core deficit in Fig. 3.
* **Live state** lives in banked shared memory, striped one thread per
  bank (conflict-free even for the indirect accesses; the striping is
  asserted by a property test) but paying bank + crossbar energy.
* **Input data** is sequentially cache-block-prefetched into the SM's
  32 KB L1D; warp loads coalesce perfectly with the interleaved layout
  (32 consecutive 4-byte words = one 128 B block), so the GPGPU enjoys
  good DRAM row locality - its Fig. 4 DRAM energy is *lower* than SSMC's.
* **Energy hooks**: instruction fetch is amortized per warp instruction
  (one I-cache access for all lanes); ALU energy is charged per *active*
  lane; inactive lanes under divergence and empty issue slots burn idle
  energy.
* **Execution**: warps share no mutable state, so what a warp computes
  never depends on timing.  :func:`repro.core.replay.build_simt_plan`
  computes every warp's issue trace before simulated time starts, and
  the SM replays the traces (:meth:`GpgpuSM._exec_warp`) under either
  backend.

The class is parameterized by warp width and issue slots so
:mod:`repro.arch.vws` can model Variable Warp Sizing (8 concurrent 4-wide
warps) and VWS-row (narrow warps + Millipede's row-oriented prefetch
buffer) on the same machinery.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import SystemConfig, WORD_BYTES
from repro.core.replay import build_simt_plan
from repro.dram.controller import MemoryController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.instructions import Op
from repro.isa.program import Program
from repro.isa.vector import K_LDG, SimtPlan
from repro.mem.dcache import SetAssocCache
from repro.mem.prefetcher import BlockStream, SequentialPrefetcher, sm_block_schedule
from repro.mem.shared_memory import BankedSharedMemory

_LDG = int(Op.LDG); _J = int(Op.J); _HALT = int(Op.HALT)
_BEQ = int(Op.BEQ); _BNEZ = int(Op.BNEZ)

_CHUNK_CYCLES = 8


class _Warp:
    """One warp's issue state; its PDOM reconvergence stack evolves only
    under an observer (see :meth:`GpgpuSM._exec_warp_observed`)."""

    __slots__ = ("wid", "stack", "ready_at", "blocked", "done", "full_mask")

    def __init__(self, wid: int, width: int, program_len: int):
        self.wid = wid
        self.full_mask = (1 << width) - 1
        #: stack of [reconv_pc, next_pc, mask]; bottom reconverges at exit
        self.stack: list[list[int]] = [[program_len, 0, self.full_mask]]
        self.ready_at = 0
        self.blocked = False
        self.done = False


class GpgpuSM:
    """One streaming multiprocessor on one die-stacked channel."""

    #: set False in subclasses that use the row-oriented prefetch buffer
    uses_l1d_input_path = True

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
        warp_width: Optional[int] = None,
        layout=None,
        backend: str = "reference",
    ):
        if backend not in ("reference", "vector"):
            raise ValueError(f"unknown SM backend {backend!r}")
        self.backend = backend
        self.engine = engine
        self.config = config
        self.program = program
        self.global_mem = global_mem
        self.stats = stats

        core_cfg = config.core
        gcfg = config.gpgpu
        self.n_lanes = core_cfg.n_cores
        self.width = warp_width if warp_width is not None else gcfg.warp_width
        if self.n_lanes % self.width:
            raise ValueError(f"{self.n_lanes} lanes not divisible by {self.width}-wide warps")
        #: narrow warps issue in parallel across lane slices (VWS)
        self.issue_slots = self.n_lanes // self.width
        self.n_threads_total = self.n_lanes * core_cfg.n_threads

        self.clock = Clock(core_cfg.clock_hz, "gpgpu")
        self.mc = MemoryController(engine, config.dram, stats, name="dram")

        self.shared_mem = BankedSharedMemory(
            gcfg.shared_memory_bytes // WORD_BYTES, gcfg.shared_memory_banks
        )
        self.state_words = gcfg.shared_memory_bytes // WORD_BYTES // self.n_threads_total

        if self.uses_l1d_input_path:
            cache = SetAssocCache(gcfg.l1d_bytes, gcfg.l1d_line_bytes, gcfg.l1d_assoc)
            schedule = None
            if layout is not None:
                # 100%-accurate stream prefetch along the SM's record-major
                # demand order (the paper grants all baselines this)
                schedule = sm_block_schedule(
                    base_word=layout.base,
                    n_fields=layout.n_fields,
                    block_records=layout.block_records,
                    n_blocks=layout.n_blocks,
                    n_threads=self.n_threads_total,
                    line_words=gcfg.l1d_line_bytes // WORD_BYTES,
                )
            self.prefetcher = SequentialPrefetcher(
                engine, self.mc, cache,
                BlockStream(input_base_word, input_end_word),
                stats, name="l1d", degree=gcfg.prefetch_degree,
                max_inflight=16, schedule=schedule,
            )
        else:  # pragma: no cover - exercised by VwsRowSM
            self.prefetcher = None
        self._input_base = input_base_word
        self._input_end = input_end_word

        n_warps = self.n_threads_total // self.width
        self.warps = [_Warp(w, self.width, len(program)) for w in range(n_warps)]

        self.t = 0
        self.pending = 0
        self._run_scheduled = False
        self._rr = 0
        self.finish_ps: Optional[int] = None
        self.on_finished: Optional[Callable[[], None]] = None
        #: optional SIMT observer (:mod:`repro.sanitize`); receives
        #: ``on_warp_instr(warp)`` before each warp instruction and
        #: ``on_warp_done(warp)`` at halt.  Must not mutate state.
        self.observer = None
        #: launch state for the functional phase
        self._thread_args: Optional[list] = None
        self._initial_state = None
        self._plan: Optional[SimtPlan] = None
        #: final per-thread live state, ``[T, state_words]``, set at finish
        self._local = None

        # accounting (the functional counters are restored at finish)
        self.instructions = 0
        self.branches = 0
        self.warp_instructions = 0      # I-cache fetches (amortized)
        self.active_lane_slots = 0      # ALU-energy units
        self.divergence_idle_slots = 0  # lanes masked off under divergence
        self.idle_lane_cycles = 0.0     # whole-SM stall cycles x lanes
        self.divergent_branches = 0
        self.uniform_branches = 0
        self.mem_transactions = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def load_initial_state(self, state) -> None:
        """Preload every thread's shared-memory state partition."""
        if len(state) > self.state_words:
            raise ValueError(
                f"initial state of {len(state)} words exceeds the "
                f"{self.state_words}-word per-thread partition"
            )
        self._initial_state = np.asarray(state, dtype=np.float64)

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        if len(args_per_thread) != self.n_threads_total:
            raise ValueError(
                f"need {self.n_threads_total} thread-arg dicts, got {len(args_per_thread)}"
            )
        self._thread_args = args_per_thread

    def start(self) -> None:
        """Run the functional phase, then replay its warp traces."""
        plan = build_simt_plan(self, self.config.core.n_registers)
        traces = plan.warp_traces
        self._plan = plan
        self._gaps = [tr.gaps for tr in traces]
        self._kinds = [tr.kinds for tr in traces]
        self._payloads = [tr.payloads for tr in traces]
        self._tmasks = [tr.tmasks for tr in traces]
        self._gap_rem = [(g[0] if g else 0) for g in self._gaps]
        self._ev = [0] * len(traces)   # next trace event
        self._ldg = [0] * len(traces)  # next load payload (observed)
        self._br = [0] * len(traces)   # next branch taken-mask (observed)
        if self.observer is not None:
            self._exec_warp = self._exec_warp_observed
        self._schedule_run(self.engine.now)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _schedule_run(self, at_ps: int) -> None:
        if not self._run_scheduled and self.finish_ps is None:
            self._run_scheduled = True
            self.engine.schedule_at(max(at_ps, self.engine.now), self._run)

    def _run(self) -> None:
        self._run_scheduled = False
        if self.finish_ps is not None:
            return
        period = self.clock.period_ps
        now = self.engine.now
        if now > self.t:
            self.idle_lane_cycles += (now - self.t) / period * self.n_lanes
            self.t = now
        t = self.t
        gap = self.cfg_issue_gap * period
        chunk_end = t + _CHUNK_CYCLES * period if self.pending else None
        warps = self.warps
        n = len(warps)

        while True:
            issued = 0
            start = self._rr
            scanned = 0
            while issued < self.issue_slots and scanned < n:
                w = warps[(start + scanned) % n]
                scanned += 1
                if w.done or w.blocked or w.ready_at > t:
                    continue
                issued += 1
                self._rr = (start + scanned) % n
                self._exec_warp(w, t)
                w.ready_at = t + gap

            if issued == 0:
                if all(w.done for w in warps):
                    self._finish(t)
                    return
                waiting = [w.ready_at for w in warps if not w.done and not w.blocked]
                if not waiting:
                    self.t = t
                    return  # all blocked on memory: resume via callback
                nt = min(waiting)
                self.idle_lane_cycles += (nt - t) / period * self.n_lanes
                t = nt
                continue

            # lane slices with no ready warp this cycle sit idle
            self.idle_lane_cycles += self.n_lanes - issued * self.width
            t += period
            if chunk_end is not None and t >= chunk_end:
                if self.pending:
                    self.t = t
                    self._schedule_run(t)
                    return
                chunk_end = None

    @property
    def cfg_issue_gap(self) -> int:
        return self.config.core.issue_gap_cycles

    # ------------------------------------------------------------------
    # warp issue: trace replay
    # ------------------------------------------------------------------
    def _exec_warp(self, warp: _Warp, t: int) -> None:
        """Issue one warp instruction off the warp's trace: use up a pure
        issue, or raise the recorded event (block on a global load with
        the recorded per-lane addresses, or retire the warp at halt)."""
        w = warp.wid
        g = self._gap_rem[w]
        if g:
            self._gap_rem[w] = g - 1
            return
        i = self._ev[w]
        self._ev[w] = i + 1
        gaps = self._gaps[w]
        self._gap_rem[w] = gaps[i + 1] if i + 1 < len(gaps) else 0
        if self._kinds[w][i] == K_LDG:
            self._block_on_load(warp, t, self._payloads[w][i][1])
        else:  # K_HALT
            warp.done = True

    def _exec_warp_observed(self, warp: _Warp, t: int) -> None:
        """The replay with an observer attached: also evolve the warp's
        live PDOM stack, one instruction at a time.

        The NumPy producer moves its stacks once per basic block, so the
        per-issue stack states the sanitizer checks (``simt-mask``,
        ``simt-dropped-pop``, ``simt-unbalanced-stack``) exist only if
        something replays the recorded branch taken-masks.  This does,
        under both backends, decoding the program at the stack's top PC;
        it also routes every pop through :meth:`_pop_reconverged`, which
        ``FaultInjector.drop_reconv_pop`` wraps.
        """
        self.observer.on_warp_instr(warp)
        top = warp.stack[-1]
        pc = top[1]
        ins = self.program.instrs[pc]
        op = int(ins.op)
        w = warp.wid

        if _BEQ <= op <= _BNEZ:
            i = self._br[w]
            self._br[w] = i + 1
            tm = self._tmasks[w][i]
            mask = top[2]
            if tm == mask or tm == 0:
                top[1] = ins.target if tm else pc + 1
            else:
                r = ins.reconv if ins.reconv is not None else len(self.program)
                top[1] = r  # this entry becomes the reconvergence point
                warp.stack.append([r, pc + 1, mask & ~tm])
                warp.stack.append([r, ins.target, tm])
        elif op == _HALT:
            warp.done = True
            self.observer.on_warp_done(warp)
            return
        elif op == _LDG:
            i = self._ldg[w]
            self._ldg[w] = i + 1
            top[1] = pc + 1
            self._block_on_load(warp, t, self._payloads[w][i][1])
        else:
            top[1] = ins.target if op == _J else pc + 1
        self._pop_reconverged(warp)

    def _pop_reconverged(self, warp: _Warp) -> None:
        stack = warp.stack
        while len(stack) > 1 and stack[-1][1] == stack[-1][0]:
            stack.pop()

    # ------------------------------------------------------------------
    # global-memory path
    # ------------------------------------------------------------------
    def _block_on_load(self, warp: _Warp, t: int, addr_lanes: list) -> None:
        warp.blocked = True
        self.pending += 1
        self.engine.schedule_at(t, self._issue_global, warp, addr_lanes)

    def _issue_global(self, warp: _Warp, addr_lanes: list[tuple[int, int]]) -> None:
        """Engine event at the load's issue time: demand the warp's words
        (the functional phase already committed the loaded values)."""
        def on_all_ready(ready_ps: int) -> None:
            warp.blocked = False
            self.pending -= 1
            warp.ready_at = ready_ps + self.clock.period_ps
            self._schedule_run(max(self.t, warp.ready_at))

        n_tx = self.prefetcher.demand_access_multi(
            [a for _, a in addr_lanes], on_all_ready)
        self.mem_transactions += n_tx
        if n_tx > 1:
            # port serialization: one extra cycle per extra transaction
            warp.ready_at += (n_tx - 1) * self.clock.period_ps

    # ------------------------------------------------------------------
    def _finish(self, t: int) -> None:
        """Install the functional phase's end state and counters, release
        the traces, then announce completion."""
        plan = self._plan
        self._local = plan.local
        self.instructions = int(plan.instr_count.sum())
        self.branches = int(plan.branches.sum())
        self.shared_mem.accesses = plan.shared_accesses
        self.warp_instructions = plan.warp_instructions
        self.active_lane_slots = plan.active_lane_slots
        self.divergence_idle_slots = plan.divergence_idle_slots
        self.divergent_branches = plan.divergent_branches
        self.uniform_branches = plan.uniform_branches
        self._plan = self._gaps = self._kinds = None
        self._payloads = self._tmasks = None
        self.finish_ps = t
        self.t = t
        self.stats.set("proc.finish_ps", t)
        if self.on_finished is not None:
            self.on_finished()

    @property
    def done(self) -> bool:
        return self.finish_ps is not None

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def thread_states(self) -> list:
        """Per-thread final state arrays (rows of the functional phase's
        live-state matrix)."""
        return list(self._local)

    def collect(self) -> dict[str, float]:
        out = {
            "instructions": self.instructions,
            "branches": self.branches,
            "warp_instructions": self.warp_instructions,
            "active_lane_slots": self.active_lane_slots,
            "divergence_idle_slots": self.divergence_idle_slots,
            "idle_cycles": self.idle_lane_cycles + self.divergence_idle_slots,
            "icache_fetches": self.warp_instructions,
            "shared_mem_accesses": self.shared_mem.accesses,
            "divergent_branches": self.divergent_branches,
            "uniform_branches": self.uniform_branches,
            "mem_transactions": self.mem_transactions,
            "finish_ps": self.finish_ps or 0,
            "simt_efficiency": (
                self.active_lane_slots
                / (self.active_lane_slots + self.divergence_idle_slots)
                if self.warp_instructions else 0.0
            ),
        }
        if self.prefetcher is not None:
            out["l1d_accesses"] = self.prefetcher.cache.accesses
        return out
