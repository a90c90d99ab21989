"""Generic simple MIMD core with small-scale hardware multithreading.

One :class:`MimdCore` models a Millipede corelet, an SSMC core, or (with a
wider issue) one conventional-multicore context - the paper deliberately
keeps the pipelines identical across the PNM architectures (section V) so
that performance differences isolate the *memory* optimizations.

The core is the timing phase of both execution backends.  Threads share
no mutable state, so what a thread computes never depends on timing: the
functional phase (:func:`repro.core.replay.build_plan`) runs every thread
to completion first and records its issue trace (pure-issue gaps between
global loads, barriers and the final halt).  The core then replays those
traces in simulated time.

Timing model
------------
* In-order, single-issue; after a thread issues, it may not issue again for
  ``issue_gap_cycles`` (the pipeline depth that the 4 hardware contexts are
  there to hide, section IV-A).  With all 4 threads ready the core sustains
  IPC 1; when threads block on memory, issue bubbles appear and are counted
  as idle cycles (they burn the "idle dynamic energy" of Fig. 4).
* Local (live-state) accesses are single-cycle scratchpad/L1 hits: pure
  issues in the trace.
* Global (input-data) accesses are *shared-state* interactions: they are
  scheduled onto the event heap at the core's local timestamp, and the core
  continues running its other threads inline only in bounded chunks while
  accesses are outstanding, so cross-core state (prefetch buffer, DRAM
  queue) is always touched in global time order with bounded skew.

Subclasses provide the global-access port (prefetch buffer for Millipede,
L1D+prefetcher for SSMC) by overriding :meth:`_port`; a global load is one
engine event that calls the port directly.

State the replay never touches per issue (local-memory contents and
counters, the branch count) is restored from the plan in :meth:`_finish`,
before the completion callback runs, so end-of-run consumers
(``collect``, ``thread_states``, validation, energy) see the values the
threads computed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.config import CoreConfig
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.isa.vector import K_BAR, K_LDG, VectorPlan
from repro.mem.local_memory import LocalMemory

#: how far a core may run ahead inline while global accesses are pending
#: (bounds cross-component timestamp skew; in compute cycles)
_CHUNK_CYCLES = 8


class MimdCore:
    """One simple multithreaded core."""

    def __init__(
        self,
        engine: Engine,
        program: Program,
        cfg: CoreConfig,
        clock: Clock,
        local_mem: LocalMemory,
        core_id: int,
        on_done: Callable[["MimdCore"], None],
        stats: Optional[Stats] = None,
    ):
        self.engine = engine
        self.program = program
        self.cfg = cfg
        self.clock = clock
        self.local_mem = local_mem
        self.core_id = core_id
        self.on_done = on_done

        n = cfg.n_threads
        #: per-thread earliest next issue time (ps)
        self.ready_at = [0] * n
        #: per-thread blocked-on-memory / blocked-on-barrier / halted flags
        self.blocked = [False] * n
        self.at_barrier = [False] * n
        self.halted = [False] * n
        self._n_halted = 0
        #: round-robin scan order from each start slot; ``_orders[n]`` is
        #: ``_orders[0]``, so the slot after ``s`` is ``s + 1`` unwrapped
        self._orders = [tuple((k + i) % n for i in range(n)) for k in range(n + 1)]

        #: thread-private live-state partition of the corelet's scratchpad
        self.state_words = local_mem.n_words // n

        self.t = 0  # local time (ps)
        self.pending = 0  # outstanding global accesses
        self.done = False
        self._run_scheduled = False
        self._rr = 0  # round-robin pointer
        self._plan: Optional[VectorPlan] = None

        # accounting
        self.idle_cycles = 0.0
        self.issued = 0
        self.branches = 0
        self.finish_ps: Optional[int] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def load_plan(self, plan: VectorPlan) -> None:
        """Adopt this core's slice of the functional plan (global thread
        ``core_id * n_threads + slot`` maps to local ``slot``)."""
        n = self.cfg.n_threads
        base = self.core_id * n
        self._plan = plan
        self._gaps = [plan.traces[base + s].gaps for s in range(n)]
        self._kinds = [plan.traces[base + s].kinds for s in range(n)]
        self._addrs = [plan.traces[base + s].addrs for s in range(n)]
        self._gap_rem = [(g[0] if g else 0) for g in self._gaps]
        self._ev_idx = [0] * n
        self._port_fn, self._port_head = self._port()
        self._on_ready = [partial(self._global_done, s) for s in range(n)]

    def start(self) -> None:
        if self._plan is None:
            raise RuntimeError("core started without a plan; "
                               "the processor must call load_plan() first")
        self._schedule_run(self.engine.now)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _schedule_run(self, at_ps: int) -> None:
        if not self._run_scheduled and not self.done:
            self._run_scheduled = True
            self.engine.schedule_at(max(at_ps, self.engine.now), self._run)

    def _run(self) -> None:
        self._run_scheduled = False
        if self.done:
            return
        period = self.clock.period_ps
        now = self.engine.now
        if now > self.t:
            # the core sat blocked from self.t to now: idle cycles
            self.idle_cycles += (now - self.t) / period
            self.t = now
        t = self.t
        gap = self.cfg.issue_gap_cycles * period
        chunk_end = t + _CHUNK_CYCLES * period if self.pending else None

        ready_at = self.ready_at
        blocked = self.blocked
        halted = self.halted
        orders = self._orders
        n = len(ready_at)
        gap_rem = self._gap_rem
        ev_idx = self._ev_idx
        all_gaps = self._gaps
        all_kinds = self._kinds
        all_addrs = self._addrs
        on_ready = self._on_ready
        port = self._port_fn
        head = self._port_head
        schedule_at = self.engine.schedule_at
        issued = self.issued
        rr = self._rr
        # the barrel fast path below leaps whole rotations; it is only
        # valid when a thread's re-ready gap equals one full rotation
        dense = gap == n * period

        while True:
            # -- dense-rotation leap -----------------------------------
            # With no memory op in flight (no chunking) and every thread
            # mid-gap and ready exactly at its barrel slot, the next
            # K = min(gap_rem) rotations are fully determined: thread at
            # rotation position i issues at t + (r*n + i)*period and is
            # re-ready exactly one rotation later.  Leap all K rotations
            # in O(n): the per-issue loop below would produce the very
            # same t/_rr/ready_at/issued trajectory with no idle
            # terms and no engine interaction, so every observable -
            # including the float ``idle_cycles`` sum - is untouched.
            if dense and chunk_end is None:
                order = orders[rr]
                k_min = 0
                slot_t = t  # t + i*period for rotation position i
                for s in order:
                    g = gap_rem[s]
                    if g == 0 or halted[s] or blocked[s] or ready_at[s] > slot_t:
                        k_min = 0
                        break
                    if k_min == 0 or g < k_min:
                        k_min = g
                    slot_t += period
                if k_min:
                    leap = k_min * n * period
                    slot_t = t + leap
                    for s in order:
                        gap_rem[s] -= k_min
                        ready_at[s] = slot_t
                        slot_t += period
                    issued += k_min * n
                    t += leap
                    # at least one thread's next issue is now its event;
                    # fall through to the per-issue loop for that
            # -- pick a ready thread, round-robin ----------------------
            for slot in orders[rr]:
                if ready_at[slot] <= t and not blocked[slot] and not halted[slot]:
                    break
            else:
                # publish the loop's locals before either exit below
                self.issued = issued
                self._rr = rr % n
                if self._n_halted == n:
                    self._finish(t)
                    return
                # threads exist but none issuable: either waiting on memory
                # (resume via callback) or in an issue-gap bubble
                nt = None
                for s in range(n):
                    if not halted[s] and not blocked[s]:
                        r = ready_at[s]
                        if nt is None or r < nt:
                            nt = r
                if nt is None:
                    self.t = t
                    return  # all blocked on memory/barrier: sleep
                self.idle_cycles += (nt - t) / period
                t = nt
                continue

            rr = slot + 1  # orders[n] is orders[0]
            issued += 1
            ready_at[slot] = t + gap

            g = gap_rem[slot]
            if g:
                # a pure issue: ALU/branch/jump/local-memory, one cycle,
                # no core interaction (functional effects already applied)
                gap_rem[slot] = g - 1
            else:
                i = ev_idx[slot]
                kind = all_kinds[slot][i]
                ev_idx[slot] = i + 1
                gaps = all_gaps[slot]
                gap_rem[slot] = gaps[i + 1] if i + 1 < len(gaps) else 0
                if kind == K_LDG:
                    blocked[slot] = True
                    self.pending += 1
                    schedule_at(t, port, *head, all_addrs[slot][i], on_ready[slot])
                    if chunk_end is None:
                        chunk_end = t + _CHUNK_CYCLES * period
                elif kind == K_BAR:
                    blocked[slot] = True
                    self.at_barrier[slot] = True
                    schedule_at(t, self._barrier_hook, slot)
                else:  # K_HALT
                    halted[slot] = True
                    self._n_halted += 1

            t += period
            if chunk_end is not None and t >= chunk_end:
                if self.pending:
                    self.t = t
                    self.issued = issued
                    self._rr = rr % n
                    # re-enter at t (>= engine.now); nothing in this call
                    # could have scheduled a run already
                    self._run_scheduled = True
                    schedule_at(t, self._run)
                    return
                chunk_end = None

    # ------------------------------------------------------------------
    # memory paths
    # ------------------------------------------------------------------
    def _port(self) -> tuple[Callable[..., None], tuple]:
        """Architecture hook: the input-data port as ``(method, head)``.
        A global load of word ``addr`` by ``slot`` is the engine event
        ``method(*head, addr, on_ready)`` at the load's issue time, and
        the port must eventually call ``on_ready(ready_ps, ...)``, which
        is :meth:`_global_done` bound to ``slot``."""
        raise NotImplementedError

    def _global_done(self, slot: int, ready_ps: int, _code: object = None) -> None:
        """The load's data is available at ``ready_ps``: wake the thread
        (the functional phase already committed the loaded word).  Ports
        that report a result code pass it as ``_code``; it is unused."""
        self.blocked[slot] = False
        self.pending -= 1
        # one extra cycle to move the word from the buffer into the register
        ready = ready_ps + self.clock.period_ps
        self.ready_at[slot] = ready
        if not self._run_scheduled and not self.done:
            self._run_scheduled = True
            engine = self.engine
            at = self.t if self.t > ready else ready
            engine.schedule_at(at if at > engine.now else engine.now, self._run)

    # ------------------------------------------------------------------
    # barriers (software-barrier ablation)
    # ------------------------------------------------------------------
    def _barrier_hook(self, slot: int) -> None:
        """Engine event: report this thread's barrier arrival to the
        processor-level coordinator (overridden where supported)."""
        raise NotImplementedError(
            "this architecture does not implement software barriers"
        )

    def barrier_release(self, slot: int) -> None:
        """Called by the processor when the barrier opens."""
        self.blocked[slot] = False
        self.at_barrier[slot] = False
        self.ready_at[slot] = max(self.ready_at[slot], self.engine.now)
        self._schedule_run(max(self.t, self.engine.now))

    # ------------------------------------------------------------------
    def _finish(self, t: int) -> None:
        """Restore the functionally maintained state, release the plan,
        then announce completion (the processor's done callback may
        inspect us)."""
        plan = self._plan
        n = self.cfg.n_threads
        base = self.core_id * n
        self.branches = int(plan.branches[base : base + n].sum())
        lm = self.local_mem
        sw = self.state_words
        for s in range(n):
            lm.data[s * sw : s * sw + sw] = plan.local[base + s]
        lm.reads = int(plan.local_reads[base : base + n].sum())
        lm.writes = int(plan.local_writes[base : base + n].sum())
        self._plan = self._gaps = self._kinds = self._addrs = None
        self._on_ready = self._port_fn = None
        self.done = True
        self.finish_ps = t
        self.t = t
        # drop the callback first: it is a bound method of the processor,
        # which holds this core, and a finished run must be freed by
        # reference counting, not left as a cycle for the cyclic GC
        on_done, self.on_done = self.on_done, None
        on_done(self)

    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        return self.issued

    @property
    def dynamic_branches(self) -> int:
        return self.branches
