"""The sanitizer proper: per-component invariant checkers.

Every checker is an *observer*: it receives the hook calls a component
makes at its mechanism points (attached via
:func:`repro.engine.observer.attach_observer`, so it composes with other
observers such as the :mod:`repro.trace` tracer) and keeps its own shadow
state, so corruption of the component's internal bookkeeping is caught by
disagreement rather than trusted.  Checkers never mutate simulation
state, which is what guarantees a sanitized run is bit-identical to an
unsanitized one.

Invariant classes (the ``invariant`` field of a violation):

==============================  =========================================
``time-monotonicity``           events delivered in non-decreasing time
``livelock``                    watchdog: too many events without the
                                clock advancing
``dram-timing``                 tRP/tRCD/tRAS/tCAS ordering legality
``dram-window``                 FR-FCFS picked outside its queue window
``dram-bus-overlap``            two transfers overlapping on the bus
``dram-phantom-completion``     completion of a never-granted request
``pb-capacity``                 circular queue over-allocated
``pb-row-ordering``             rows not allocated sequentially
``pb-double-alloc`` / ``pb-double-fill``  entry lifecycle corruption
``pft-retrigger``               a PFT entry triggered more than once
``df-consistency``              DF counter disagrees with consumption
``df-head-evict``               head re-allocated before DF saturation
``fc-premature-evict``          premature eviction despite flow control
``slab-privacy``                corelet touched another corelet's slab
``simt-dropped-pop``            reconverged frame left on the stack
``simt-unbalanced-stack``       warp halted with stack depth != 1
``simt-mask``                   active mask empty or outside warp width
``barrier-overflow``            more arrivals than expected threads
``barrier-duplicate-arrival``   one thread arrived twice in a generation
``barrier-incomplete-generation``  run ended mid-generation
``dfs-range`` / ``dfs-step`` / ``dfs-debounce``  rate-matching legality
``dfs-unexpected-change``       frequency change without a controller
==============================  =========================================
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.observer import attach_observer
from repro.engine.stats import Stats

#: relative tolerance for floating-point frequency comparisons
_FREQ_EPS = 1e-9


class InvariantViolation(AssertionError):
    """A simulator invariant was broken.

    Carries enough context to debug without re-running: the dotted
    component path, the invariant class, the simulated time, and a
    snapshot of the sanitizer's shadow state at the moment of detection.
    """

    def __init__(self, component: str, invariant: str, message: str,
                 time_ps: int, snapshot: dict):
        self.component = component
        self.invariant = invariant
        self.time_ps = time_ps
        self.snapshot = snapshot
        super().__init__(
            f"[{invariant}] {component} @ t={time_ps}ps: {message}"
        )


class SimSanitizer:
    """Attachment hub + shared violation/bookkeeping machinery.

    >>> from repro.engine.events import Engine
    >>> san = SimSanitizer()
    >>> eng = Engine()
    >>> san.attach_engine(eng)
    >>> _ = eng.schedule(10, lambda: None)
    >>> eng.run()
    1
    >>> san.checks["time-monotonicity"]
    1
    """

    def __init__(self, *, watchdog_events: int = 5_000_000, trace_depth: int = 16):
        #: same-timestamp event deliveries tolerated before the livelock
        #: watchdog fires (progress = simulated time advancing)
        self.watchdog_events = watchdog_events
        #: per-invariant-class count of checks evaluated (not violations)
        self.checks: dict[str, int] = {}
        self._engine = None
        self._checkers: list = []
        self._trace: deque = deque(maxlen=trace_depth)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def tick(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    @property
    def now(self) -> int:
        return self._engine.now if self._engine is not None else 0

    def snapshot(self) -> dict:
        """Shadow-state summary captured into every violation."""
        snap: dict = {
            "time_ps": self.now,
            "checks": dict(self.checks),
            "recent_events": list(self._trace),
        }
        if self._engine is not None:
            snap["pending_events"] = self._engine.pending
        for c in self._checkers:
            snap[c.component] = c.summary()
        return snap

    def violation(self, component: str, invariant: str, message: str) -> None:
        raise InvariantViolation(component, invariant, message,
                                 self.now, self.snapshot())

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def _register(self, checker, target) -> None:
        attach_observer(target, checker)
        self._checkers.append(checker)

    def attach_engine(self, engine) -> None:
        self._engine = engine
        self._register(_EngineChecker(self, engine), engine)

    def attach_controller(self, mc) -> None:
        """``mc`` is a :class:`repro.dram.controller.MemoryController`."""
        self._register(_DramChecker(self, mc), mc)

    def attach_prefetch_buffer(self, pb, *, private_slabs: bool = True) -> None:
        """``private_slabs`` enforces that each consumption unit touches
        only its own slab slice; disable for interleaved traversals (the
        VWS row-oriented SM shares rows across warps)."""
        self._register(_PbChecker(self, pb, private_slabs), pb)

    def attach_simt(self, sm) -> None:
        """``sm`` is a :class:`repro.arch.gpgpu.GpgpuSM` (or subclass)."""
        self._register(_SimtChecker(self, sm), sm)

    def attach_barrier(self, barrier) -> None:
        self._register(_BarrierChecker(self, barrier), barrier)

    def attach_clock(self, clock, rate_cfg=None) -> None:
        """With ``rate_cfg`` (a :class:`repro.config.MillipedeConfig`),
        frequency changes are checked for range/step/debounce legality;
        without it any post-attach change is itself a violation."""
        self._register(_ClockChecker(self, clock, rate_cfg), clock)

    def attach_processor(self, proc) -> None:
        """Duck-typed attachment to every checkable part of ``proc``."""
        mc = getattr(proc, "mc", None)
        if mc is not None:
            self.attach_controller(mc)
        pb = getattr(proc, "prefetch_buffer", None)
        if pb is not None:
            self.attach_prefetch_buffer(pb, private_slabs=proc.private_slabs)
        if getattr(proc, "warps", None) is not None:
            self.attach_simt(proc)
        barrier = getattr(proc, "barrier", None)
        if barrier is not None:
            self.attach_barrier(barrier)
        clock = getattr(proc, "clock", None)
        if clock is not None:
            rate_cfg = None
            if getattr(proc, "rate_controller", None) is not None:
                rate_cfg = proc.config.millipede
            self.attach_clock(clock, rate_cfg)

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def finalize(self, proc=None) -> None:
        """Invariants only checkable once the event queue has drained."""
        for c in self._checkers:
            c.finalize(proc)

    def report(self) -> dict:
        """Post-run summary: which invariant classes were exercised."""
        return {"checks": dict(self.checks),
                "components": [c.component for c in self._checkers]}


class _Checker:
    """Base: component path + no-op finalize/summary."""

    def __init__(self, san: SimSanitizer, component: str):
        self.san = san
        self.component = component

    def fail(self, invariant: str, message: str) -> None:
        self.san.violation(self.component, invariant, message)

    def finalize(self, proc) -> None:  # pragma: no cover - overridden
        pass

    def summary(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# engine: monotonicity + livelock watchdog
# ----------------------------------------------------------------------
class _EngineChecker(_Checker):
    def __init__(self, san, engine):
        super().__init__(san, "engine")
        self.engine = engine
        self.last_time = engine.now
        self.events_at_time = 0
        self.delivered = 0

    def on_deliver(self, ev) -> None:
        self.san.tick("time-monotonicity")
        self.delivered += 1
        self.san._trace.append(
            (ev.time, getattr(ev.fn, "__qualname__", repr(ev.fn)))
        )
        if ev.time < self.last_time:
            self.fail(
                "time-monotonicity",
                f"event {ev!r} delivered at t={ev.time}ps after "
                f"t={self.last_time}ps",
            )
        if ev.time == self.last_time:
            self.events_at_time += 1
            if self.events_at_time > self.san.watchdog_events:
                self.fail(
                    "livelock",
                    f"{self.events_at_time} events delivered at "
                    f"t={ev.time}ps without time advancing "
                    f"(watchdog horizon {self.san.watchdog_events})",
                )
        else:
            self.last_time = ev.time
            self.events_at_time = 0

    def summary(self) -> dict:
        return {"delivered": self.delivered, "last_time_ps": self.last_time,
                "events_at_time": self.events_at_time}


# ----------------------------------------------------------------------
# DRAM controller: FR-FCFS + bank-timing legality
# ----------------------------------------------------------------------
class _DramChecker(_Checker):
    def __init__(self, san, mc):
        super().__init__(san, f"dram.{mc.stats._prefix}")
        self.mc = mc
        self.t = mc.timing
        #: granted-but-uncompleted transfers: req -> transfer end ps
        self.in_flight: dict = {}
        self.grants = 0
        self.completions = 0

    def on_bank_assign(self, bank_id, bank, req, window_idx,
                       prev_open, prev_act, now) -> None:
        t = self.t
        self.san.tick("dram-window")
        if not (0 <= window_idx < self.mc.cfg.controller_queue_depth):
            self.fail(
                "dram-window",
                f"bank {bank_id} bound queue position {window_idx}, outside "
                f"the {self.mc.cfg.controller_queue_depth}-deep FR-FCFS window",
            )
        self.san.tick("dram-timing")
        if req.bank != bank_id or bank.open_row != req.row:
            self.fail(
                "dram-timing",
                f"bank {bank_id} bound {req!r} but open_row={bank.open_row}",
            )
        # re-derive the activation lower bound from pre-mutation state:
        # precharge may not start before the bank frees and tRAS elapses,
        # and costs tRP only when a row was open
        pre_lb = max(now, bank.busy_until_ps, prev_act + t.t_ras_ps)
        act_lb = pre_lb + (t.t_rp_ps if prev_open is not None else 0)
        if bank.act_ps != act_lb:
            self.fail(
                "dram-timing",
                f"bank {bank_id} activation at {bank.act_ps}ps; tRP/tRAS "
                f"legality requires exactly {act_lb}ps",
            )
        if req.data_ready_ps != bank.act_ps + t.t_rcd_ps + t.t_cas_ps:
            self.fail(
                "dram-timing",
                f"{req!r} data_ready {req.data_ready_ps}ps != "
                f"ACT {bank.act_ps}ps + tRCD + tCAS",
            )

    def on_bus_grant(self, req, bank, data_start, end,
                     prev_bus_free, bound) -> None:
        t = self.t
        self.san.tick("dram-bus-overlap")
        if data_start < prev_bus_free:
            self.fail(
                "dram-bus-overlap",
                f"{req!r} starts its transfer at {data_start}ps while the "
                f"bus is busy until {prev_bus_free}ps",
            )
        self.san.tick("dram-timing")
        cas_lb = bank.act_ps + t.t_rcd_ps + t.t_cas_ps
        if data_start < cas_lb:
            self.fail(
                "dram-timing",
                f"{req!r} transfer at {data_start}ps before its row's "
                f"ACT+tRCD+tCAS bound {cas_lb}ps",
            )
        if data_start < req.arrival_ps:
            self.fail(
                "dram-timing",
                f"{req!r} served at {data_start}ps before its arrival "
                f"at {req.arrival_ps}ps",
            )
        self.grants += 1
        self.in_flight[req] = end

    def on_complete(self, req) -> None:
        self.san.tick("dram-phantom-completion")
        end = self.in_flight.pop(req, None)
        if end is None:
            self.fail(
                "dram-phantom-completion",
                f"{req!r} completed without a recorded bus grant",
            )
        self.completions += 1

    def finalize(self, proc) -> None:
        if self.in_flight:
            self.fail(
                "dram-phantom-completion",
                f"{len(self.in_flight)} granted transfers never completed",
            )

    def summary(self) -> dict:
        return {"grants": self.grants, "completions": self.completions,
                "in_flight": len(self.in_flight),
                "queue_len": len(self.mc.queue)}


# ----------------------------------------------------------------------
# prefetch buffer: circular-queue / PFT / DF / flow-control sanity
# ----------------------------------------------------------------------
class _PbShadow:
    __slots__ = ("consumed", "triggers_done", "filled")

    def __init__(self, consumed: list):
        self.consumed = consumed
        self.triggers_done = 0
        self.filled = False


class _PbChecker(_Checker):
    def __init__(self, san, pb, private_slabs: bool):
        super().__init__(san, f"mem.{pb.stats._prefix}")
        self.pb = pb
        self.private_slabs = private_slabs
        #: row -> shadow state, for every currently-allocated entry
        self.shadow: dict[int, _PbShadow] = {}
        self.allocs = 0
        self.evictions = 0
        self.premature = 0

    # -- lifecycle ------------------------------------------------------
    def on_alloc(self, entry) -> None:
        pb = self.pb
        self.san.tick("pb-capacity")
        if len(pb.entries) > pb.n_entries:
            self.fail(
                "pb-capacity",
                f"{len(pb.entries)} entries allocated in a "
                f"{pb.n_entries}-entry circular queue",
            )
        self.san.tick("pb-double-alloc")
        if entry.row in self.shadow:
            self.fail("pb-double-alloc", f"row {entry.row} allocated twice")
        self.san.tick("pb-row-ordering")
        if len(pb.entries) > 1 and entry.row != pb.entries[-2].row + 1:
            self.fail(
                "pb-row-ordering",
                f"row {entry.row} allocated after row {pb.entries[-2].row}; "
                "the stream must be sequential",
            )
        # entries can be born pre-consumed (fallback demand fetches that
        # raced ahead of allocation fold into the DF accounting)
        self.shadow[entry.row] = _PbShadow(list(entry.consumed))
        self.allocs += 1

    def on_fill(self, entry) -> None:
        self.san.tick("pb-double-fill")
        sh = self.shadow.get(entry.row)
        if sh is None:
            self.fail("pb-double-fill", f"fill for unallocated row {entry.row}")
        if sh.filled:
            self.fail("pb-double-fill", f"row {entry.row} filled twice")
        sh.filled = True

    def on_evict(self, head, premature: bool) -> None:
        pb = self.pb
        self.evictions += 1
        sh = self.shadow.pop(head.row, None)
        if premature:
            self.premature += 1
            self.san.tick("fc-premature-evict")
            if pb.flow_control:
                self.fail(
                    "fc-premature-evict",
                    f"row {head.row} evicted at DF={head.df_count} with flow "
                    "control on; the head may only be re-allocated saturated",
                )
        else:
            self.san.tick("df-head-evict")
            if head.df_count < pb.n_corelets:
                self.fail(
                    "df-head-evict",
                    f"row {head.row} evicted as saturated at "
                    f"DF={head.df_count} < {pb.n_corelets}",
                )
            if sh is not None:
                self._check_df(head, sh)

    # -- consumption ----------------------------------------------------
    def on_demand(self, corelet_id: int, addr: int) -> None:
        pb = self.pb
        if self.private_slabs:
            self.san.tick("slab-privacy")
            slab = (addr % pb.row_words) // pb.slab_words
            if slab != corelet_id:
                self.fail(
                    "slab-privacy",
                    f"corelet {corelet_id} demanded word {addr} in corelet "
                    f"{slab}'s slab of row {addr // pb.row_words}",
                )

    def on_consume(self, corelet_id: int, entry) -> None:
        pb = self.pb
        sh = self.shadow.get(entry.row)
        if sh is None:
            self.fail("df-consistency", f"consume on unallocated row {entry.row}")
        sh.consumed[corelet_id] += 1
        self.san.tick("df-consistency")
        if sh.consumed[corelet_id] != entry.consumed[corelet_id]:
            self.fail(
                "df-consistency",
                f"row {entry.row} corelet {corelet_id}: entry says "
                f"{entry.consumed[corelet_id]} words consumed, shadow says "
                f"{sh.consumed[corelet_id]}",
            )
        if sh.consumed[corelet_id] > pb.slab_words:
            self.fail(
                "df-consistency",
                f"corelet {corelet_id} consumed {sh.consumed[corelet_id]} "
                f"words of its {pb.slab_words}-word slab in row {entry.row}",
            )
        self._check_df(entry, sh)

    def _check_df(self, entry, sh: _PbShadow) -> None:
        expect = sum(1 for c in sh.consumed if c >= self.pb.slab_words)
        if entry.df_count != expect:
            self.fail(
                "df-consistency",
                f"row {entry.row} DF counter is {entry.df_count}; "
                f"{expect} corelets have finished their slabs",
            )

    def on_trigger(self, entry, done: bool) -> None:
        sh = self.shadow.get(entry.row)
        if done:
            self.san.tick("pft-retrigger")
            if sh is not None:
                sh.triggers_done += 1
                if sh.triggers_done > 1:
                    self.fail(
                        "pft-retrigger",
                        f"row {entry.row} fired its prefetch trigger "
                        f"{sh.triggers_done} times; PFT must trigger once",
                    )
        else:
            self.san.tick("fc-premature-evict")
            if not self.pb.flow_control:
                self.fail(
                    "fc-premature-evict",
                    f"row {entry.row} trigger deferred with flow control off",
                )

    def summary(self) -> dict:
        return {"occupancy": self.pb.occupancy, "allocs": self.allocs,
                "evictions": self.evictions, "premature": self.premature,
                "head_row": self.pb.head_row, "tail_row": self.pb.tail_row}


# ----------------------------------------------------------------------
# SIMT divergence stacks
# ----------------------------------------------------------------------
class _SimtChecker(_Checker):
    def __init__(self, san, sm):
        super().__init__(san, "arch.simt")
        self.sm = sm
        self.instrs = 0

    def on_warp_instr(self, warp) -> None:
        self.instrs += 1
        stack = warp.stack
        self.san.tick("simt-dropped-pop")
        if len(stack) > 1 and stack[-1][1] == stack[-1][0]:
            self.fail(
                "simt-dropped-pop",
                f"warp {warp.wid} issued with a reconverged frame on top "
                f"(pc == reconv_pc == {stack[-1][0]}, depth {len(stack)}); "
                "a reconvergence pop was dropped",
            )
        self.san.tick("simt-mask")
        mask = stack[-1][2]
        if mask == 0 or mask & ~warp.full_mask:
            self.fail(
                "simt-mask",
                f"warp {warp.wid} active mask {mask:#x} outside "
                f"(0, {warp.full_mask:#x}]",
            )

    def on_warp_done(self, warp) -> None:
        self.san.tick("simt-unbalanced-stack")
        if len(warp.stack) != 1:
            self.fail(
                "simt-unbalanced-stack",
                f"warp {warp.wid} halted with stack depth {len(warp.stack)}; "
                "divergence pushes were not balanced by reconvergence pops",
            )

    def finalize(self, proc) -> None:
        for warp in self.sm.warps:
            if warp.done and len(warp.stack) != 1:
                self.fail(
                    "simt-unbalanced-stack",
                    f"warp {warp.wid} finished with stack depth "
                    f"{len(warp.stack)}",
                )

    def summary(self) -> dict:
        return {"warp_instrs": self.instrs,
                "stack_depths": [len(w.stack) for w in self.sm.warps]}


# ----------------------------------------------------------------------
# barrier coordinator: generation counting
# ----------------------------------------------------------------------
class _BarrierChecker(_Checker):
    def __init__(self, san, barrier):
        super().__init__(san, "core.barrier")
        self.barrier = barrier
        #: (core id, slot) pairs seen in the current generation
        self.generation: set = set()
        self.generations = 0

    def on_arrive(self, core, slot, n_waiting, expected) -> None:
        self.san.tick("barrier-overflow")
        if n_waiting > expected:
            self.fail(
                "barrier-overflow",
                f"{n_waiting} arrivals waiting on an {expected}-thread barrier",
            )
        self.san.tick("barrier-duplicate-arrival")
        key = (id(core), slot)
        if key in self.generation:
            self.fail(
                "barrier-duplicate-arrival",
                f"core {getattr(core, 'core_id', '?')} slot {slot} arrived "
                f"twice in generation {self.generations}",
            )
        self.generation.add(key)

    def on_release(self, expected) -> None:
        self.san.tick("barrier-incomplete-generation")
        if len(self.generation) != expected:
            self.fail(
                "barrier-incomplete-generation",
                f"generation {self.generations} released with "
                f"{len(self.generation)}/{expected} distinct arrivals",
            )
        self.generation.clear()
        self.generations += 1

    def finalize(self, proc) -> None:
        self.san.tick("barrier-incomplete-generation")
        if self.generation:
            self.fail(
                "barrier-incomplete-generation",
                f"run ended with generation {self.generations} stuck at "
                f"{len(self.generation)} arrivals; the remaining threads "
                "never reached the barrier (deadlock)",
            )

    def summary(self) -> dict:
        return {"generations": self.generations,
                "waiting": len(self.generation)}


# ----------------------------------------------------------------------
# DFS clock: rate-matching legality
# ----------------------------------------------------------------------
class _ClockChecker(_Checker):
    def __init__(self, san, clock, rate_cfg):
        super().__init__(san, f"clock.{clock.name}")
        self.clock = clock
        self.rate_cfg = rate_cfg
        self.changes = 0
        self._last_change_ps: Optional[int] = None

    def on_set_frequency(self, clock, old_hz: float, new_hz: float) -> None:
        self.changes += 1
        cfg = self.rate_cfg
        if cfg is None:
            self.san.tick("dfs-unexpected-change")
            self.fail(
                "dfs-unexpected-change",
                f"frequency changed {old_hz / 1e6:.1f} -> "
                f"{new_hz / 1e6:.1f} MHz on a clock with no rate controller",
            )
            return
        self.san.tick("dfs-range")
        lo, hi = cfg.rate_match_min_hz, cfg.rate_match_max_hz
        if not (lo * (1 - _FREQ_EPS) <= new_hz <= hi * (1 + _FREQ_EPS)):
            self.fail(
                "dfs-range",
                f"frequency {new_hz / 1e6:.1f} MHz outside the DFS range "
                f"[{lo / 1e6:.0f}, {hi / 1e6:.0f}] MHz",
            )
        self.san.tick("dfs-step")
        if old_hz > 0 and abs(new_hz / old_hz - 1.0) > cfg.rate_match_step + _FREQ_EPS:
            self.fail(
                "dfs-step",
                f"frequency stepped {old_hz / 1e6:.1f} -> "
                f"{new_hz / 1e6:.1f} MHz; steps are limited to "
                f"±{cfg.rate_match_step:.0%}",
            )
        self.san.tick("dfs-debounce")
        now = self.san.now
        if (self._last_change_ps is not None
                and now - self._last_change_ps < cfg.rate_match_interval_ps):
            self.fail(
                "dfs-debounce",
                f"frequency changed {now - self._last_change_ps}ps after the "
                f"previous change; debounce interval is "
                f"{cfg.rate_match_interval_ps}ps",
            )
        self._last_change_ps = now

    def summary(self) -> dict:
        return {"freq_hz": self.clock.freq_hz, "changes": self.changes}
