"""Deliberate fault injection for sanitizer verification (tests only).

Each injector corrupts a live component the way a real bug would - by
wrapping one of its bound methods on the *instance* - so the paired test
can prove the matching :mod:`repro.sanitize` invariant class actually
fires.  Injectors are one-shot: they arm once and corrupt at the first
opportunity.

=========================  =======================================
injector                   invariant class it must trip
=========================  =======================================
``skip_df``                ``df-consistency`` / ``df-head-evict``
``reorder_dram_command``   ``dram-timing``
``drop_reconv_pop``        ``simt-dropped-pop``
``stuck_clock``            ``dfs-range`` / ``dfs-unexpected-change``
``drop_barrier_arrival``   ``barrier-incomplete-generation``
``rearm_pft``              ``pft-retrigger``
``corrupt_event_time``     ``time-monotonicity``
``spin_livelock``          ``livelock``
=========================  =======================================

Never import this module from simulation code.
"""

from __future__ import annotations


class FaultInjector:
    """Arms one-shot corruptions against live components.

    ``injected`` records (fault name, detail) pairs once each corruption
    has actually happened, so tests can assert the fault fired at all.
    """

    def __init__(self) -> None:
        self.injected: list[tuple[str, str]] = []

    def _mark(self, name: str, detail: str) -> None:
        self.injected.append((name, detail))

    # ------------------------------------------------------------------
    def skip_df(self, pb) -> None:
        """Lose one DF increment: after the first corelet saturates its
        slab, silently decrement the entry's DF counter."""
        orig = pb._consume
        armed = [True]

        def consume(corelet_id, entry):
            orig(corelet_id, entry)
            if armed[0] and entry.df_count > 0:
                armed[0] = False
                entry.df_count -= 1
                self._mark("skip_df", f"row {entry.row}")

        pb._consume = consume

    def reorder_dram_command(self, mc) -> None:
        """Issue a CAS out of order: pretend a freshly activated bank's
        request had its data ready immediately, before tRCD+tCAS."""
        orig = mc._assign_banks
        armed = [True]

        def assign():
            orig()
            if not armed[0]:
                return
            for bank in mc.banks:
                req = bank.pending
                if req is not None and req.data_ready_ps > mc.engine.now:
                    armed[0] = False
                    req.data_ready_ps = mc.engine.now
                    self._mark("reorder_dram_command", repr(req))
                    return

        mc._assign_banks = assign

    def drop_reconv_pop(self, sm) -> None:
        """Drop one reconvergence pop: leave a reconverged frame on the
        first warp stack that should have popped."""
        orig = sm._pop_reconverged
        armed = [True]

        def pop(warp):
            stack = warp.stack
            if (armed[0] and len(stack) > 1
                    and stack[-1][1] == stack[-1][0]):
                armed[0] = False
                self._mark("drop_reconv_pop", f"warp {warp.wid}")
                return
            orig(warp)

        sm._pop_reconverged = pop

    def stuck_clock(self, engine, clock, *, freq_hz: float = 1.4e9,
                    delay_ps: int = 1000) -> None:
        """Force the compute clock to an out-of-range frequency mid-run."""

        def corrupt():
            self._mark("stuck_clock", f"{freq_hz / 1e6:.0f} MHz")
            clock.set_frequency(freq_hz)

        engine.schedule(delay_ps, corrupt)

    def drop_barrier_arrival(self, barrier) -> None:
        """Swallow the first barrier arrival so its generation can never
        complete (the classic missed-barrier deadlock)."""
        orig = barrier.arrive
        armed = [True]

        def arrive(core, slot):
            if armed[0]:
                armed[0] = False
                self._mark("drop_barrier_arrival", f"slot {slot}")
                return
            orig(core, slot)

        barrier.arrive = arrive

    def rearm_pft(self, pb) -> None:
        """Set an entry's PFT bit back after its trigger fired, so the
        next first-touch demand access re-triggers the prefetch."""
        orig = pb._try_trigger
        armed = [True]

        def trigger(entry):
            orig(entry)
            if armed[0] and not entry.pft:
                armed[0] = False
                entry.pft = True
                self._mark("rearm_pft", f"row {entry.row}")

        pb._try_trigger = trigger

    def corrupt_event_time(self, engine) -> None:
        """Rewind a queued event's timestamp into the past (heap
        corruption): it will be delivered after later-timestamped events."""
        heap = engine._heap
        for i in reversed(range(len(heap))):
            time, seq, fn, args = heap[i]
            if seq not in engine._cancelled and time > 0:
                heap[i] = (-1, seq, fn, args)
                self._mark("corrupt_event_time",
                           f"t={time}ps {getattr(fn, '__qualname__', fn)}")
                return
        raise RuntimeError("no future event to corrupt")

    def spin_livelock(self, engine) -> None:
        """Schedule an event that perpetually reschedules itself at the
        same timestamp, so simulated time never advances."""
        self._mark("spin_livelock", f"t={engine.now}ps")

        def spin():
            engine.schedule(0, spin)

        engine.schedule(0, spin)
