"""The tracer proper: timeline sampling + host profiling observers.

Mirrors the :class:`repro.sanitize.SimSanitizer` attachment pattern -
``attach_engine`` then ``attach_processor`` - but every attachment goes
through :func:`repro.engine.observer.attach_observer`, so the tracer and
the sanitizer compose on the same run.

Three read-only instruments:

* :class:`_HostProfiler` (engine observer) times each delivered event's
  callback with ``perf_counter_ns`` and aggregates per event-class
  (callback qualname) - where the *simulator* spends host time;
* a clock observer records every DFS transition as an instant event;
* :class:`TimelineSampler` snapshots component state (prefetch-buffer
  occupancy/PFT/DF, DFS frequency, DRAM bank state and queue depth,
  per-corelet instruction counts) at a fixed simulated-time cadence -
  where the *simulated machine* spends simulated time.

The sampler schedules its own events on the engine being observed.  They
read state only, and the sampler stops rescheduling once no other live
event remains, so a traced run performs exactly the component work of an
untraced one and produces byte-identical statistics.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.engine.observer import attach_observer
from repro.trace.export import TraceResult

#: default simulated-time sampling cadence (100 ns; a few thousand samples
#: for a typical hundreds-of-microseconds run)
DEFAULT_INTERVAL_PS = 100_000


class _HostProfiler:
    """Engine observer: host wall-clock per delivered event class."""

    __slots__ = ("_t0_ns", "profile")

    def __init__(self) -> None:
        self._t0_ns = 0
        #: callback qualname -> [count, total host ns]
        self.profile: dict[str, list] = {}

    def on_deliver(self, ev) -> None:
        self._t0_ns = time.perf_counter_ns()

    def on_return(self, ev) -> None:
        dt = time.perf_counter_ns() - self._t0_ns
        key = getattr(ev.fn, "__qualname__", None) or repr(ev.fn)
        cell = self.profile.get(key)
        if cell is None:
            self.profile[key] = [1, dt]
        else:
            cell[0] += 1
            cell[1] += dt


class TimelineSampler:
    """Snapshots registered probes at a fixed simulated-time cadence.

    Probes are zero-argument callables returning a scalar (or a list for
    per-unit series such as per-corelet instruction counts).  The sampler
    takes one synchronous sample at :meth:`start` and then samples every
    ``interval_ps`` of simulated time; it stops rescheduling as soon as it
    is the only live event left, so it never extends a run.
    """

    def __init__(self, engine, interval_ps: int = DEFAULT_INTERVAL_PS):
        self.engine = engine
        self.interval_ps = max(1, int(interval_ps))
        self._probes: list[tuple[str, Callable[[], object]]] = []
        self.samples: list[dict] = []
        self._started = False

    def add_probe(self, name: str, fn: Callable[[], object]) -> None:
        self._probes.append((name, fn))

    def start(self) -> None:
        if self._started or not self._probes:
            return
        self._started = True
        self._sample()
        self.engine.schedule(self.interval_ps, self._tick)

    def _tick(self) -> None:
        self._sample()
        # self's event has already been popped: pending counts only other
        # live events, so 0 means the simulation is over
        if self.engine.pending > 0:
            self.engine.schedule(self.interval_ps, self._tick)

    def _sample(self) -> None:
        row: dict = {"time_ps": self.engine.now}
        for name, fn in self._probes:
            row[name] = fn()
        self.samples.append(row)


class SimTracer:
    """Attachment hub for one traced run.

    >>> from repro.engine.events import Engine
    >>> tr = SimTracer()
    >>> eng = Engine()
    >>> tr.attach_engine(eng)
    >>> _ = eng.schedule(10, lambda: None)
    >>> eng.run()
    1
    >>> list(tr.result().host_profile) != []
    True
    """

    def __init__(self, *, interval_ps: int = DEFAULT_INTERVAL_PS):
        self.interval_ps = interval_ps
        self._engine = None
        self._profiler = _HostProfiler()
        self._sampler: Optional[TimelineSampler] = None

        #: (time_ps, clock_name, old_hz, new_hz) DFS transitions
        self.freq_changes: list[tuple[int, str, float, float]] = []

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        self._engine = engine
        attach_observer(engine, self._profiler)
        self._sampler = TimelineSampler(engine, self.interval_ps)

    def attach_processor(self, proc) -> None:
        """Duck-typed attachment: probe every timeline source ``proc``
        has (the same introspection contract as the sanitizer's
        ``attach_processor``)."""
        if self._sampler is None:
            raise RuntimeError("attach_engine must be called first")
        s = self._sampler
        pb = getattr(proc, "prefetch_buffer", None)
        if pb is not None:
            s.add_probe("pb.occupancy", lambda: pb.occupancy)
            s.add_probe("pb.head_row", lambda: pb.head_row)
            s.add_probe("pb.tail_row", lambda: pb.tail_row)
            s.add_probe("pb.pft_pending",
                        lambda: sum(1 for e in pb.entries if e.pft))
            s.add_probe("pb.df_total",
                        lambda: sum(e.df_count for e in pb.entries))
        mc = getattr(proc, "mc", None)
        if mc is not None:
            s.add_probe("dram.queue_depth", lambda: len(mc.queue))
            s.add_probe("dram.banks_open", lambda: sum(
                1 for b in mc.banks if b.open_row is not None))
            s.add_probe("dram.banks_bound", lambda: sum(
                1 for b in mc.banks if b.pending is not None))
            s.add_probe("dram.bus_busy", lambda: int(
                mc.bus_free_ps > self._engine.now))
        clock = getattr(proc, "clock", None)
        if clock is not None:
            attach_observer(clock, self)
            s.add_probe("dfs.freq_hz", lambda: clock.freq_hz)
        units = getattr(proc, "cores", None)
        if units:
            s.add_probe("corelet.instructions",
                        lambda: [c.instructions for c in units])
        warps = getattr(proc, "warps", None)
        if warps:
            s.add_probe("warps.active",
                        lambda: sum(1 for w in warps if not w.done))
        s.start()

    # ------------------------------------------------------------------
    # clock observer hook
    # ------------------------------------------------------------------
    def on_set_frequency(self, clock, old_hz: float, new_hz: float) -> None:
        now = self._engine.now if self._engine is not None else 0
        self.freq_changes.append((now, clock.name, old_hz, new_hz))

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def result(self, meta: Optional[dict] = None) -> TraceResult:
        """Package everything observed so far as a :class:`TraceResult`."""
        full_meta = dict(meta or {})
        full_meta.setdefault("interval_ps", self.interval_ps)
        profile = {
            key: {"count": count, "host_ns": host_ns}
            for key, (count, host_ns) in self._profiler.profile.items()
        }
        return TraceResult(
            meta=full_meta,
            samples=list(self._sampler.samples) if self._sampler else [],
            freq_changes=list(self.freq_changes),
            host_profile=profile,
        )
