"""Event heap with integer-picosecond resolution.

Design notes
------------
* Time is an ``int`` number of picoseconds.  Integer time makes the two
  clock domains of the paper (700 MHz compute, 1.2 GHz memory channel, plus
  DFS-scaled compute clocks) compose without floating-point drift.
* Events at equal timestamps are delivered in scheduling order (a
  monotonically increasing sequence number breaks ties), which keeps runs
  deterministic.
* ``cancel`` is O(1): cancelled events stay in the heap but are skipped on
  pop (standard lazy deletion).
* Both execution backends run on this one binary heap.  A run keeps at
  most a few hundred events pending, where a heap's ``O(log n)`` push
  and pop are cheap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.  Returned by :meth:`Engine.schedule` so the
    caller can cancel it later."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time}ps fn={getattr(self.fn, '__qualname__', self.fn)}{state}>"


class Engine:
    """Minimal discrete-event kernel.

    >>> eng = Engine()
    >>> out = []
    >>> _ = eng.schedule(100, out.append, "b")
    >>> _ = eng.schedule(50, out.append, "a")
    >>> eng.run()
    2
    >>> out
    ['a', 'b']
    >>> eng.now
    100
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._live: int = 0  # number of non-cancelled events in the heap
        #: optional delivery observer: ``on_deliver(ev)`` fires before each
        #: callback and ``on_return(ev)`` (if defined) after it returns.
        #: Used by :mod:`repro.sanitize` for monotonicity checking / the
        #: livelock watchdog and by :mod:`repro.trace` for host profiling;
        #: attach via :func:`repro.engine.observer.attach_observer` so
        #: several observers compose.  Must not mutate state.
        self.observer = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute picosecond ``time``.

        ``time`` must not be in the engine's past; shared-state causality
        relies on it.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time}ps; engine is at t={self.now}ps")
        ev = Event(int(time), self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), fn, *args)

    def cancel(self, ev: Event) -> None:
        if not ev.cancelled:
            ev.cancelled = True
            self._live -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def _deliver(self, ev: Event) -> None:
        """Fire one event's callback, bracketed by the observer hooks."""
        obs = self.observer
        if obs is None:
            ev.fn(*ev.args)
            return
        obs.on_deliver(ev)
        ev.fn(*ev.args)
        hook = getattr(obs, "on_return", None)
        if hook is not None:
            hook(ev)

    def step(self) -> bool:
        """Deliver the next live event.  Returns ``False`` when idle."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._live -= 1
            self.now = ev.time
            self._deliver(ev)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` ps is reached, or
        ``max_events`` events have been delivered.  Returns the number of
        events delivered.

        With ``until`` given, the engine always finishes at ``max(now,
        until)`` - including when the heap drains early or was empty to
        begin with - so idle time is accounted consistently with the
        next-event-beyond-``until`` case.  Hitting ``max_events`` does not
        advance to ``until``: undelivered events remain in the window.
        """
        delivered = 0
        heap = self._heap
        while heap:
            ev = heap[0]
            if ev.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and ev.time > until:
                break
            if max_events is not None and delivered >= max_events:
                return delivered
            heapq.heappop(heap)
            self._live -= 1
            self.now = ev.time
            obs = self.observer
            if obs is None:
                ev.fn(*ev.args)
            else:
                obs.on_deliver(ev)
                ev.fn(*ev.args)
                hook = getattr(obs, "on_return", None)
                if hook is not None:
                    hook(ev)
            delivered += 1
        if until is not None and self.now < until:
            self.now = until
        return delivered
