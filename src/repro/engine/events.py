"""Event heap with integer-picosecond resolution.

Design notes
------------
* Time is an ``int`` number of picoseconds.  Integer time makes the two
  clock domains of the paper (700 MHz compute, 1.2 GHz memory channel, plus
  DFS-scaled compute clocks) compose without floating-point drift.
* Events at equal timestamps are delivered in scheduling order (a
  monotonically increasing sequence number breaks ties), which keeps runs
  deterministic.
* The heap holds plain ``(time, seq, fn, args)`` tuples, so every heap
  comparison runs in C; ``seq`` is unique, so ``fn`` is never compared.
* ``cancel`` records the entry's ``seq`` in a set; cancelled entries stay
  in the heap and are dropped when they reach its top.
* Observers see an :class:`Event` view of each delivered entry, built
  only while an observer is attached.
* Both execution backends run on this one binary heap.  A run keeps at
  most a few hundred events pending, where a heap's ``O(log n)`` push
  and pop are cheap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: a queued entry, and the handle ``schedule`` returns: (time, seq, fn, args)
Entry = tuple


class Event:
    """Read-only view of a delivered entry, handed to engine observers."""

    __slots__ = ("time", "seq", "fn", "args")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event t={self.time}ps fn={getattr(self.fn, '__qualname__', self.fn)}>"


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
        self._heap: list[Entry] = []
        self._seq: int = 0
        #: seqs of cancelled entries still in the heap
        self._cancelled: set[int] = set()
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
    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` at absolute picosecond ``time``.

        ``time`` must not be in the engine's past; shared-state causality
        relies on it.  Returns a handle for :meth:`cancel`.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time}ps; engine is at t={self.now}ps")
        entry = (int(time), self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), fn, *args)

    def cancel(self, entry: Entry) -> None:
        """Drop a queued entry.  Cancelling one that was already delivered
        or cancelled does nothing.  Costs a scan of the heap."""
        seq = entry[1]
        if seq not in self._cancelled and entry in self._heap:
            self._cancelled.add(seq)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - len(self._cancelled)

    def _pop_cancelled(self) -> None:
        """Drop cancelled entries from the top of the heap."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle."""
        self._pop_cancelled()
        return self._heap[0][0] if self._heap else None

    def _deliver(self, entry: Entry) -> None:
        """Fire one entry's callback, bracketed by the observer hooks."""
        time, seq, fn, args = entry
        self.now = time
        obs = self.observer
        if obs is None:
            fn(*args)
            return
        ev = Event(time, seq, fn, args)
        obs.on_deliver(ev)
        fn(*args)
        hook = getattr(obs, "on_return", None)
        if hook is not None:
            hook(ev)

    def step(self) -> bool:
        """Deliver the next live event.  Returns ``False`` when idle."""
        self._pop_cancelled()
        if not self._heap:
            return False
        self._deliver(heapq.heappop(self._heap))
        return True

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
        cancelled = self._cancelled
        pop = heapq.heappop
        if until is None and max_events is None:
            # fast loop: no window, no observer, no cancelled entries.  A
            # callback that cancels or attaches an observer hands the rest
            # of the run to the general loop below.
            while heap and not cancelled and self.observer is None:
                self.now, _, fn, args = pop(heap)
                fn(*args)
                delivered += 1
        while heap:
            if heap[0][1] in cancelled:
                self._pop_cancelled()
                continue
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and delivered >= max_events:
                return delivered
            self._deliver(pop(heap))
            delivered += 1
        if until is not None and self.now < until:
            self.now = until
        return delivered
