"""Hierarchical statistics registry.

Every simulated component increments named counters on a shared
:class:`Stats` object; the experiment harness reads them to produce the
paper's tables (e.g. Table IV's "SSMC row miss rate" is
``dram.row_misses / dram.row_accesses``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterator


class Stats:
    """A flat namespace of counters with dotted names.

    >>> s = Stats()
    >>> s.inc("dram.row_hits")
    >>> s.inc("dram.row_hits", 2)
    >>> s["dram.row_hits"]
    3
    >>> s.ratio("dram.row_hits", "dram.row_hits")
    1.0
    """

    def __init__(self) -> None:
        self._counters: defaultdict[str, float] = defaultdict(float)
        #: names written via :meth:`set` - point-in-time gauges (final
        #: frequency, finish timestamp) that must not be summed on merge
        self._gauges: set[str] = set()

    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        """Write ``name`` as a *gauge*: a point-in-time value rather than
        an accumulating count.  Gauges keep last-write semantics under
        :meth:`merge` instead of being summed."""
        self._counters[name] = value
        self._gauges.add(name)

    def is_gauge(self, name: str) -> bool:
        return name in self._gauges

    def gauges(self) -> set[str]:
        """Names with gauge (last-write) merge semantics."""
        return set(self._gauges)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def ratio(self, num: str, den: str) -> float:
        """``num / den`` counter ratio; 0.0 when the denominator is zero,
        missing, or non-finite (a NaN counter must not poison reports).

        >>> s = Stats()
        >>> s.ratio("missing", "also_missing")
        0.0
        >>> s.set("bad", float("nan"))
        >>> s.ratio("bad", "bad")
        0.0
        """
        d = self._counters.get(den, 0.0)
        n = self._counters.get(num, 0.0)
        if not d or not math.isfinite(d) or not math.isfinite(n):
            return 0.0
        return n / d

    def scoped(self, prefix: str) -> "ScopedStats":
        """A view that prepends ``prefix.`` to every counter name."""
        return ScopedStats(self, prefix)

    def with_prefix(self, prefix: str) -> dict[str, float]:
        """All counters whose dotted name starts with ``prefix.``."""
        p = prefix + "."
        return {k: v for k, v in self._counters.items() if k.startswith(p)}

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._counters.items()))

    def as_dict(self) -> dict[str, float]:
        return dict(self._counters)

    @classmethod
    def from_dict(cls, counters: dict[str, float],
                  gauges: "set[str] | tuple[str, ...]" = ()) -> "Stats":
        """Rebuild a registry from :meth:`as_dict` output (e.g. the
        ``stats`` field of a deserialized :class:`RunResult`).  Pass the
        original registry's :meth:`gauges` to preserve last-write merge
        semantics across the round trip."""
        s = cls()
        for k, v in counters.items():
            s._counters[k] = v
        s._gauges.update(gauges)
        return s

    def sorted_dump(self) -> str:
        """Canonical text form: one ``name value`` line per counter, in
        sorted name order, with ``repr`` floats.  Equal registries always
        dump byte-identically regardless of counter insertion order, so
        this is what the determinism regression compares.

        >>> a, b = Stats(), Stats()
        >>> a.inc("x"); a.inc("y", 2.5)
        >>> b.inc("y", 2.5); b.inc("x")
        >>> a.sorted_dump() == b.sorted_dump()
        True
        """
        return "\n".join(f"{k} {v!r}" for k, v in sorted(self._counters.items()))

    def merge(self, other: "Stats") -> None:
        """Fold ``other`` into this registry: counters add, gauges take
        the incoming value (last write wins).  Summing gauge-style values
        written via :meth:`set` (e.g. final/mean DFS frequencies) would
        double-count them on aggregation.

        >>> a, b = Stats(), Stats()
        >>> a.inc("events", 3); b.inc("events", 2)
        >>> a.set("final_hz", 650e6); b.set("final_hz", 700e6)
        >>> a.merge(b)
        >>> a["events"], a["final_hz"]
        (5.0, 700000000.0)
        """
        for k, v in other._counters.items():
            if k in other._gauges or k in self._gauges:
                self._counters[k] = v
                self._gauges.add(k)
            else:
                self._counters[k] += v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stats {len(self._counters)} counters>"


class ScopedStats:
    """Prefix-applying proxy so a component can write ``inc("hits")`` and
    land on ``"l1d.hits"``."""

    __slots__ = ("_stats", "_prefix", "_counters", "_keys")

    def __init__(self, stats: Stats, prefix: str):
        self._stats = stats
        self._prefix = prefix
        self._counters = stats._counters
        #: name -> prefixed key, built once per name
        self._keys: dict[str, str] = {}

    # ScopedStats is the sanctioned prefixing mechanism: the prefix is
    # fixed at construction and callers pass literal names, so the
    # composed keys are deterministic even though they are not literals
    def inc(self, name: str, amount: float = 1) -> None:
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = f"{self._prefix}.{name}"
        self._counters[key] += amount

    def set(self, name: str, value: float) -> None:
        self._stats.set(f"{self._prefix}.{name}", value)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._stats.get(f"{self._prefix}.{name}", default)

    def __getitem__(self, name: str) -> float:
        return self._stats[f"{self._prefix}.{name}"]
