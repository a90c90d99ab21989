"""Unit tests for the discrete-event kernel, clocks, and stats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine.clock import Clock, period_ps
from repro.engine.events import Engine
from repro.engine.observer import ObserverChain, attach_observer, detach_observer
from repro.engine.stats import Stats


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        out = []
        eng.schedule(300, out.append, "c")
        eng.schedule(100, out.append, "a")
        eng.schedule(200, out.append, "b")
        eng.run()
        assert out == ["a", "b", "c"]
        assert eng.now == 300

    def test_equal_timestamps_fifo(self):
        eng = Engine()
        out = []
        for i in range(10):
            eng.schedule(50, out.append, i)
        eng.run()
        assert out == list(range(10))

    def test_schedule_from_callback(self):
        eng = Engine()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                eng.schedule(10, chain, n + 1)

        eng.schedule(0, chain, 0)
        eng.run()
        assert out == [0, 1, 2, 3]
        assert eng.now == 30

    def test_cancel(self):
        eng = Engine()
        out = []
        ev = eng.schedule(100, out.append, "dead")
        eng.schedule(200, out.append, "alive")
        eng.cancel(ev)
        eng.run()
        assert out == ["alive"]

    def test_pending_counts_live_events(self):
        eng = Engine()
        ev = eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        assert eng.pending == 2
        eng.cancel(ev)
        assert eng.pending == 1

    def test_schedule_in_past_rejected(self):
        eng = Engine()
        eng.schedule(100, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None)

    def test_run_until(self):
        eng = Engine()
        out = []
        eng.schedule(100, out.append, 1)
        eng.schedule(500, out.append, 2)
        eng.run(until=200)
        assert out == [1]
        assert eng.now == 200
        eng.run()
        assert out == [1, 2]

    def test_run_until_advances_idle_engine(self):
        # regression: an empty heap used to leave `now` untouched, so
        # idle time was accounted differently from the events-beyond-
        # `until` case
        eng = Engine()
        assert eng.run(until=500) == 0
        assert eng.now == 500

    def test_run_until_advances_past_last_event(self):
        eng = Engine()
        out = []
        eng.schedule(100, out.append, 1)
        assert eng.run(until=300) == 1
        assert out == [1]
        assert eng.now == 300  # drained early: still finishes at `until`

    def test_run_until_never_rewinds_time(self):
        eng = Engine()
        eng.schedule(400, lambda: None)
        eng.run()
        assert eng.now == 400
        assert eng.run(until=100) == 0
        assert eng.now == 400  # until in the past must not move time back

    def test_max_events_does_not_advance_to_until(self):
        eng = Engine()
        eng.schedule(100, lambda: None)
        eng.schedule(200, lambda: None)
        assert eng.run(until=900, max_events=1) == 1
        assert eng.now == 100  # an undelivered event remains in the window
        assert eng.pending == 1

    def test_peek_time_skips_cancelled(self):
        eng = Engine()
        ev = eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        eng.cancel(ev)
        assert eng.peek_time() == 20

    def test_equal_time_uncomparable_callbacks_keep_scheduling_order(self):
        # the heap's tie-break is the sequence number, so callbacks (and
        # arguments) that do not support ``<`` are never compared
        class Box:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self, out):
                out.append(self.tag)

        eng = Engine()
        out = []
        for tag in ("a", "b", "c"):
            eng.schedule(50, Box(tag), out)
        eng.schedule(50, lambda box: out.append(box.tag), Box("d"))
        assert eng.run() == 4
        assert out == ["a", "b", "c", "d"]

    def test_observer_sees_event_view(self):
        class Recorder:
            def __init__(self):
                self.seen = []

            def on_deliver(self, ev):
                self.seen.append(("deliver", ev.time, ev.seq, ev.fn, ev.args))

            def on_return(self, ev):
                self.seen.append(("return", ev.time, ev.seq))

        eng = Engine()
        rec = Recorder()
        attach_observer(eng, rec)
        out = []
        eng.schedule(30, out.append, "x")
        eng.schedule(10, out.append, "y")
        eng.run()
        assert out == ["y", "x"]
        assert rec.seen == [
            ("deliver", 10, 1, out.append, ("y",)), ("return", 10, 1),
            ("deliver", 30, 0, out.append, ("x",)), ("return", 30, 0),
        ]

    def test_cancel_one_of_two_equal_time_entries(self):
        eng = Engine()
        out = []
        first = eng.schedule(100, out.append, "first")
        eng.schedule(100, out.append, "second")
        eng.cancel(first)
        assert eng.pending == 1
        assert eng.peek_time() == 100
        assert eng.run() == 1
        assert out == ["second"]
        assert eng.pending == 0

    def test_cancel_delivered_or_twice_is_a_noop(self):
        eng = Engine()
        ev = eng.schedule(10, lambda: None)
        eng.run()
        eng.cancel(ev)
        assert eng.pending == 0
        ev = eng.schedule(10, lambda: None)
        eng.cancel(ev)
        eng.cancel(ev)
        assert eng.pending == 0 and eng.run() == 0

    def test_cancel_from_a_callback(self):
        eng = Engine()
        out = []
        later = eng.schedule(20, out.append, "cancelled")
        eng.schedule(10, eng.cancel, later)
        eng.schedule(30, out.append, "kept")
        assert eng.run() == 2
        assert out == ["kept"]

    def test_step(self):
        eng = Engine()
        out = []
        eng.schedule(10, out.append, "x")
        assert eng.step() is True
        assert out == ["x"]
        assert eng.step() is False

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    def test_delivery_order_matches_sorted_times(self, delays):
        eng = Engine()
        fired = []
        for i, d in enumerate(delays):
            eng.schedule(d, lambda i=i, d=d: fired.append((d, i)))
        eng.run()
        assert fired == sorted(fired)  # time-major, FIFO within a timestamp


class TestClock:
    def test_period_rounding(self):
        assert period_ps(1e12) == 1
        assert period_ps(700e6) == 1429  # 1428.57 rounds to 1429

    def test_period_positive_required(self):
        with pytest.raises(ValueError):
            period_ps(0)

    def test_cycle_conversion_roundtrip(self):
        c = Clock(1.2e9)
        assert c.ps_to_cycles(c.cycles_to_ps(17)) == 17

    def test_dfs_changes_period(self):
        c = Clock(700e6)
        p0 = c.period_ps
        c.set_frequency(350e6)
        assert c.period_ps == pytest.approx(2 * p0, rel=0.01)

    def test_charge_cycles_tracks_per_frequency(self):
        c = Clock(700e6)
        c.charge_cycles(100)
        c.set_frequency(350e6)
        c.charge_cycles(50)
        assert c.cycle_log[700e6] == 100
        assert c.cycle_log[350e6] == 50
        assert c.total_cycles == 150


class TestStats:
    def test_inc_and_get(self):
        s = Stats()
        s.inc("a.b")
        s.inc("a.b", 4)
        assert s["a.b"] == 5

    def test_missing_is_zero(self):
        assert Stats()["nope"] == 0.0

    def test_ratio_zero_denominator(self):
        assert Stats().ratio("x", "y") == 0.0

    def test_scoped_prefixes(self):
        s = Stats()
        sc = s.scoped("dram")
        sc.inc("hits", 3)
        assert s["dram.hits"] == 3
        assert sc["hits"] == 3

    def test_with_prefix_filters(self):
        s = Stats()
        s.inc("a.x")
        s.inc("a.y", 2)
        s.inc("b.z")
        assert s.with_prefix("a") == {"a.x": 1, "a.y": 2}

    def test_merge(self):
        a, b = Stats(), Stats()
        a.inc("k", 1)
        b.inc("k", 2)
        b.inc("only_b", 5)
        a.merge(b)
        assert a["k"] == 3 and a["only_b"] == 5

    def test_set_marks_gauge(self):
        s = Stats()
        s.inc("counter", 2)
        s.set("gauge", 7.0)
        assert s.is_gauge("gauge") and not s.is_gauge("counter")
        assert s.gauges() == {"gauge"}

    def test_merge_keeps_gauge_last_write(self):
        # regression: gauge-style counters written via set() (final DFS
        # frequency, finish timestamps) were summed across shards
        a, b = Stats(), Stats()
        a.set("ratematch.final_hz", 650e6)
        b.set("ratematch.final_hz", 700e6)
        a.inc("events", 3)
        b.inc("events", 2)
        a.merge(b)
        assert a["ratematch.final_hz"] == 700e6  # not 1350e6
        assert a["events"] == 5
        assert a.is_gauge("ratematch.final_hz")

    def test_merge_gauge_known_to_either_side(self):
        # a gauge the destination knows but the (deserialized) source
        # lost track of still takes the incoming value, not the sum
        a, b = Stats(), Stats()
        a.set("g", 1.0)
        b.inc("g", 2.0)  # plain counter write on the incoming side
        a.merge(b)
        assert a["g"] == 2.0

    def test_from_dict_restores_gauges(self):
        s = Stats()
        s.set("g", 5.0)
        s.inc("c", 1)
        r = Stats.from_dict(s.as_dict(), gauges=s.gauges())
        assert r.is_gauge("g") and not r.is_gauge("c")
        r.merge(Stats.from_dict(s.as_dict(), gauges=s.gauges()))
        assert r["g"] == 5.0 and r["c"] == 2.0


class _Recorder:
    """Observer stub: records (hook, args) tuples into a shared log."""

    def __init__(self, tag, log, hooks=("on_deliver",)):
        self._tag = tag
        self._log = log
        for hook in hooks:
            setattr(self, hook,
                    lambda *a, _h=hook: self._log.append((self._tag, _h, a)))


class TestObserverChain:
    def test_fan_out_in_attachment_order(self):
        log = []
        chain = ObserverChain(_Recorder("a", log), _Recorder("b", log))
        chain.on_deliver("ev")
        assert log == [("a", "on_deliver", ("ev",)), ("b", "on_deliver", ("ev",))]

    def test_children_receive_only_their_hooks(self):
        log = []
        chain = ObserverChain(_Recorder("a", log),
                              _Recorder("b", log, hooks=("on_deliver", "on_return")))
        chain.on_return("ev")
        assert log == [("b", "on_return", ("ev",))]
        chain.on_nobody_implements_this("x")  # cached no-op, no error

    def test_add_invalidates_cached_dispatch(self):
        log = []
        chain = ObserverChain(_Recorder("a", log))
        chain.on_deliver(1)  # caches the single-child fast path
        chain.add(_Recorder("b", log))
        chain.on_deliver(2)
        assert [tag for tag, _, _ in log] == ["a", "a", "b"]

    def test_remove_and_empty_chain(self):
        log = []
        a, b = _Recorder("a", log), _Recorder("b", log)
        chain = ObserverChain(a, b)
        chain.remove(a)
        chain.on_deliver(1)
        assert [tag for tag, _, _ in log] == ["b"]
        assert chain.observers == (b,)

    def test_none_children_dropped(self):
        chain = ObserverChain(None, None)
        assert chain.observers == ()
        with pytest.raises(TypeError):
            chain.add(None)

    def test_attach_promotes_bare_observer(self):
        log = []
        eng = Engine()
        a, b = _Recorder("a", log), _Recorder("b", log)
        eng.observer = a  # legacy single-slot attachment
        chain = attach_observer(eng, b)
        assert eng.observer is chain
        assert chain.observers == (a, b)
        eng.schedule(10, lambda: None)
        eng.run()
        assert [tag for tag, _, _ in log] == ["a", "b"]

    def test_attach_to_empty_slot_then_detach(self):
        eng = Engine()
        a = _Recorder("a", [])
        attach_observer(eng, a)
        detach_observer(eng, a)
        assert eng.observer is None

    def test_detach_last_chained_observer_clears_slot(self):
        eng = Engine()
        a, b = _Recorder("a", []), _Recorder("b", [])
        attach_observer(eng, a)
        attach_observer(eng, b)
        detach_observer(eng, a)
        detach_observer(eng, b)
        assert eng.observer is None

    def test_observed_run_is_bit_identical(self):
        def build():
            eng = Engine()
            out = []

            def chain_fn(n):
                out.append((eng.now, n))
                if n < 5:
                    eng.schedule(7, chain_fn, n + 1)

            eng.schedule(3, chain_fn, 0)
            return eng, out

        plain_eng, plain = build()
        plain_eng.run()
        obs_eng, observed = build()
        attach_observer(obs_eng, _Recorder("x", []))
        attach_observer(obs_eng, _Recorder("y", []))
        obs_eng.run()
        assert observed == plain
        assert obs_eng.now == plain_eng.now


class TestStatsHardening:
    def test_ratio_zero_and_missing_denominator(self):
        s = Stats()
        assert s.ratio("nope", "also_nope") == 0.0
        s.inc("num", 5)
        assert s.ratio("num", "zero_den") == 0.0

    def test_ratio_nonfinite_guard(self):
        s = Stats()
        s.set("nan", float("nan"))
        s.set("inf", float("inf"))
        s.inc("one")
        assert s.ratio("nan", "one") == 0.0
        assert s.ratio("one", "nan") == 0.0
        assert s.ratio("one", "inf") == 0.0
        assert s.ratio("inf", "one") == 0.0

    def test_from_dict_roundtrip(self):
        s = Stats()
        s.inc("a.x", 2.5)
        s.inc("b.y")
        assert Stats.from_dict(s.as_dict()).as_dict() == s.as_dict()

    def test_sorted_dump_order_independent(self):
        a, b = Stats(), Stats()
        a.inc("z", 1.25)
        a.inc("a", 3)
        b.inc("a", 3)
        b.inc("z", 1.25)
        assert a.sorted_dump() == b.sorted_dump()
        assert a.sorted_dump().splitlines()[0].startswith("a ")

    def test_sorted_dump_distinguishes_values(self):
        a, b = Stats(), Stats()
        a.inc("k", 1.0)
        b.inc("k", 1.0 + 1e-12)
        assert a.sorted_dump() != b.sorted_dump()
