"""Unit tests for the Millipede core layer: corelets, the processor, the
rate-match controller, and the barrier coordinator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.millipede import MillipedeProcessor
from repro.core.rate_match import RateMatchController
from repro.dram.dram import GlobalMemory
from repro.engine.clock import Clock
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program


def make_processor(source: str, n_words=2048, n_cores=4, n_threads=2,
                   mcfg_kwargs=None):
    cfg = SystemConfig().with_core(n_cores=n_cores, n_threads=n_threads)
    if mcfg_kwargs:
        cfg = cfg.with_millipede(**mcfg_kwargs)
    prog = Program.from_source(source)
    eng = Engine()
    stats = Stats()
    gm = GlobalMemory(n_words)
    proc = MillipedeProcessor(eng, cfg, prog, gm, stats,
                              input_base_word=0, input_end_word=n_words)
    return eng, proc, gm, stats


SUM_KERNEL = """
    li   r5, 0
    mov  r6, r1
loop:
    bge  r6, r3, done
    add  r7, r4, r6
    ldg  r8, r7, 0
    add  r5, r5, r8
    add  r6, r6, r2
    j    loop
done:
    stl  r5, r0, 0
    halt
"""


class TestMillipedeProcessor:
    def test_streaming_sum(self):
        eng, proc, gm, stats = make_processor(SUM_KERNEL)
        gm.data[:] = np.arange(2048)
        T = 8
        proc.set_thread_args([{1: t, 2: T, 3: 2048, 4: 0} for t in range(T)])
        proc.start()
        eng.run()
        assert proc.done
        total = sum(s[0] for s in proc.thread_states())
        assert total == gm.data.sum()

    def test_unaligned_input_rejected(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError, match="row-aligned"):
            MillipedeProcessor(
                Engine(), cfg, Program.from_source("halt"), GlobalMemory(1024),
                Stats(), input_base_word=100, input_end_word=612,
            )

    def test_wrong_thread_args_count_rejected(self):
        eng, proc, gm, stats = make_processor(SUM_KERNEL)
        with pytest.raises(ValueError, match="thread-arg"):
            proc.set_thread_args([{1: 0}])

    def test_initial_state_loads_every_partition(self):
        eng, proc, gm, stats = make_processor("halt")
        proc.load_initial_state(np.array([7.0, 8.0]))
        for st in proc.thread_states():
            assert st[0] == 7.0 and st[1] == 8.0

    def test_oversized_initial_state_rejected(self):
        eng, proc, gm, stats = make_processor("halt")
        with pytest.raises(ValueError, match="exceeds"):
            proc.load_initial_state(np.zeros(10_000))

    def test_collect_counts_instructions(self):
        eng, proc, gm, stats = make_processor(SUM_KERNEL)
        T = 8
        proc.set_thread_args([{1: t, 2: T, 3: 2048, 4: 0} for t in range(T)])
        proc.start()
        eng.run()
        c = proc.collect()
        # per thread: 2 setup + 256 iterations x 6 + final bge + stl + halt
        assert c["instructions"] == T * (2 + 256 * 6 + 3)

    def test_finish_time_monotone_with_work(self):
        times = []
        for n_words in (512, 2048):
            eng, proc, gm, stats = make_processor(SUM_KERNEL, n_words=n_words)
            T = 8
            proc.set_thread_args([{1: t, 2: T, 3: n_words, 4: 0} for t in range(T)])
            proc.start()
            eng.run()
            times.append(proc.finish_ps)
        assert times[1] > times[0]


class TestLocalMemorySafety:
    def test_out_of_partition_access_raises(self):
        src = "stl r1, r0, 300\nhalt"  # beyond the 256-word partition
        eng, proc, gm, stats = make_processor(src, n_cores=4, n_threads=4)
        proc.set_thread_args([{1: t, 2: 16, 3: 0, 4: 0} for t in range(16)])
        proc.start()
        with pytest.raises(IndexError, match="partition"):
            eng.run()


class TestRateMatchController:
    def make(self, interval_ps=0):
        cfg = SystemConfig().with_millipede(rate_match_interval_ps=interval_ps).millipede
        eng = Engine()
        clock = Clock(700e6)
        return eng, clock, RateMatchController(eng, clock, cfg, Stats())

    def test_empty_signal_lowers_clock(self):
        eng, clock, rc = self.make()
        rc.empty_signal()
        assert clock.freq_hz == pytest.approx(700e6 * 0.95)

    def test_full_signal_raises_clock_up_to_nominal(self):
        eng, clock, rc = self.make()
        rc.empty_signal()
        rc.full_signal()
        assert clock.freq_hz == pytest.approx(700e6 * 0.95 * 1.05)
        for _ in range(20):
            rc.full_signal()
        assert clock.freq_hz <= 700e6

    def test_clamped_at_minimum(self):
        eng, clock, rc = self.make()
        for _ in range(100):
            rc.empty_signal()
        assert clock.freq_hz >= 200e6

    def test_debounce_interval(self):
        eng, clock, rc = self.make(interval_ps=1_000_000)
        rc.empty_signal()
        f = clock.freq_hz
        rc.empty_signal()  # within the interval: ignored
        assert clock.freq_hz == f

    def test_clamped_noop_leaves_debounce_window_open(self):
        # regression: a signal whose step clamped to a no-op at
        # rate_match_min/max_hz used to consume the debounce window,
        # starving an immediately following opposite-direction signal
        eng, clock, rc = self.make(interval_ps=1_000_000)
        lo = rc.cfg.rate_match_min_hz
        clock.set_frequency(lo)
        rc.empty_signal()  # already at the floor: clamps to a no-op
        assert clock.freq_hz == lo
        rc.full_signal()  # must act despite being inside the window
        assert clock.freq_hz == pytest.approx(lo * (1 + rc.cfg.rate_match_step))
        assert rc.stats["adjustments"] == 1

    def test_clamped_noop_not_recorded_as_adjustment(self):
        eng, clock, rc = self.make(interval_ps=1_000_000)
        clock.set_frequency(rc.cfg.rate_match_min_hz)
        rc.empty_signal()
        assert rc.stats["adjustments"] == 0
        assert len(rc.history) == 1  # only the initial point

    def test_debounce_still_applies_after_real_change(self):
        eng, clock, rc = self.make(interval_ps=1_000_000)
        rc.empty_signal()  # real change at t=0
        f = clock.freq_hz
        rc.full_signal()  # within the interval: ignored
        assert clock.freq_hz == f

    def test_mean_frequency_time_weighted(self):
        eng, clock, rc = self.make()
        eng.schedule(1000, rc.empty_signal)
        eng.run()
        mean = rc.mean_freq_hz(2000)
        assert 700e6 * 0.95 < mean < 700e6

    def test_history_records_trajectory(self):
        eng, clock, rc = self.make()
        rc.empty_signal()
        rc.empty_signal()
        assert len(rc.history) == 3  # initial + 2 adjustments


class TestBarriers:
    def test_record_barriers_run_to_completion(self):
        from repro.api import run

        r = run("millipede-bar", "count", n_records=2048)
        assert r.validated
        assert r.stats["barrier.releases"] > 0
        arrivals = r.stats["barrier.arrivals"]
        assert arrivals == r.stats["barrier.releases"] * 128
