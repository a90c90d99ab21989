"""Sanitizer tests: clean runs stay clean and identical, and every
invariant class fires under its paired fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ARCHITECTURES
from repro.config import SystemConfig
from repro.dram.controller import MemoryController
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.sanitize import InvariantViolation, SimSanitizer
from repro.sanitize.inject import FaultInjector
from repro.sim.driver import run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec

N = 256
SANITIZED = ExecOptions(sanitize=True)


def sanitized(arch, workload, n_records=N):
    return RunSpec(arch, workload, n_records=n_records, options=SANITIZED)


def same_result(a, b) -> bool:
    """Full result equality: timing, counters, and golden reductions."""
    return (
        a.finish_ps == b.finish_ps
        and a.stats == b.stats
        and a.collected.keys() == b.collected.keys()
        and sorted(a.reduced) == sorted(b.reduced)
        and all(np.array_equal(a.reduced[k], b.reduced[k]) for k in a.reduced)
    )


# ----------------------------------------------------------------------
# clean runs: zero violations, bit-identical results
# ----------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("arch", list(ARCHITECTURES))
    def test_sanitized_equals_unsanitized(self, arch):
        a = run(sanitized(arch, "variance"))
        b = run(RunSpec(arch, "variance", n_records=N))
        assert same_result(a, b)

    def test_clean_run_exercises_invariants(self):
        captured = {}

        def probe(proc, engine, sanitizer):
            captured["san"] = sanitizer

        run(sanitized("millipede", "count"), probe=probe)
        checks = captured["san"].report()["checks"]
        for inv in ("time-monotonicity", "dram-timing", "dram-window",
                    "df-consistency", "pft-retrigger", "pb-capacity"):
            assert checks.get(inv, 0) > 0, f"{inv} never evaluated"

    def test_simt_and_barrier_and_dfs_paths_covered(self):
        caps = {}

        def grab(name):
            def probe(proc, engine, sanitizer):
                caps[name] = sanitizer
            return probe

        run(sanitized("gpgpu", "count"), probe=grab("simt"))
        run(sanitized("millipede-bar", "count"), probe=grab("bar"))
        run(sanitized("millipede-rm", "count"), probe=grab("rm"))
        assert caps["simt"].report()["checks"].get("simt-dropped-pop", 0) > 0
        assert caps["bar"].report()["checks"].get(
            "barrier-incomplete-generation", 0) > 0
        # the rm clock checker is attached even if no adjustment happened
        assert "clock.millipede" in caps["rm"].report()["components"]

    def test_spec_roundtrip_carries_sanitize(self):
        spec = sanitized("millipede", "count")
        assert RunSpec.from_dict(spec.to_dict()) == spec
        # sanitize is part of identity: stored results are kept separate
        assert (spec.content_hash()
                != spec.replace(options=ExecOptions()).content_hash())
        # old serialized specs (no sanitize key) still deserialize
        legacy = spec.to_dict()
        del legacy["sanitize"]
        assert RunSpec.from_dict(legacy).sanitize is False


# ----------------------------------------------------------------------
# fault injection: every invariant class fires
# ----------------------------------------------------------------------
def expect_violation(arch, workload, invariants, arm, n_records=N):
    """Run with a fault armed by ``arm(inj, proc, engine)``; the paired
    invariant must fire and the fault must actually have been injected."""
    inj = FaultInjector()

    def probe(proc, engine, sanitizer):
        arm(inj, proc, engine)

    with pytest.raises(InvariantViolation) as exc:
        run(sanitized(arch, workload, n_records), probe=probe)
    assert exc.value.invariant in invariants
    assert inj.injected, "fault never armed/injected"
    return exc.value


class TestFaultInjection:
    def test_skip_df_caught(self):
        v = expect_violation(
            "millipede", "count", {"df-consistency", "df-head-evict"},
            lambda inj, proc, eng: inj.skip_df(proc.prefetch_buffer))
        assert v.component.startswith("mem.")

    def test_reordered_dram_command_caught(self):
        expect_violation(
            "millipede", "count", {"dram-timing"},
            lambda inj, proc, eng: inj.reorder_dram_command(proc.mc))

    def test_dropped_reconvergence_pop_caught(self):
        expect_violation(
            "gpgpu", "count", {"simt-dropped-pop"},
            lambda inj, proc, eng: inj.drop_reconv_pop(proc))

    def test_stuck_clock_caught_with_rate_matching(self):
        v = expect_violation(
            "millipede-rm", "count", {"dfs-range"},
            lambda inj, proc, eng: inj.stuck_clock(eng, proc.clock))
        assert "MHz" in str(v)

    def test_clock_change_without_controller_caught(self):
        expect_violation(
            "millipede", "count", {"dfs-unexpected-change"},
            lambda inj, proc, eng: inj.stuck_clock(eng, proc.clock,
                                                   freq_hz=650e6))

    def test_missed_barrier_caught(self):
        v = expect_violation(
            "millipede-bar", "count", {"barrier-incomplete-generation"},
            lambda inj, proc, eng: inj.drop_barrier_arrival(proc.barrier))
        assert "deadlock" in str(v)

    def test_unsanitized_deadlock_names_the_spec(self):
        """Without the sanitizer the same lost barrier arrival surfaces as
        the driver's drained-queue error, which must name the full spec
        (records, seed, backend), not only arch/workload."""
        inj = FaultInjector()
        spec = RunSpec("millipede-bar", "count", n_records=N, seed=3,
                       options=ExecOptions(backend="vector"))

        def probe(proc, engine, sanitizer):
            inj.drop_barrier_arrival(proc.barrier)

        with pytest.raises(RuntimeError, match="never finished") as exc:
            run(spec, probe=probe)
        assert str(spec) in str(exc.value)
        assert inj.injected

    def test_pft_retrigger_caught(self):
        expect_violation(
            "millipede", "count", {"pft-retrigger"},
            lambda inj, proc, eng: inj.rearm_pft(proc.prefetch_buffer))

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_corrupted_event_time_caught_mid_run(self, backend):
        # the corruption is scheduled by the probe, so it rewinds an
        # event the simulation itself queued, on either backend
        inj = FaultInjector()

        def probe(proc, engine, sanitizer):
            engine.schedule(1000, inj.corrupt_event_time, engine)

        spec = RunSpec("millipede", "count", n_records=N,
                       options=SANITIZED.replace(backend=backend))
        with pytest.raises(InvariantViolation) as exc:
            run(spec, probe=probe)
        assert exc.value.invariant == "time-monotonicity"
        assert inj.injected

    def test_violation_carries_snapshot(self):
        v = expect_violation(
            "millipede", "count", {"df-consistency", "df-head-evict"},
            lambda inj, proc, eng: inj.skip_df(proc.prefetch_buffer))
        assert v.time_ps > 0
        assert v.snapshot["time_ps"] == v.time_ps
        assert "recent_events" in v.snapshot
        assert v.snapshot["checks"].get("time-monotonicity", 0) > 0
        assert "occupancy" in v.snapshot[v.component]


# ----------------------------------------------------------------------
# experiment-level acceptance: sanitized figures are the same figures
# ----------------------------------------------------------------------
class TestExperimentEquality:
    def test_fig3_rows_unchanged_under_sanitizer(self):
        from repro.experiments import fig3

        a = fig3.run_experiment(n_records=N, options=SANITIZED)
        b = fig3.run_experiment(n_records=N)
        assert a.rows == b.rows

    def test_table4_rows_unchanged_under_sanitizer(self):
        from repro.experiments import table4

        a = table4.run_experiment(n_records=N, options=SANITIZED)
        b = table4.run_experiment(n_records=N)
        assert a.rows == b.rows


# ----------------------------------------------------------------------
# engine-level checks (micro harnesses)
# ----------------------------------------------------------------------
class TestEngineChecks:
    def test_monotonicity_violation(self):
        eng = Engine()
        san = SimSanitizer()
        san.attach_engine(eng)
        eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        FaultInjector().corrupt_event_time(eng)
        with pytest.raises(InvariantViolation) as exc:
            eng.run()
        assert exc.value.invariant == "time-monotonicity"

    def test_livelock_watchdog(self):
        eng = Engine()
        san = SimSanitizer(watchdog_events=500)
        san.attach_engine(eng)
        FaultInjector().spin_livelock(eng)
        with pytest.raises(InvariantViolation) as exc:
            eng.run()
        assert exc.value.invariant == "livelock"
        assert exc.value.snapshot["recent_events"]  # diagnostic trace

    def test_watchdog_tolerates_bursts_below_horizon(self):
        eng = Engine()
        san = SimSanitizer(watchdog_events=500)
        san.attach_engine(eng)
        for _ in range(400):
            eng.schedule(100, lambda: None)
        eng.run()  # 400 same-time events < horizon: fine

    def test_two_sanitizers_compose(self):
        # the observer slot is a fan-out chain now (repro.engine.observer),
        # so a second sanitizer attaches alongside instead of being refused
        eng = Engine()
        a, b = SimSanitizer(), SimSanitizer()
        a.attach_engine(eng)
        b.attach_engine(eng)
        eng.schedule(10, lambda: None)
        eng.run()
        assert a.checks["time-monotonicity"] == 1
        assert b.checks["time-monotonicity"] == 1

    def test_sanitizer_composes_with_tracer(self):
        from repro.trace import SimTracer

        eng = Engine()
        san = SimSanitizer()
        tr = SimTracer()
        san.attach_engine(eng)
        tr.attach_engine(eng)
        eng.schedule(10, lambda: None)
        eng.run()
        assert san.checks["time-monotonicity"] == 1
        assert tr.result().host_profile  # both observed the same event


# ----------------------------------------------------------------------
# DRAM micro harness: deterministic timing-invariant coverage
# ----------------------------------------------------------------------
class TestDramChecker:
    def make(self):
        eng = Engine()
        san = SimSanitizer()
        san.attach_engine(eng)
        mc = MemoryController(eng, SystemConfig().dram, Stats())
        san.attach_controller(mc)
        return eng, mc, san

    def test_clean_traffic_passes(self):
        eng, mc, san = self.make()
        done = []
        for i in range(16):
            mc.access(i * 64, 16, callback=lambda r: done.append(r))
        eng.run()
        san.finalize()
        assert len(done) == 16
        assert san.checks["dram-timing"] > 0

    def test_early_cas_caught(self):
        eng, mc, san = self.make()
        inj = FaultInjector()
        mc.access(0, 16)
        mc.access(4096, 16)
        inj.reorder_dram_command(mc)
        with pytest.raises(InvariantViolation) as exc:
            eng.run()
        assert exc.value.invariant == "dram-timing"
        assert inj.injected

    def test_unfinished_transfer_caught_at_finalize(self):
        eng, mc, san = self.make()
        mc.access(0, 16)
        # run only until the grant, not the completion
        while eng.step():
            if san._checkers[1].in_flight:
                break
        with pytest.raises(InvariantViolation) as exc:
            san.finalize()
        assert exc.value.invariant == "dram-phantom-completion"
