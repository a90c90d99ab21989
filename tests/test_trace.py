"""Tracing-layer tests: the timeline sampler, exporters, campaign writer,
and the acceptance criterion that tracing never perturbs a simulation."""

from __future__ import annotations

import json

import pytest

from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.sim.campaign import run_batch
from repro.sim.driver import run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore
from repro.trace import SimTracer, TimelineSampler, TraceResult, TraceWriter

N = 512
TRACED = ExecOptions(trace=True)


def dump(result) -> str:
    return Stats.from_dict(result.stats).sorted_dump()


# ----------------------------------------------------------------------
# acceptance: observation never perturbs the simulation
# ----------------------------------------------------------------------
class TestTracedRunsAreBitIdentical:
    def test_traced_kmeans_matches_plain(self):
        plain = run(RunSpec("millipede", "kmeans", n_records=N))
        traced = run(RunSpec("millipede", "kmeans", n_records=N, options=TRACED))
        assert traced.finish_ps == plain.finish_ps
        assert dump(traced) == dump(plain)

    def test_sanitized_and_traced_together_match_plain(self):
        """Satellite 5: sanitizer + tracer attached on the same run (the
        composition the old single-slot observer protocol could not do)
        still reproduce the plain run byte-for-byte."""
        plain = run(RunSpec("millipede-rm", "kmeans", n_records=N))
        both = run(RunSpec("millipede-rm", "kmeans", n_records=N,
                           options=ExecOptions(sanitize=True, trace=True)))
        assert both.finish_ps == plain.finish_ps
        assert dump(both) == dump(plain)

    def test_untraced_run_has_no_trace(self):
        assert run(RunSpec("millipede", "count", n_records=N)).trace is None


# ----------------------------------------------------------------------
# what a traced run captures
# ----------------------------------------------------------------------
class TestTraceContent:
    def kmeans_trace(self):
        return run(RunSpec("millipede-rm", "kmeans", n_records=N, options=TRACED)).trace

    def test_core_series_sampled(self):
        trace = self.kmeans_trace()
        names = trace.series_names()
        for series in ("pb.occupancy", "pb.pft_pending", "pb.df_total",
                       "dram.queue_depth", "dram.banks_open",
                       "dfs.freq_hz", "corelet.instructions"):
            assert series in names, f"{series} not sampled"
        times, occ = trace.series("pb.occupancy")
        assert times == sorted(times) and len(times) > 2
        assert max(occ) > 0  # the buffer actually filled at some point

    def test_dfs_frequency_series_and_changes(self):
        trace = self.kmeans_trace()
        _, freqs = trace.series("dfs.freq_hz")
        assert len(set(freqs)) > 1  # rate matching really moved the clock
        assert trace.freq_changes
        for time_ps, clock_name, old_hz, new_hz in trace.freq_changes:
            assert clock_name == "millipede"
            assert old_hz != new_hz

    def test_host_profile_populated(self):
        trace = self.kmeans_trace()
        assert trace.total_host_ns() > 0
        by_comp = trace.host_profile_by_component()
        assert sum(c["count"] for c in by_comp.values()) == sum(
            c["count"] for c in trace.host_profile.values())
        assert "samples" in trace.summary()

    def test_per_corelet_series_is_per_unit(self):
        trace = self.kmeans_trace()
        _, instr = trace.series("corelet.instructions")
        n_units = len(instr[0])
        assert n_units > 1
        assert all(len(row) == n_units for row in instr)
        # counts are cumulative per corelet: monotone over time
        assert instr[-1][0] >= instr[0][0]

    @pytest.mark.parametrize("arch, port", [
        ("millipede", "PrefetchBuffer.demand_access"),
        ("ssmc", "SequentialPrefetcher.demand_access"),
        ("multicore", "SequentialPrefetcher.demand_access"),
    ])
    def test_event_labels_are_qualnames(self, arch, port):
        # a global load is one engine event that calls the arch's port
        # directly; its label must be that method's qualname, not a
        # partial's or closure's repr with a memory address in it
        trace = run(RunSpec(arch, "count", n_records=N, options=TRACED)).trace
        for key in trace.host_profile:
            assert "functools.partial" not in key and " at 0x" not in key, key
        assert trace.host_profile[port]["count"] > 0
        assert not any("_global_access" in key for key in trace.host_profile)

    def test_meta_carries_run_identity(self):
        result = run(RunSpec("millipede", "kmeans", n_records=N, options=TRACED))
        meta = result.trace.meta
        assert meta["arch"] == "millipede" and meta["workload"] == "kmeans"
        assert meta["finish_ps"] == result.finish_ps
        assert meta["interval_ps"] > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def trace(self):
        return run(RunSpec("millipede-rm", "kmeans", n_records=N, options=TRACED)).trace

    def test_chrome_trace_structure(self):
        trace = self.trace()
        doc = trace.chrome_trace()
        json.dumps(doc)  # must be serializable as-is
        events = doc["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in counters} >= {"pb.occupancy", "dfs.freq_hz"}
        assert len(instants) == len(trace.freq_changes)
        assert all("ts" in e for e in counters)
        assert doc["otherData"]["host_profile"] == trace.host_profile

    def test_chrome_trace_ts_is_microseconds(self):
        trace = TraceResult(samples=[{"time_ps": 2_000_000, "x": 1}])
        (ev,) = [e for e in trace.chrome_trace()["traceEvents"]
                 if e["ph"] == "C"]
        assert ev["ts"] == 2.0  # 2 us

    def test_timeline_csv_expands_list_series(self):
        trace = TraceResult(samples=[
            {"time_ps": 0, "x": 1, "units": [1, 2]},
            {"time_ps": 5, "x": 2, "units": [3, 4]},
        ])
        lines = trace.timeline_csv().strip().splitlines()
        assert lines[0] == "time_ps,x,units.0,units.1,units.total"
        assert lines[1] == "0,1,1,2,3"
        assert lines[2] == "5,2,3,4,7"

    def test_timeline_csv_has_required_series(self):
        csv = self.trace().timeline_csv()
        header = csv.splitlines()[0].split(",")
        assert "dfs.freq_hz" in header and "pb.occupancy" in header

    def test_profile_csv_heaviest_first(self):
        trace = TraceResult(host_profile={
            "A.f": {"count": 1, "host_ns": 10},
            "B.g": {"count": 2, "host_ns": 200},
        })
        lines = trace.profile_csv().strip().splitlines()
        assert lines[0] == "event_class,count,host_ns,host_ns_per_event"
        assert lines[1].startswith("B.g,") and lines[2].startswith("A.f,")

    def test_write_emits_three_files(self, tmp_path):
        paths = self.trace().write(tmp_path, "run")
        assert set(paths) == {"trace", "timeline", "profile"}
        loaded = json.loads(paths["trace"].read_text())
        assert loaded["traceEvents"]
        assert paths["timeline"].read_text().startswith("time_ps,")


# ----------------------------------------------------------------------
# the sampler's scheduling discipline
# ----------------------------------------------------------------------
class TestTimelineSampler:
    def test_samples_at_cadence_and_stops_with_the_run(self):
        eng = Engine()
        ticks = {"n": 0}

        def work():
            ticks["n"] += 1
            if ticks["n"] < 5:
                eng.schedule(100, work)

        eng.schedule(0, work)
        sampler = TimelineSampler(eng, interval_ps=100)
        sampler.add_probe("ticks", lambda: ticks["n"])
        sampler.start()
        eng.run()
        assert eng.pending == 0  # the sampler did not keep the run alive
        times = [row["time_ps"] for row in sampler.samples]
        assert times[0] == 0 and times == sorted(times)
        # the final workload event is at t=400; sampling must not extend
        # meaningfully past it (at most one trailing tick)
        assert times[-1] <= 500
        _, values = TraceResult(samples=sampler.samples).series("ticks")
        assert values[-1] == 5

    def test_no_probes_means_no_events(self):
        eng = Engine()
        sampler = TimelineSampler(eng, interval_ps=100)
        sampler.start()
        assert eng.pending == 0 and sampler.samples == []


# ----------------------------------------------------------------------
# spec / store / campaign integration
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    def test_spec_roundtrip_carries_trace(self):
        spec = RunSpec("millipede", "count", n_records=N, options=TRACED)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert (spec.content_hash()
                != spec.replace(options=ExecOptions()).content_hash())
        legacy = spec.to_dict()
        del legacy["trace"]  # pre-trace serialized specs still deserialize
        assert RunSpec.from_dict(legacy).trace is False

    def test_traced_spec_bypasses_cache_but_feeds_it(self, tmp_path):
        store = FingerprintStore(tmp_path)
        plain = RunSpec("millipede", "count", n_records=N)
        traced = plain.replace(options=TRACED)
        (first,) = run_batch([traced], workers=1, store=store)
        assert first.trace is not None
        assert traced.content_hash() in store  # the outcome is recorded...
        # ...a traced spec always re-simulates (the artifact is the
        # point; a store hit would return no trace)
        (again,) = run_batch([traced], workers=1, store=store)
        assert again.trace is not None
        assert again.finish_ps == first.finish_ps
        # ...and untraced runs of the same spec get their own record
        (plain_run,) = run_batch([plain], workers=1, store=store)
        assert plain_run.finish_ps == first.finish_ps
        assert plain.content_hash() in store

    def test_trace_writer_collects_batch(self, tmp_path):
        specs = [RunSpec("millipede", "count", n_records=N,
                         options=ExecOptions(trace=True)),
                 RunSpec("ssmc", "count", n_records=N,
                         options=ExecOptions(trace=True))]
        seen = []
        writer = TraceWriter(tmp_path, progress=seen.append)
        run_batch(specs, workers=1, progress=writer)
        index_path = writer.finish()
        assert len(seen) == 2  # wrapped progress still invoked
        index = json.loads(index_path.read_text())
        assert len(index["runs"]) == 2
        assert index["host_profile_totals"]
        for entry in index["runs"]:
            assert entry["samples"] > 0
            for name in entry["files"].values():
                assert (tmp_path / name).exists()

    def test_trace_writer_skips_untraced_results(self, tmp_path):
        writer = TraceWriter(tmp_path)
        run_batch([RunSpec("millipede", "count", n_records=N)],
                  workers=1, progress=writer)
        assert writer.index == []
        assert json.loads(writer.finish().read_text())["runs"] == []

    def test_worker_processes_return_traces(self, tmp_path):
        """Traces survive the multiprocessing pickle boundary."""
        specs = [RunSpec("millipede", "count", n_records=N,
                         options=ExecOptions(trace=True)),
                 RunSpec("ssmc", "count", n_records=N,
                         options=ExecOptions(trace=True))]
        results = run_batch(specs, workers=2)
        assert all(r.trace is not None for r in results)
        assert all(r.trace.samples for r in results)


# ----------------------------------------------------------------------
# tracer unit behavior
# ----------------------------------------------------------------------
class TestSimTracer:
    def test_result_before_attach_is_empty(self):
        trace = SimTracer().result()
        assert trace.samples == [] and trace.host_profile == {}

    def test_custom_interval_respected(self):
        a = run(RunSpec("millipede", "count", n_records=N, options=TRACED),
                trace_interval_ps=50_000)
        b = run(RunSpec("millipede", "count", n_records=N, options=TRACED),
                trace_interval_ps=200_000)
        assert a.trace.meta["interval_ps"] == 50_000
        assert len(a.trace.samples) > len(b.trace.samples)
        assert a.finish_ps == b.finish_ps  # cadence never affects timing

    def test_gpgpu_probes_warps(self):
        trace = run(RunSpec("gpgpu", "count", n_records=N, options=TRACED)).trace
        names = trace.series_names()
        assert "warps.active" in names and "dram.queue_depth" in names
