"""Persistent-campaign tests (ISSUE 7): SIGKILL crash/resume, 3-way shard
merge, and delta campaigns against the fingerprint store."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.config import DEFAULT_CONFIG
from repro.sim.campaign import (
    BatchProgress,
    cross,
    dedup_specs,
    parse_shard,
    plan_campaign,
    run_batch,
    run_campaign,
    shard_specs,
)
from repro.sim.driver import RunResult, run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore, canonical_result_blob

N = 512

#: src/ directory for subprocess PYTHONPATH
_SRC = str(Path(repro.__file__).resolve().parents[1])


def assert_same_outcome(a: RunResult, b: RunResult) -> None:
    """Simulation outcome equality on the store-persisted fields (the
    in-memory ``reduced`` arrays and trace are session-only)."""
    assert a.arch == b.arch and a.workload == b.workload
    assert a.finish_ps == b.finish_ps
    assert a.n_records == b.n_records and a.input_words == b.input_words
    assert a.collected == b.collected
    assert a.stats == b.stats
    assert a.energy == b.energy
    assert a.validated == b.validated


# ----------------------------------------------------------------------
# shard plumbing
# ----------------------------------------------------------------------
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("0/3", "4/3", "x/3", "3", "1/0", "-1/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_campaign(self):
        specs = cross(["gpgpu", "ssmc", "millipede"],
                      ["count", "variance", "kmeans"], n_records=N)
        shards = [shard_specs(specs, i, 3) for i in (1, 2, 3)]
        fps = [frozenset(s.content_hash() for s in sh) for sh in shards]
        assert fps[0] | fps[1] | fps[2] == frozenset(dedup_specs(specs))
        assert not (fps[0] & fps[1] or fps[0] & fps[2] or fps[1] & fps[2])
        # duplicates collapse before sharding: no spec runs twice
        doubled = specs + specs
        assert shard_specs(doubled, 2, 3) == shards[1]


# ----------------------------------------------------------------------
# crash / kill / resume
# ----------------------------------------------------------------------
_CHILD = """
import sys
from repro.sim.campaign import run_campaign
from repro.sim.spec import RunSpec

specs = [RunSpec(a, "count", n_records=%d, seed=s)
         for a in ("ssmc", "millipede") for s in range(4)]
run_campaign(specs, sys.argv[1], workers=1, name="crashme")
""" % N

_CRASH_SPECS = [RunSpec(a, "count", n_records=N, seed=s)
                for a in ("ssmc", "millipede") for s in range(4)]


class TestCrashResume:
    def test_sigkill_mid_campaign_resumes_without_resimulation(self, tmp_path):
        """SIGKILL a subprocess campaign once >=1 record has landed; the
        resumed campaign re-simulates zero completed specs (store hit
        counters prove it) and the merged results are byte-identical to
        an uninterrupted campaign."""
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(store_dir)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            watch = None
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if watch is None and (store_dir / "log").is_dir():
                    watch = FingerprintStore(store_dir)
                if watch is not None:
                    watch.refresh()
                    if len(watch) >= 1:
                        break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
        assert watch is not None, "campaign never produced a store record"

        watch.refresh()  # pick up anything flushed between check and kill
        completed = set(watch.fingerprints())
        total = len(_CRASH_SPECS)
        assert completed, "campaign never produced a store record"
        assert completed <= {s.content_hash() for s in _CRASH_SPECS}

        # resume against the same store
        events: list[BatchProgress] = []
        report = run_campaign(_CRASH_SPECS, store_dir, workers=1,
                              name="crashme", progress=events.append)
        assert report.hits == len(completed)
        assert report.misses == total - len(completed)
        served = {e.spec.content_hash() for e in events if e.cached}
        assert served == completed  # completed fingerprints NOT re-simulated
        assert events[-1].hits == len(completed)
        assert events[-1].misses == total - len(completed)
        assert report.plan.complete is False or len(completed) == total

        merged = report.gather(_CRASH_SPECS)
        assert all(r is not None for r in merged)

        # byte-identical to an uninterrupted campaign in a fresh store
        fresh = run_campaign(_CRASH_SPECS, tmp_path / "fresh", workers=1)
        assert fresh.misses == total
        for a, b in zip(merged, fresh.gather(_CRASH_SPECS)):
            assert canonical_result_blob(a) == canonical_result_blob(b)

        # and a third pass over the resumed store is pure hits
        again = run_campaign(_CRASH_SPECS, store_dir, workers=1)
        assert again.hits == total and again.misses == 0

    def test_crash_manifest_checkpointed_before_first_result(self, tmp_path):
        """The manifest lands before simulation starts, so a killed
        campaign's planned fingerprint list is always recoverable."""
        store = FingerprintStore(tmp_path)
        report = run_campaign(_CRASH_SPECS[:2], store, name="crashme")
        manifest = store.read_manifest("crashme")
        assert manifest["order"] == report.plan.fingerprints
        assert store.manifest_specs("crashme") == _CRASH_SPECS[:2]


# ----------------------------------------------------------------------
# 3-way shard merge
# ----------------------------------------------------------------------
class TestShardMerge:
    def test_three_shards_merge_equals_unsharded(self, tmp_path):
        """A fig3-sized campaign split 3 ways into one store produces the
        same results as an unsharded campaign, including exact equality
        of every per-spec stats dict.  Each writer runs a plain campaign
        over its ``shard_specs`` slice: the static hard-assignment split
        this test is about (a sharded campaign steals, so sequential
        shards would leave nothing for the later ones -
        tests/test_campaign_steal.py covers that path)."""
        specs = cross(["gpgpu", "ssmc", "millipede"],
                      ["count", "variance", "kmeans"], n_records=256)
        shared = tmp_path / "shared"
        reports = []
        for i in (1, 2, 3):
            # a distinct FingerprintStore instance per shard = the
            # multi-writer path (each appends to its own segment)
            with FingerprintStore(shared) as store:
                reports.append(run_campaign(
                    shard_specs(specs, i, 3), store, name=f"fig3-{i}"))
        for i, report in enumerate(reports, start=1):
            assert report.plan.specs == shard_specs(specs, i, 3)
            # a hard split's manifest records its slice only
            assert FingerprintStore(shared).manifest_specs(f"fig3-{i}") == \
                shard_specs(specs, i, 3)
            assert report.hits == 0
            assert report.misses == len(report.plan.specs)
        assert sum(r.misses for r in reports) == len(specs)

        # merged view: every spec present, no shard left work behind
        merged = reports[-1].gather(specs)
        assert all(r is not None for r in merged)
        assert reports[-1].missing(specs) == []
        assert plan_campaign(specs, shared).complete

        unsharded = run_campaign(specs, tmp_path / "solo", workers=2)
        solo = unsharded.gather(specs)
        for spec, a, b in zip(specs, merged, solo):
            assert a.stats == b.stats, spec
            assert canonical_result_blob(a) == canonical_result_blob(b)
        # the shared store took one segment per shard writer
        assert len(list((shared / "log").glob("*.jsonl"))) == 3

    def test_final_merge_pass_simulates_nothing(self, tmp_path):
        specs = cross(["ssmc", "millipede"], ["count"], n_records=N)
        for i in (1, 2):
            run_campaign(shard_specs(specs, i, 2), tmp_path)
        final = run_campaign(specs, tmp_path)
        assert final.hits == len(specs) and final.misses == 0


# ----------------------------------------------------------------------
# delta campaigns
# ----------------------------------------------------------------------
class TestDeltaCampaign:
    def test_perturbed_config_resimulates_exactly_the_changed_specs(
            self, tmp_path):
        v1 = [RunSpec(a, "count", config=DEFAULT_CONFIG, n_records=256)
              for a in ("ssmc", "millipede")]
        first = run_campaign(v1, tmp_path)
        assert first.misses == len(v1)

        # perturb one SystemConfig field on one spec
        cfg2 = DEFAULT_CONFIG.with_dram(t_cas=12)
        v2 = [v1[0], v1[1].replace(config=cfg2)]
        plan = plan_campaign(v2, tmp_path)
        assert [s.content_hash() for s in plan.to_run] == \
            [v2[1].content_hash()]
        assert plan.done == [v1[0].content_hash()]

        second = run_campaign(v2, tmp_path)
        assert second.hits == 1 and second.misses == 1
        # the perturbation really simulated something different
        results = second.gather(v2)
        assert results[1].finish_ps != first.gather(v1)[1].finish_ps

        # unperturbed spec's record is untouched (same bytes as round 1)
        assert canonical_result_blob(second.gather(v2)[0]) == \
            canonical_result_blob(first.gather(v1)[0])

    def test_sanitize_variant_is_a_new_fingerprint_same_outcome(
            self, tmp_path):
        """sanitize=True changes the fingerprint (it is part of spec
        identity) but not the simulation outcome: the delta campaign
        simulates it, and its record matches the plain variant bit for
        bit on timing/stats/energy."""
        plain = RunSpec("millipede", "count", n_records=256)
        run_campaign([plain], tmp_path)
        checked = plain.replace(options=ExecOptions(sanitize=True))
        plan = plan_campaign([plain, checked], tmp_path)
        assert [s.content_hash() for s in plan.to_run] == \
            [checked.content_hash()]
        report = run_campaign([plain, checked], tmp_path)
        assert report.hits == 1 and report.misses == 1
        a, b = report.gather([plain, checked])
        assert a.finish_ps == b.finish_ps
        assert a.stats == b.stats
        assert a.energy == b.energy

    def test_no_resume_resimulates_but_still_records(self, tmp_path):
        spec = RunSpec("ssmc", "count", n_records=N)
        first = run_campaign([spec], tmp_path)
        again = run_campaign([spec], tmp_path, resume=False)
        assert first.misses == 1
        assert again.hits == 0 and again.misses == 1  # forced re-simulation
        assert canonical_result_blob(again.gather([spec])[0]) == \
            canonical_result_blob(first.gather([spec])[0])

    def test_traced_specs_always_resimulate(self, tmp_path):
        spec = RunSpec("millipede", "count", n_records=N)
        run_campaign([spec], tmp_path)
        traced = spec.replace(options=ExecOptions(trace=True))
        run_campaign([traced], tmp_path)
        plan = plan_campaign([traced], tmp_path)
        assert plan.to_run == [traced]  # stored records carry no trace
        report = run_campaign([traced], tmp_path)
        assert report.misses == 1
        assert report.results[traced.content_hash()].trace is not None


# ----------------------------------------------------------------------
# batch counters + facade
# ----------------------------------------------------------------------
class TestCountersAndFacade:
    def test_batch_progress_hit_miss_counters(self, tmp_path):
        store = FingerprintStore(tmp_path)
        specs = cross(["ssmc", "millipede"], ["count"], n_records=N)
        run_batch([specs[0]], store=store)
        events: list[BatchProgress] = []
        run_batch(specs, store=store, progress=events.append)
        assert [(e.hits, e.misses) for e in events] == [(1, 0), (1, 1)]
        assert "hit" in str(events[0])

    def test_api_run_batch_accepts_store(self, tmp_path):
        from repro import api

        specs = [RunSpec("millipede", "count", n_records=N)]
        first = api.run_batch(specs, store=tmp_path)
        second = api.run_batch(specs, store=FingerprintStore(tmp_path))
        assert_same_outcome(first[0], second[0])
        with pytest.raises(TypeError):
            api.run_batch(specs, store=True)

    def test_api_run_campaign_facade(self, tmp_path):
        from repro import api

        specs = [RunSpec("ssmc", "count", n_records=N)]
        report = api.run_campaign(specs, store=tmp_path)
        assert report.misses == 1
        assert api.run_campaign(specs, store=tmp_path).hits == 1
        assert "campaign" in report.summary()
