"""Work-stealing campaign tests: lease claims and the claim race,
straggler and dead-shard stealing, progress-stream-derived counters,
store traffic (claims only when sharded), worker-memo eviction and
lifetime, and store lifecycle hygiene (no leaked descriptors)."""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import DEFAULT_CONFIG
from repro.sim import campaign
from repro.sim.campaign import (
    BatchProgress,
    cross,
    dedup_specs,
    plan_campaign,
    run_campaign,
    shard_specs,
)
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore, canonical_result_blob

from tests.test_store import make_result, oserror, record_io

N = 256

#: src/ directory for subprocess PYTHONPATH
_SRC = str(Path(repro.__file__).resolve().parents[1])

SPECS = cross(["ssmc", "millipede"], ["count"], n_records=N, seed=0) + \
    cross(["ssmc", "millipede"], ["count"], n_records=N, seed=1)


def _synthetic_run(spec, memo):
    """Drop-in for campaign._run_with_memo: no simulation, stable result."""
    return make_result(spec)


# ----------------------------------------------------------------------
# lease claims
# ----------------------------------------------------------------------
class TestClaims:
    def test_claim_exclusive_until_released(self, tmp_path):
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        fp = "f" * 64
        assert a.try_claim(fp)
        assert a.claim_holder(fp) == a.writer_id
        assert b.claim_holder(fp) == a.writer_id
        assert not b.try_claim(fp)
        # re-claiming one's own lease extends it
        assert a.try_claim(fp)
        a.release_claim(fp)
        assert a.claim_holder(fp) is None
        assert b.try_claim(fp)
        # releasing a claim held by someone else is a no-op
        a.release_claim(fp)
        assert b.claim_holder(fp) == b.writer_id

    def test_claim_refused_for_recorded_fingerprint(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("ssmc", "count", n_records=N)
        store.put(spec, make_result(spec))
        assert not store.try_claim(spec.content_hash())

    def test_expired_lease_is_reclaimable(self, tmp_path):
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        fp = "e" * 64
        assert a.try_claim(fp, lease_s=0.05)
        time.sleep(0.1)
        assert a.claim_holder(fp) is None  # expired
        assert b.try_claim(fp, lease_s=60.0)
        assert b.claim_holder(fp) == b.writer_id

    def test_garbage_claim_file_treated_as_unclaimed(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = "g" * 64
        store.claim_path(fp).write_text("not json{{{")
        assert store.claim_holder(fp) is None
        assert store.try_claim(fp)

    def test_clear_stale_claims(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("ssmc", "count", n_records=N)
        store.put(spec, make_result(spec))
        assert store.try_claim("a" * 64, lease_s=0.01)  # will expire
        assert store.try_claim("b" * 64, lease_s=60.0)  # stays live
        # a claim whose record has since landed is satisfied -> stale
        # (forged foreign claim; lease expiry is wall-clock by protocol —
        # see docs/linting.md)
        store.claim_path(spec.content_hash()).write_text(
            json.dumps({
                "schema": 1, "fingerprint": spec.content_hash(),
                "writer": "w0-other", "claimed_unix": 0.0,
                "expires_unix": time.time() + 60.0,  # repro-lint: disable=DET002
            }))
        time.sleep(0.05)
        assert store.clear_stale_claims() == 2
        assert store.claim_holder("b" * 64) == store.writer_id


    def test_claim_backs_off_from_a_record_landed_since_refresh(
            self, tmp_path):
        """Two writers interleaved by hand: B refreshes, A claims, puts and
        releases, then B claims.  B must see A's record and not win the
        claim, so B never simulates the spec a second time."""
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        spec = SPECS[0]
        fp = spec.content_hash()
        b.refresh()
        assert a.try_claim(fp)
        a.put(spec, make_result(spec))
        a.release_claim(fp)
        assert fp not in b  # B's last scan predates A's record
        assert not b.try_claim(fp)
        assert fp in b and b.claim_holder(fp) is None

    def test_sharded_campaign_serves_a_record_landed_during_its_claim(
            self, monkeypatch, tmp_path):
        """The same interleaving inside a campaign: another writer lands
        the record between this shard's refresh and its claim.  The
        shard serves the record as a hit instead of simulating it."""
        monkeypatch.setattr(campaign, "_run_with_memo", _synthetic_run)
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        spec = SPECS[0]
        fp = spec.content_hash()
        real_claim = b.try_claim

        def racing_claim(fingerprint, **kwargs):
            if fingerprint == fp and fp not in a:
                assert a.try_claim(fp)
                a.put(spec, make_result(spec))
                a.release_claim(fp)
            return real_claim(fingerprint, **kwargs)

        monkeypatch.setattr(b, "try_claim", racing_claim)
        report = run_campaign([spec], b, shard=(1, 1))
        assert report.misses == 0 and report.hits == 1
        assert len(b.segments()) == 1  # only A's record was written

    def test_sharded_campaign_fails_loudly_when_claims_cannot_be_written(
            self, monkeypatch, tmp_path):
        """A full disk under the claim directory stops the campaign with
        an error naming the fingerprint, instead of a normal return that
        reports every spec as held by another writer."""
        monkeypatch.setattr(campaign, "_run_with_memo", _synthetic_run)
        record_io(monkeypatch, fail=lambda path: (
            oserror(errno.ENOSPC) if path.parent.name == "claims" else None))
        with pytest.raises(OSError, match=SPECS[0].content_hash()):
            run_campaign(SPECS, tmp_path, shard=(1, 1))

    def test_failed_append_releases_the_claim(self, monkeypatch, tmp_path):
        """ENOSPC on the record segment stops shard 1/2 on its first spec.
        Its claim goes with it, so shard 2/2, started right after, does
        not wait out the lease: it simulates every spec."""
        monkeypatch.setattr(campaign, "_run_with_memo", _synthetic_run)
        disk_full = [True]
        record_io(monkeypatch, fail=lambda path: (
            oserror(errno.ENOSPC)
            if disk_full[0] and path.parent.name == "log" else None))
        with pytest.raises(OSError):
            run_campaign(SPECS, tmp_path, shard=(1, 2))
        store = FingerprintStore(tmp_path)
        assert list(store.claim_dir.glob("*.json")) == []
        disk_full[0] = False
        report = run_campaign(SPECS, tmp_path, shard=(2, 2))
        assert report.misses == len(SPECS)
        assert report.missing(SPECS) == []

    def test_failed_simulation_releases_the_claim(self, monkeypatch,
                                                  tmp_path):
        """A claimed spec whose simulation raises is released on the way
        out; a rerun of the same shard simulates it."""
        bad = SPECS[1]

        def crash(spec, memo):
            if spec == bad:
                raise RuntimeError("simulation failed")
            return make_result(spec)

        monkeypatch.setattr(campaign, "_run_with_memo", crash)
        with pytest.raises(RuntimeError, match="simulation failed"):
            run_campaign(SPECS, tmp_path, shard=(1, 1))
        store = FingerprintStore(tmp_path)
        assert store.claim_holder(bad.content_hash()) is None
        assert list(store.claim_dir.glob("*.json")) == []
        monkeypatch.setattr(campaign, "_run_with_memo", _synthetic_run)
        report = run_campaign(SPECS, tmp_path, shard=(1, 1))
        assert report.missing(SPECS) == []
        assert report.misses == len(SPECS) - 1  # the first spec had landed


# ----------------------------------------------------------------------
# stealing shards
# ----------------------------------------------------------------------
class TestStealingShards:
    def test_one_stealing_shard_completes_the_campaign(self, tmp_path):
        """Shard 1/3 running alone steals the other slices: the whole
        campaign lands in the store, byte-identical to an unsharded run."""
        shared = tmp_path / "shared"
        report = run_campaign(SPECS, shared, shard=(1, 3), name="steal")
        # a stealing report covers the full campaign, not just the slice
        assert report.shard == (1, 3)
        assert len(report.plan.specs) == len(SPECS)
        assert report.misses == len(SPECS) and report.hits == 0
        # positions 0 and 3 are the 1/3 slice; the other two were stolen
        assert report.stolen == 2
        assert report.missing(SPECS) == []
        assert "stolen" in report.summary()

        solo = run_campaign(SPECS, tmp_path / "solo")
        for a, b in zip(report.gather(SPECS), solo.gather(SPECS)):
            assert canonical_result_blob(a) == canonical_result_blob(b)

        # late shards arrive to a finished campaign: pure hits, no claims
        late = run_campaign(SPECS, shared, shard=(2, 3), name="steal")
        assert late.hits == len(SPECS) and late.misses == 0
        assert late.stolen == 0
        assert list((shared / "claims").glob("*.json")) == []

    def test_live_foreign_lease_is_not_raided(self, tmp_path):
        """A fingerprint under a live foreign lease is left alone (its
        holder is presumed working); once the lease goes away the next
        stealing pass finishes the campaign."""
        blocker = FingerprintStore(tmp_path)
        blocked = SPECS[2]
        assert blocker.try_claim(blocked.content_hash(), lease_s=60.0)

        report = run_campaign(SPECS, tmp_path, shard=(1, 1))
        assert report.misses == len(SPECS) - 1
        assert report.missing(SPECS) == [blocked]

        blocker.release_claim(blocked.content_hash())
        again = run_campaign(SPECS, tmp_path, shard=(1, 1))
        assert again.misses == 1 and again.hits == len(SPECS) - 1
        assert again.missing(SPECS) == []

    def test_dead_shards_expired_lease_is_stolen(self, tmp_path):
        """A lease whose writer died (expired timestamp) does not block:
        the stealing shard re-claims and simulates the fingerprint."""
        store = FingerprintStore(tmp_path)
        fp = SPECS[0].content_hash()
        # a dead writer's claim
        store.claim_path(fp).write_text(
            json.dumps({
                "schema": 1, "fingerprint": fp, "writer": "w1-deadbeef",
                "claimed_unix": 0.0, "expires_unix": 1.0,
            }))
        report = run_campaign(SPECS, store, shard=(1, 1))
        assert report.misses == len(SPECS)
        assert report.missing(SPECS) == []

    def test_shard_specs_slice_is_a_hard_split(self, tmp_path):
        """A plain campaign over a shard_specs slice runs exactly that
        slice, takes no claims, and leaves the other slice owed."""
        report = run_campaign(shard_specs(SPECS, 1, 2), tmp_path)
        assert len(report.plan.specs) == 2  # the slice, not the campaign
        assert report.misses == 2 and report.stolen == 0
        assert report.shard is None
        assert len(report.missing(SPECS)) == 2  # other shard's work owed
        assert list((tmp_path / "claims").glob("*.json")) == []

    def test_steal_respects_no_resume(self, tmp_path):
        run_campaign(SPECS[:2], tmp_path, shard=(1, 1))
        report = run_campaign(SPECS[:2], tmp_path, shard=(1, 1), resume=False)
        assert report.hits == 0 and report.misses == 2

    def test_sharded_campaign_resimulates_recorded_traced_spec(self, tmp_path):
        """A traced spec always simulates, sharded or not: a stored
        record carries no trace, so the claim ignores the record."""
        traced = RunSpec("millipede", "count", n_records=N,
                         options=ExecOptions(trace=True))
        store = FingerprintStore(tmp_path)
        run_campaign([traced], store)  # records it
        report = run_campaign([traced], store, shard=(1, 1))
        assert report.misses == 1 and report.hits == 0
        (result,) = report.gather([traced])
        assert result.trace is not None


# ----------------------------------------------------------------------
# SIGKILL'd shard recovery
# ----------------------------------------------------------------------
_CHILD = """
import sys
from repro.sim.campaign import run_campaign
from repro.sim.spec import RunSpec

specs = [RunSpec(a, "count", n_records=%d, seed=s)
         for s in (0, 1) for a in ("ssmc", "millipede")]
run_campaign(specs, sys.argv[1], workers=1, shard=(1, 2), name="steal",
             lease_s=1.0)
""" % N


class TestDeadShardRecovery:
    def test_sigkilled_shards_work_is_stolen(self, tmp_path):
        """SIGKILL a stealing shard mid-campaign; its leases expire and a
        second shard steals the rest, completing the campaign with
        byte-identical merged results."""
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
        assert watch is not None, "child shard never produced a record"

        # the killed shard may leave live leases behind; the survivor
        # keeps passing until they expire (lease_s=1.0 in the child)
        deadline = time.monotonic() + 120.0
        report = None
        while time.monotonic() < deadline:
            report = run_campaign(SPECS, store_dir, shard=(2, 2),
                                  name="steal", lease_s=30.0)
            if not report.missing(SPECS):
                break
            time.sleep(0.2)
        assert report is not None and report.missing(SPECS) == []
        assert report.hits >= 1  # the child's flushed records were reused

        fresh = run_campaign(SPECS, tmp_path / "fresh")
        for a, b in zip(report.gather(SPECS), fresh.gather(SPECS)):
            assert canonical_result_blob(a) == canonical_result_blob(b)


# ----------------------------------------------------------------------
# counters derive from the progress stream, not the plan
# ----------------------------------------------------------------------
class TestStreamDerivedCounters:
    def test_racing_writer_mid_campaign_counts_as_hit(self, tmp_path):
        """A record another shard lands *after* planning but *before* the
        spec's turn is served as a hit - the plan-time done-count would
        have called it a miss.  Deterministic stand-in for a racing
        shard: the first progress event writes a later spec's record."""
        racer = FingerprintStore(tmp_path)
        last = SPECS[-1]
        events: list[BatchProgress] = []

        def progress(event: BatchProgress) -> None:
            events.append(event)
            if len(events) == 1:
                racer.put(last, make_result(last))

        plan = plan_campaign(SPECS, tmp_path)
        assert not plan.done  # nothing recorded at plan time
        report = run_campaign(SPECS, tmp_path, shard=(1, 1), workers=1,
                              progress=progress)
        assert report.hits == 1 and report.resumed == 1
        assert report.misses == len(SPECS) - 1
        served = [e.spec for e in events if e.cached]
        assert served == [last]
        # the stream's cumulative counters agree with the report
        assert events[-1].done == len(SPECS)
        assert events[-1].hits == report.hits
        assert events[-1].misses == report.misses

    @settings(max_examples=10, deadline=None)
    @given(
        prerecorded=st.sets(st.integers(min_value=0, max_value=3)),
        shard=st.sampled_from([None, (1, 1), (2, 2)]),
        resume=st.booleans(),
        workers_hint=st.integers(min_value=1, max_value=2),
    )
    def test_prop_counters_match_event_stream(self, prerecorded, shard,
                                              resume, workers_hint):
        """For any pre-recorded subset and any shard/resume combination,
        the report's counters equal what the BatchProgress stream says
        actually happened (simulation stubbed out - pure bookkeeping)."""
        real = campaign._run_with_memo
        campaign._run_with_memo = _synthetic_run
        try:
            with tempfile.TemporaryDirectory() as tmp:
                store = FingerprintStore(tmp)
                for i in prerecorded:
                    store.put(SPECS[i], make_result(SPECS[i]))
                events: list[BatchProgress] = []
                report = run_campaign(
                    SPECS, store, shard=shard, resume=resume, workers=1,
                    progress=events.append)
                total = len(dedup_specs(SPECS))
                assert len(events) == total
                assert [e.done for e in events] == list(range(1, total + 1))
                assert all(e.total == total for e in events)
                assert report.hits == sum(e.cached for e in events)
                assert report.misses == sum(not e.cached for e in events)
                assert report.resumed == report.hits
                assert report.hits + report.misses == total
                expected_hits = len(prerecorded) if resume else 0
                assert report.hits == expected_hits
                assert events[-1].hits == report.hits
                assert events[-1].misses == report.misses
        finally:
            campaign._run_with_memo = real


# ----------------------------------------------------------------------
# store traffic: claims only when sharded, none on an all-hit resume
# ----------------------------------------------------------------------
class _Counting:
    """Counts FingerprintStore.refresh/try_claim calls on every instance."""

    def __init__(self, monkeypatch):
        self.refresh = self.try_claim = 0
        for name in ("refresh", "try_claim"):
            real = getattr(FingerprintStore, name)

            def counted(store, *args, _name=name, _real=real, **kwargs):
                setattr(self, _name, getattr(self, _name) + 1)
                return _real(store, *args, **kwargs)

            monkeypatch.setattr(FingerprintStore, name, counted)


class TestStoreTraffic:
    @pytest.fixture(autouse=True)
    def _stub_simulation(self, monkeypatch):
        monkeypatch.setattr(campaign, "_run_with_memo", _synthetic_run)

    def test_unsharded_campaign_takes_no_claims(self, monkeypatch, tmp_path):
        store = FingerprintStore(tmp_path)
        calls = _Counting(monkeypatch)
        report = run_campaign(SPECS, store)
        assert report.misses == len(SPECS)
        assert calls.try_claim == 0
        assert calls.refresh == 1  # the plan's
        assert list((tmp_path / "claims").iterdir()) == []

    @pytest.mark.parametrize("shard", [None, (1, 1), (2, 3)])
    def test_all_hit_resume_takes_no_claim_and_no_refresh(
            self, monkeypatch, tmp_path, shard):
        run_campaign(SPECS, tmp_path)
        store = FingerprintStore(tmp_path)
        calls = _Counting(monkeypatch)
        report = run_campaign(SPECS, store, shard=shard)
        assert report.hits == len(SPECS) and report.misses == 0
        assert calls.try_claim == 0
        assert calls.refresh == 1  # the plan's, nothing after it

    def test_sharded_campaign_claims_once_per_simulated_spec(
            self, monkeypatch, tmp_path):
        store = FingerprintStore(tmp_path)
        store.put(SPECS[1], make_result(SPECS[1]))
        calls = _Counting(monkeypatch)
        report = run_campaign(SPECS, store, shard=(1, 2))
        assert report.hits == 1 and report.misses == len(SPECS) - 1
        assert calls.try_claim == report.misses
        assert list((tmp_path / "claims").iterdir()) == []


# ----------------------------------------------------------------------
# worker-memo eviction
# ----------------------------------------------------------------------
class TestMemoEviction:
    def test_memo_evicts_only_the_oldest_build(self, monkeypatch):
        """Hitting _MEMO_LIMIT drops the single oldest BuiltWorkload, not
        the whole memo - the hot newer builds survive by identity."""
        monkeypatch.setattr(campaign, "_MEMO_LIMIT", 2)
        monkeypatch.setattr(campaign, "_execute",
                            lambda spec, wl, built: make_result(spec))
        memo: dict = {}
        s1 = RunSpec("ssmc", "count", n_records=128)
        s2 = RunSpec("ssmc", "count", n_records=192)
        s3 = RunSpec("ssmc", "count", n_records=320)
        campaign._run_with_memo(s1, memo)
        campaign._run_with_memo(s2, memo)
        kept = memo[s2.build_key()]
        assert list(memo) == [s1.build_key(), s2.build_key()]
        campaign._run_with_memo(s3, memo)
        assert list(memo) == [s2.build_key(), s3.build_key()]
        assert memo[s2.build_key()] is kept  # survived, not rebuilt
        # a hit on the survivor does not touch the memo
        campaign._run_with_memo(s2, memo)
        assert list(memo) == [s2.build_key(), s3.build_key()]

    def test_serial_memo_lives_for_the_whole_call(self, monkeypatch, tmp_path):
        """One BuiltWorkload per build key per call, sharded or not."""
        monkeypatch.setattr(campaign, "_execute",
                            lambda spec, wl, built: make_result(spec))
        builds = []
        real = campaign.get_workload

        class Counted:
            def __init__(self, name):
                self._wl = real(name)

            def build(self, *args, **kwargs):
                builds.append(args)
                return self._wl.build(*args, **kwargs)

        monkeypatch.setattr(campaign, "get_workload", Counted)
        # three configs, one build key: only DRAM timing differs
        specs = [RunSpec("millipede", "count", n_records=N,
                         config=DEFAULT_CONFIG.with_dram(t_cas=t))
                 for t in (10, 12, 14)]
        assert len({s.build_key() for s in specs}) == 1
        for i, shard in enumerate((None, (1, 1))):
            builds.clear()
            report = run_campaign(specs, tmp_path / str(i), shard=shard)
            assert report.misses == len(specs)
            assert len(builds) == 1, shard


# ----------------------------------------------------------------------
# store lifecycle: context manager, one-segment-per-writer, no fd leaks
# ----------------------------------------------------------------------
class TestStoreLifecycle:
    def test_context_manager_closes_then_reopens_same_segment(self, tmp_path):
        spec, other = SPECS[0], SPECS[1]
        with FingerprintStore(tmp_path) as store:
            store.put(spec, make_result(spec))
        assert store._segment_file is None  # closed on exit
        # a later put re-opens the *same* segment: still one file on disk
        store.put(other, make_result(other))
        store.close()
        assert len(store.segments()) == 1
        fresh = FingerprintStore(tmp_path)
        assert fresh.fingerprints() == {
            spec.content_hash(), other.content_hash()}

    def test_campaign_run_leaves_no_open_fds(self, tmp_path):
        """Path-coerced stores are closed by run_campaign/api.run_batch:
        repeated campaigns do not accumulate descriptors."""
        from repro import api

        real = campaign._run_with_memo
        campaign._run_with_memo = _synthetic_run
        try:
            # warm up lazy imports/allocations before counting
            run_campaign(SPECS, tmp_path / "warm")
            before = len(os.listdir("/proc/self/fd"))
            for i in range(5):
                run_campaign(SPECS, tmp_path / f"c{i}")
                run_campaign(SPECS, tmp_path / f"c{i}", shard=(1, 2))
                api.run_batch(SPECS, store=tmp_path / f"b{i}")
            after = len(os.listdir("/proc/self/fd"))
        finally:
            campaign._run_with_memo = real
        assert after == before

    def test_campaign_writes_one_segment_per_store_instance(self, tmp_path):
        run_campaign(SPECS, tmp_path)
        assert len(list((tmp_path / "log").glob("*.jsonl"))) == 1

    def test_borrowed_store_stays_open(self, tmp_path):
        """run_campaign closes stores it created, never one handed in."""
        store = FingerprintStore(tmp_path)
        spec = SPECS[0]
        store.put(spec, make_result(spec))
        assert store._segment_file is not None
        run_campaign([spec], store)
        assert store._segment_file is not None  # untouched
        store.close()
