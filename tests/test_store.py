"""FingerprintStore tests: round-trips, index rebuild, crash debris,
injected I/O faults (ENOSPC, EIO, short writes, claim races, lease clock
jumps), and hypothesis property tests for concurrent writers racing on
overlapping spec lists: the store's durability contract."""

from __future__ import annotations

import concurrent.futures
import errno
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Callable, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.energy.model import EnergyBreakdown
from repro.sim import campaign
from repro.sim import store as store_mod
from repro.sim.driver import RunResult, run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import (
    FingerprintStore,
    canonical_result_blob,
    result_from_payload,
    result_to_payload,
)

N = 512


def make_result(spec: RunSpec, finish_ps: int = 1_000_000,
                stats: dict | None = None,
                collected: dict | None = None) -> RunResult:
    """A synthetic (unsimulated) result for store plumbing tests."""
    return RunResult(
        arch=spec.arch,
        workload=spec.workload,
        n_records=spec.n_records or 4096,
        input_words=8 * (spec.n_records or 4096),
        finish_ps=finish_ps,
        energy=EnergyBreakdown(1e-6, 2e-6, 3e-6, 4e-6),
        collected=dict(collected or {"instructions": 123.0}),
        stats=dict(stats or {"dram.row_accesses": 7.0}),
        validated=True,
        host_seconds=0.25,
    )


# ----------------------------------------------------------------------
# unit tests
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_payload_roundtrip_synthetic(self):
        spec = RunSpec("millipede", "count", n_records=N)
        result = make_result(spec)
        back = result_from_payload(result_to_payload(result))
        assert canonical_result_blob(back) == canonical_result_blob(result)
        assert back.finish_ps == result.finish_ps
        assert back.stats == result.stats and back.collected == result.collected
        assert back.energy == result.energy
        assert back.reduced == {} and back.trace is None

    def test_store_roundtrip_real_simulation(self, tmp_path):
        spec = RunSpec("millipede", "count", n_records=N)
        result = run(spec)
        store = FingerprintStore(tmp_path)
        fp = store.put(spec, result)
        assert fp == spec.content_hash()
        assert fp in store and len(store) == 1
        served = store.get_spec(spec)
        assert canonical_result_blob(served) == canonical_result_blob(result)
        # a fresh process (new instance, no index written) sees the record
        again = FingerprintStore(tmp_path)
        assert canonical_result_blob(again.get_spec(spec)) == \
            canonical_result_blob(result)

    def test_get_missing_returns_none(self, tmp_path):
        store = FingerprintStore(tmp_path)
        assert store.get("0" * 16) is None
        assert store.get_spec(RunSpec("millipede", "count", n_records=N)) is None


class TestCrashDebris:
    def test_torn_tail_line_skipped(self, tmp_path):
        """A writer killed mid-append leaves a non-terminated tail; every
        complete record before it survives."""
        store = FingerprintStore(tmp_path)
        spec = RunSpec("millipede", "count", n_records=N)
        store.put(spec, make_result(spec))
        store.close()
        seg = next((tmp_path / "log").glob("*.jsonl"))
        with seg.open("ab") as f:
            f.write(b'{"fingerprint": "torn-and-never-fini')  # no newline
        reader = FingerprintStore(tmp_path)
        assert len(reader) == 1
        assert reader.get_spec(spec) is not None
        assert reader.corrupt_lines == 0  # torn tail is pending, not corrupt

    def test_complete_garbage_line_counted_and_skipped(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec_a = RunSpec("millipede", "count", n_records=N)
        spec_b = RunSpec("ssmc", "count", n_records=N)
        store.put(spec_a, make_result(spec_a))
        store.close()
        seg = next((tmp_path / "log").glob("*.jsonl"))
        with seg.open("ab") as f:
            f.write(b"not json at all\n")
        # records after the corrupt line still index correctly
        writer2 = FingerprintStore(tmp_path)
        writer2.put(spec_b, make_result(spec_b))
        writer2.close()
        reader = FingerprintStore(tmp_path)
        assert reader.corrupt_lines == 1
        assert reader.fingerprints() == {spec_a.content_hash(),
                                         spec_b.content_hash()}

    def test_stale_or_corrupt_index_recovers_from_log(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("millipede", "count", n_records=N)
        store.put(spec, make_result(spec))
        store.write_index()
        store.close()
        (tmp_path / "index.json").write_text("{ definitely truncated")
        reader = FingerprintStore(tmp_path)
        assert reader.get_spec(spec) is not None
        path = reader.rebuild_index()
        snap = json.loads(path.read_text())
        assert spec.content_hash() in snap["records"]


class TestManifests:
    def test_manifest_roundtrip(self, tmp_path):
        store = FingerprintStore(tmp_path)
        specs = [RunSpec(a, "count", n_records=N) for a in ("ssmc", "millipede")]
        store.write_manifest("fig3", specs, shard=(1, 2))
        manifest = store.read_manifest("fig3")
        assert manifest["total"] == 2
        assert manifest["order"] == [s.content_hash() for s in specs]
        assert manifest["shard"] == [1, 2]
        assert "T" in manifest["saved_iso"]  # ISO-8601, not a raw float
        assert store.manifest_specs("fig3") == specs
        assert store.manifest_names() == ["fig3"]

    def test_manifest_name_sanitized(self, tmp_path):
        store = FingerprintStore(tmp_path)
        path = store.write_manifest("fig3 @ 512/rec", [])
        assert path.name == "fig3-512-rec.json"

    def test_manifest_atomic_replace(self, tmp_path):
        store = FingerprintStore(tmp_path)
        specs = [RunSpec("ssmc", "count", n_records=N)]
        store.write_manifest("c", specs)
        store.write_manifest("c", specs * 2)  # dedup: same plan
        assert store.read_manifest("c")["total"] == 1
        assert not list(store.manifest_dir.glob("*.tmp-*"))


# ----------------------------------------------------------------------
# compaction and garbage collection (ISSUE 9 store hygiene)
# ----------------------------------------------------------------------
def _fill(root, arches, seeds) -> dict[str, bytes]:
    """One writer instance per arch (multi-segment store); returns the
    expected fingerprint -> canonical blob mapping."""
    expect: dict[str, bytes] = {}
    for arch in arches:
        with FingerprintStore(root) as writer:
            for seed in seeds:
                spec = RunSpec(arch, "count", n_records=N, seed=seed)
                result = make_result(spec)
                expect[writer.put(spec, result)] = \
                    canonical_result_blob(result)
    return expect


class TestCompaction:
    def test_compact_collapses_multi_writer_segments(self, tmp_path):
        expect = _fill(tmp_path, ("ssmc", "millipede", "gpgpu"), (0, 1))
        store = FingerprintStore(tmp_path)
        assert len(store.segments()) == 3
        summary = store.compact()
        assert summary["compacted"] is True
        assert summary["records"] == len(expect)
        assert summary["segments_before"] == 3
        assert summary["segments_after"] == 1
        assert summary["segments_retired"] == 3
        # contents identical through the compacting instance...
        assert store.fingerprints() == frozenset(expect)
        for fp, blob in expect.items():
            assert canonical_result_blob(store.get(fp)) == blob
        # ...through a fresh instance (index snapshot)...
        fresh = FingerprintStore(tmp_path)
        assert fresh.fingerprints() == frozenset(expect)
        # ...and through a full rebuild from the log alone
        fresh.rebuild_index()
        assert fresh.fingerprints() == frozenset(expect)
        assert not list((tmp_path / "log").glob("*.tmp-*"))

    def test_compact_drops_superseded_duplicates(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("ssmc", "count", n_records=N)
        store.put(spec, make_result(spec))
        store.put(spec, make_result(spec))  # duplicate line
        summary = store.compact()
        assert summary["compacted"] is True
        assert summary["records"] == 1
        assert summary["bytes_after"] < summary["bytes_before"]

    def test_compact_noop_on_single_clean_segment(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("ssmc", "count", n_records=N)
        store.put(spec, make_result(spec))
        before = store.segments()
        summary = store.compact()
        assert summary["compacted"] is False
        assert summary["segments_retired"] == 0
        assert store.segments() == before
        assert store.get_spec(spec) is not None

    def test_interrupted_retirement_recovers(self, tmp_path, monkeypatch):
        """A crash between publishing the compacted segment and retiring
        the old ones leaves duplicates - tolerated by the scan model and
        cleaned up by the next compact()."""
        expect = _fill(tmp_path, ("ssmc", "millipede"), (0,))
        store = FingerprintStore(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(Path, "unlink",
                      lambda self, *a, **k: (_ for _ in ()).throw(
                          OSError("injected crash")))
            summary = store.compact()
        # published but retired nothing: every record now duplicated
        assert summary["compacted"] is True
        assert summary["segments_retired"] == 0
        assert summary["segments_after"] == 3
        assert store.fingerprints() == frozenset(expect)
        for fp, blob in expect.items():
            assert canonical_result_blob(store.get(fp)) == blob
        # a reader that never saw the crash recovers the same mapping
        fresh = FingerprintStore(tmp_path)
        fresh.rebuild_index()
        assert fresh.fingerprints() == frozenset(expect)
        # the next compact (unlink restored) finishes the job
        summary = fresh.compact()
        assert summary["compacted"] is True
        assert summary["segments_after"] == 1
        assert fresh.fingerprints() == frozenset(expect)

    def test_max_segment_bytes_rolls_then_compact_collapses(self, tmp_path):
        store = FingerprintStore(tmp_path, max_segment_bytes=1)
        expect: dict[str, bytes] = {}
        for seed in range(4):
            spec = RunSpec("ssmc", "count", n_records=N, seed=seed)
            result = make_result(spec)
            expect[store.put(spec, result)] = \
                canonical_result_blob(result)
        assert len(store.segments()) == 4  # every put rolled
        summary = store.compact()
        assert summary["segments_after"] == 1
        assert store.fingerprints() == frozenset(expect)
        for fp, blob in expect.items():
            assert canonical_result_blob(store.get(fp)) == blob

    def test_gc_sweeps_debris_keeps_live_state(self, tmp_path):
        store = FingerprintStore(tmp_path)
        spec = RunSpec("ssmc", "count", n_records=N)
        store.put(spec, make_result(spec))
        # debris: crashed atomic writes, an expired claim, empty segment
        (tmp_path / "index.json.tmp-999-dead").write_text("{")
        (tmp_path / "manifests" / "c.json.tmp-999-dead").write_text("{")
        (tmp_path / "log" / "w999-dead.jsonl").write_text("")
        assert store.try_claim("a" * 64, lease_s=0.01)
        assert store.try_claim("b" * 64, lease_s=60.0)  # live: kept
        import time as _time
        _time.sleep(0.05)
        summary = store.gc()
        assert summary["tmp_files_removed"] == 2
        assert summary["stale_claims_removed"] == 1
        assert summary["empty_segments_removed"] == 1
        assert store.claim_holder("b" * 64) == store.writer_id
        assert store.get_spec(spec) is not None
        assert not list(tmp_path.glob("*.tmp-*"))


# ----------------------------------------------------------------------
# injected I/O faults
# ----------------------------------------------------------------------
def oserror(code: int) -> OSError:
    return OSError(code, os.strerror(code))


class _LoggedFile:
    """A file opened for writing whose ``write``/``flush`` calls are
    logged; ``fail(path)`` may turn a write into a short write followed
    by the returned error."""

    def __init__(self, f, path: Path, log: list,
                 fail: Callable[[Path], Optional[OSError]]):
        self._f, self._path, self._log, self._fail = f, path, log, fail

    def write(self, data):
        self._log.append(("write", self._path))
        exc = self._fail(self._path)
        if exc is not None:
            self._f.write(data[:len(data) // 2])
            self._f.flush()
            raise exc
        return self._f.write(data)

    def flush(self):
        self._log.append(("flush", self._path))
        self._f.flush()

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def record_io(monkeypatch, fail=lambda path: None) -> list:
    """Log the store's write-side I/O in call order: ``("write", path)``
    and ``("flush", path)`` on files opened for writing, ``("fsync",)``
    and ``("replace", src, dst)``.  ``fail(path)`` returns the error a
    write to ``path`` raises after a short write, or None."""
    log: list = []
    real_open, real_fsync, real_replace = Path.open, os.fsync, os.replace

    def open_(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        return f if mode.strip("bt") == "r" else _LoggedFile(f, self, log,
                                                              fail)

    def fsync(fd):
        log.append(("fsync",))
        real_fsync(fd)

    def replace(src, dst):
        log.append(("replace", Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(Path, "open", open_)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def _ops(log: list) -> list[str]:
    """The logged operation names, repeated writes to one file once."""
    return [entry[0] for i, entry in enumerate(log)
            if i == 0 or entry != log[i - 1]]


def _two_writer_store(root) -> tuple[FingerprintStore, list[RunSpec]]:
    """A store with two segments (so compaction has work) and a manifest."""
    specs = [RunSpec("ssmc", "count", n_records=N, seed=s) for s in (0, 1)]
    for spec in specs:
        with FingerprintStore(root) as writer:
            writer.put(spec, make_result(spec))
    store = FingerprintStore(root)
    store.write_manifest("c", specs)
    return store, specs


class TestStoreFaults:
    @pytest.mark.parametrize("fault", ["fsync-eio", "write-enospc"])
    def test_failed_publish_leaves_live_files_intact(self, tmp_path,
                                                     monkeypatch, fault):
        """A publish that fails midway changes no live file: index,
        manifest and claim keep their bytes, compaction retires nothing,
        reopening serves every record and gc() sweeps the temp debris."""
        store, specs = _two_writer_store(tmp_path)
        fp = "c" * 64
        assert store.try_claim(fp)
        store.write_index()
        live = {path: path.read_bytes() for path in (
            tmp_path / "index.json", store.manifest_path("c"),
            store.claim_path(fp))}
        segments = store.segments()
        publishers = [
            (store.write_index, tmp_path / "index.json"),
            (lambda: store.write_manifest("c", specs[:1]),
             store.manifest_path("c")),
            (lambda: store.try_claim(fp), store.claim_path(fp)),
            (store.compact, store.log_dir),
        ]
        with monkeypatch.context() as m:
            if fault == "fsync-eio":
                m.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(
                    oserror(errno.EIO)))
            else:
                record_io(m, fail=lambda path: oserror(errno.ENOSPC))
            for publish, names in publishers:
                with pytest.raises(OSError, match="cannot publish") as info:
                    publish()
                assert str(names) in str(info.value)
        assert {path: path.read_bytes() for path in live} == live
        assert store.segments() == segments
        fresh = FingerprintStore(tmp_path)
        for spec in specs:
            assert canonical_result_blob(fresh.get_spec(spec)) == \
                canonical_result_blob(make_result(spec))
        assert fresh.claim_holder(fp) == store.writer_id
        assert fresh.gc()["tmp_files_removed"] == len(publishers)
        assert not list(tmp_path.rglob("*.tmp-*"))

    def test_every_publisher_writes_flushes_fsyncs_then_replaces(
            self, tmp_path, monkeypatch):
        """Index, manifest, claim and compaction each stage a temp file,
        flush and fsync it, and only then replace the live name; a record
        append is one write plus a flush."""
        store, specs = _two_writer_store(tmp_path)
        log = record_io(monkeypatch)
        spec = RunSpec("gpgpu", "count", n_records=N)
        publishers = [
            (store.write_index, 1),
            (lambda: store.write_manifest("c", specs), 1),
            (lambda: store.try_claim("f" * 64), 1),
            (store.compact, 2),  # the compacted segment, then the index
        ]
        for publish, count in publishers:
            log.clear()
            publish()
            assert _ops(log) == ["write", "flush", "fsync", "replace"] * count
            for i, entry in enumerate(log):
                if entry[0] == "replace":
                    staged, live = entry[1], entry[2]
                    assert log[i - 2] == ("flush", staged)
                    assert staged != live and staged.parent == live.parent
        first = next(entry for entry in log if entry[0] == "replace")
        assert first[2].suffix == ".jsonl"  # compaction's segment
        log.clear()
        store.put(spec, make_result(spec))
        assert _ops(log) == ["write", "flush"]

    def test_two_writers_stage_to_distinct_temp_names(self, tmp_path,
                                                      monkeypatch):
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        log = record_io(monkeypatch)
        fp = "d" * 64
        for writer in (a, b):
            writer.write_index()
            writer.write_manifest("c", [])
            assert writer.try_claim(fp)
            writer.release_claim(fp)
        staged: dict[Path, set[Path]] = {}
        for entry in log:
            if entry[0] == "replace":
                staged.setdefault(entry[2], set()).add(entry[1])
        assert len(staged) == 3
        assert all(len(temps) == 2 for temps in staged.values())

    def test_claim_lost_between_publish_and_readback(self, tmp_path,
                                                     monkeypatch):
        """B checked for a holder before A's claim landed and publishes
        right after it: the read-back, not A's own check, decides that B
        holds the lease."""
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        fp = "e" * 64
        real_replace = os.replace

        def replace(src, dst):
            real_replace(src, dst)
            if Path(dst) == a.claim_path(fp):
                monkeypatch.setattr(os, "replace", real_replace)
                monkeypatch.setattr(b, "claim_holder", lambda fp: None)
                assert b.try_claim(fp)

        monkeypatch.setattr(os, "replace", replace)
        assert not a.try_claim(fp)
        assert a.claim_holder(fp) == b.writer_id

    def test_lease_runs_on_the_wall_clock(self, tmp_path, monkeypatch):
        """Lease deadlines are wall-clock (``time.time``) so any process
        or host can read them: a jump past the expiry frees the lease, a
        jump backwards keeps it with its holder."""
        clock = [1.0e9]
        monkeypatch.setattr(store_mod.time, "time", lambda: clock[0])
        a, b = FingerprintStore(tmp_path), FingerprintStore(tmp_path)
        fp = "f" * 64
        assert a.try_claim(fp, lease_s=30.0)
        assert a.read_claim(fp)["expires_unix"] - clock[0] == \
            pytest.approx(30.0)
        clock[0] -= 3600.0
        assert not b.try_claim(fp)
        assert b.claim_holder(fp) == a.writer_id
        clock[0] += 3600.0 + 31.0
        assert a.claim_holder(fp) is None
        assert b.try_claim(fp)
        assert a.claim_holder(fp) == b.writer_id

    def test_failed_append_never_glues_the_next_record_on(self, tmp_path,
                                                          monkeypatch):
        """A short write then ENOSPC tears B's line.  C, put after it,
        must survive a reopen instead of being appended onto the torn
        bytes as one corrupt line."""
        a, b, c = (RunSpec("ssmc", "count", n_records=N, seed=s)
                   for s in range(3))
        faults = iter([None, oserror(errno.ENOSPC)])  # B's write is torn
        store = FingerprintStore(tmp_path)
        record_io(monkeypatch, fail=lambda path: next(faults, None))
        store.put(a, make_result(a))
        with pytest.raises(OSError) as info:
            store.put(b, make_result(b))
        store.put(c, make_result(c))
        store.close()
        fresh = FingerprintStore(tmp_path)
        for _ in range(2):  # as reopened, then rebuilt from the log alone
            assert fresh.corrupt_lines == 0
            assert fresh.fingerprints() == {a.content_hash(),
                                            c.content_hash()}
            assert canonical_result_blob(fresh.get_spec(c)) == \
                canonical_result_blob(make_result(c))
            fresh.rebuild_index()
        assert b.content_hash() in str(info.value)


class TestPerProcessStore:
    def test_store_refuses_to_pickle(self, tmp_path):
        """A pickled copy would share the writer id, so two processes
        would sign claims and name segments as one writer."""
        store = FingerprintStore(tmp_path)
        with pytest.raises(TypeError, match=str(tmp_path)):
            pickle.dumps(store)

    def test_pool_tasks_carry_only_specs(self, tmp_path, monkeypatch):
        """What the campaign loop submits to its process pool pickles,
        and carries specs, never the parent's store."""
        tasks: list = []

        class InlinePool:
            """Pickles each task like a process pool, runs it inline."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fn, args = pickle.loads(pickle.dumps((fn, args)))
                tasks.append((fn, args))
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(campaign, "_run_with_memo",
                            lambda spec, memo: make_result(spec))
        specs = [RunSpec("ssmc", "count", n_records=N, seed=s)
                 for s in range(3)]
        report = campaign.run_campaign(specs, tmp_path, workers=2,
                                       shard=(1, 1))
        assert report.misses == len(specs)
        assert tasks == [(campaign._pool_run, (spec,)) for spec in specs]


# ----------------------------------------------------------------------
# hypothesis property tests
# ----------------------------------------------------------------------
_ARCHES = ("millipede", "ssmc", "gpgpu", "multicore")
_OPTIONS = (ExecOptions(), ExecOptions(sanitize=True),
            ExecOptions(validate=False), ExecOptions(backend="vector"))

spec_st = st.builds(
    RunSpec,
    arch=st.sampled_from(_ARCHES),
    workload=st.sampled_from(("count", "variance", "kmeans")),
    n_records=st.sampled_from((256, 512, 1024)),
    seed=st.integers(min_value=0, max_value=3),
    options=st.sampled_from(_OPTIONS),
)

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
stats_st = st.dictionaries(
    st.sampled_from(("dram.row_accesses", "pb.occupancy", "core.cycles")),
    _finite, max_size=3)

record_st = st.tuples(spec_st, st.integers(min_value=0, max_value=2**48),
                      stats_st)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(record_st, min_size=1, max_size=8))
def test_prop_roundtrip_and_index_rebuild(records):
    """Every appended record round-trips byte-stably, and the index rebuilt
    from the append-only log alone equals the incrementally-built one."""
    with tempfile.TemporaryDirectory() as root:
        store = FingerprintStore(root)
        expect: dict[str, bytes] = {}
        for spec, finish_ps, stats in records:
            result = make_result(spec, finish_ps=finish_ps, stats=stats)
            fp = store.put(spec, result)
            expect[fp] = canonical_result_blob(result)  # last write wins
        store.write_index()
        store.close()

        fresh = FingerprintStore(root)
        assert fresh.fingerprints() == frozenset(expect)
        for fp, blob in sorted(expect.items()):
            assert canonical_result_blob(fresh.get(fp)) == blob

        (Path(root) / "index.json").unlink()
        rebuilt = FingerprintStore(root)
        rebuilt.rebuild_index()
        assert rebuilt.fingerprints() == frozenset(expect)
        for fp, blob in sorted(expect.items()):
            assert canonical_result_blob(rebuilt.get(fp)) == blob


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(spec_st, min_size=1, max_size=6, unique_by=lambda s:
                   s.content_hash()),
    overlap=st.data(),
)
def test_prop_concurrent_writers_never_drop_or_corrupt(specs, overlap):
    """Two writers with overlapping spec lists, interleaved in any order,
    never corrupt or drop records: the merged store holds every spec,
    each served record byte-equal to what some writer stored."""
    with tempfile.TemporaryDirectory() as root:
        picks = overlap.draw(st.lists(st.booleans(), min_size=len(specs),
                                      max_size=len(specs)))
        list_a = list(specs)
        list_b = [s for s, keep in zip(specs, picks) if keep] or [specs[0]]
        # distinct instances = distinct writer processes (own segments)
        writer_a = FingerprintStore(root)
        writer_b = FingerprintStore(root)
        queue = ([("a", s) for s in list_a] + [("b", s) for s in list_b])
        order = overlap.draw(st.permutations(range(len(queue))))
        blobs: dict[str, set[bytes]] = {}
        for i in order:
            who, spec = queue[i]
            writer = writer_a if who == "a" else writer_b
            result = make_result(spec, finish_ps=1000 + i)
            writer.put(spec, result)
            blobs.setdefault(spec.content_hash(), set()).add(
                canonical_result_blob(result))
        writer_a.close()
        writer_b.close()

        merged = FingerprintStore(root)
        assert merged.fingerprints() == frozenset(blobs)
        assert merged.corrupt_lines == 0
        for fp in sorted(blobs):
            assert canonical_result_blob(merged.get(fp)) in blobs[fp]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(record_st, min_size=1, max_size=6))
def test_prop_refresh_is_incremental(records):
    """A long-lived reader refresh()ing between another writer's appends
    indexes exactly the records written so far, never re-reading old
    bytes into different results."""
    with tempfile.TemporaryDirectory() as root:
        reader = FingerprintStore(root)
        writer = FingerprintStore(root)
        seen: set[str] = set()
        for spec, finish_ps, stats in records:
            writer.put(spec, make_result(spec, finish_ps=finish_ps,
                                              stats=stats))
            seen.add(spec.content_hash())
            reader.refresh()
            assert reader.fingerprints() == frozenset(seen)
        writer.close()
