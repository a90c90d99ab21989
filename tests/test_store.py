"""FingerprintStore tests: round-trips, index rebuild, crash debris, and
hypothesis property tests for concurrent writers racing on overlapping
spec lists (ISSUE 7 satellite: the store's durability contract)."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.energy.model import EnergyBreakdown
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
        # (fixed temp names ARE the debris being tested; docs/linting.md)
        (tmp_path / "index.json.tmp-999-dead").write_text(  # repro-lint: disable=FS003
            "{")
        (tmp_path / "manifests" / "c.json.tmp-999-dead").write_text(  # repro-lint: disable=FS003
            "{")
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
