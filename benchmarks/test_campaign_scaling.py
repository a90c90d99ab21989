"""Campaign-runner benchmark: a Fig.-3-shaped sweep through ``run_batch``
and the persistent fingerprint store.

Times the batch API end to end (spec dedup, per-worker build reuse,
multiprocess dispatch) and asserts parallel results are bit-identical to
serial ones.  On a multi-core machine the ``workers=2`` regeneration
should beat the serial one; on a single core it only checks overhead
stays bounded.  The store tests time the same sweep cold (simulating
into an empty store) vs. warm (resumed: every spec a store hit) and
record both into ``BENCH_campaign.json`` - the resume path must be
dramatically cheaper than simulation for crash-recovery and sharding to
pay off.
"""

from __future__ import annotations

import time

import pytest

from conftest import FAST_RECORDS, record_bench, run_once
from repro.sim.campaign import cross, run_batch, run_campaign, shard_specs
from repro.sim.options import ExecOptions
from repro.sim.store import FingerprintStore, canonical_result_blob

ARCHES = ["gpgpu", "ssmc", "millipede"]
BENCHES = ["count", "variance", "kmeans"]


@pytest.fixture(scope="module")
def serial_batch():
    specs = cross(ARCHES, BENCHES, n_records=FAST_RECORDS)
    t0 = time.perf_counter()
    results = run_batch(specs, workers=1)
    return specs, results, time.perf_counter() - t0


def test_batch_serial(benchmark, fast_records):
    specs = cross(ARCHES, BENCHES, n_records=fast_records)
    results = run_once(benchmark, run_batch, specs, workers=1)
    assert [(r.arch, r.workload) for r in results] == [
        (s.arch, s.workload) for s in specs
    ]


def test_batch_two_workers_identical(benchmark, fast_records, serial_batch):
    specs, serial, _ = serial_batch
    parallel = run_once(benchmark, run_batch, specs, workers=2)
    for a, b in zip(serial, parallel):
        assert a.finish_ps == b.finish_ps
        assert a.collected == b.collected
        assert a.stats == b.stats


def test_batch_vector_backend_identical(benchmark, fast_records, serial_batch):
    """The same Fig.-3-shaped sweep through the fast backend: identical
    results, and both batch wall-clocks land in ``BENCH_campaign.json``
    (the campaign-serving numbers the backend exists to improve)."""
    specs, serial, t_ref = serial_batch

    vec_specs = cross(ARCHES, BENCHES, n_records=fast_records,
                      options=ExecOptions(backend="vector"))
    t0 = time.perf_counter()
    vector = run_once(benchmark, run_batch, vec_specs, workers=1)
    t_vec = time.perf_counter() - t0

    for a, b in zip(serial, vector):
        assert a.finish_ps == b.finish_ps
        assert a.collected == b.collected
        assert a.stats == b.stats

    record_bench("batch", {
        "arches": ARCHES,
        "benches": BENCHES,
        "n_records": fast_records,
        "workers": 1,
        "reference_s": round(t_ref, 4),
        "vector_s": round(t_vec, 4),
        "speedup": round(t_ref / t_vec, 3),
    }, file="campaign")


def test_store_cold_vs_warm(benchmark, fast_records, serial_batch, tmp_path):
    """Cold campaign (simulate + record) vs. warm campaign (pure store
    hits): the warm pass must re-simulate nothing, serve byte-identical
    records, and be far cheaper than simulation."""
    specs, serial, _ = serial_batch
    store = FingerprintStore(tmp_path / "store")

    t0 = time.perf_counter()
    cold = run_campaign(specs, store, workers=1, name="bench")
    t_cold = time.perf_counter() - t0
    assert cold.hits == 0 and cold.misses == len(specs)

    def warm_pass():
        return run_campaign(specs, FingerprintStore(tmp_path / "store"),
                            workers=1, name="bench")

    t0 = time.perf_counter()
    warm = run_once(benchmark, warm_pass)
    t_warm = time.perf_counter() - t0
    assert warm.hits == len(specs) and warm.misses == 0  # zero re-simulation
    for a, b in zip(serial, warm.gather(specs)):
        assert canonical_result_blob(a) == canonical_result_blob(b)
    assert t_warm < t_cold  # resume must beat re-simulation outright

    record_bench("store", {
        "arches": ARCHES,
        "benches": BENCHES,
        "n_records": fast_records,
        "specs": len(specs),
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "warm_speedup": round(t_cold / t_warm, 3),
        "warm_hits": warm.hits,
        "warm_misses": warm.misses,
    }, file="campaign")


def _two_shard_campaign(specs, root, steal, slow_sleep_s):
    """Run the sweep as two concurrent shard threads against one store,
    shard 1 a straggler (sleeps after every spec it *simulates* - a slow
    machine, not slow bookkeeping).  With ``steal`` each thread runs the
    sharded campaign (its slice is a claim-order hint); without it each
    runs a plain campaign over its ``shard_specs`` slice (the static
    split).  Returns (wall_s, reports)."""
    import threading

    reports = [None, None]

    def shard_body(i):
        def drag(event):
            if not event.cached:
                time.sleep(slow_sleep_s)

        if steal:
            work, kwargs = specs, dict(shard=(i, 2), lease_s=60.0)
            name = "straggler"
        else:
            # a hard split's manifest holds its slice: one name per slice
            work, kwargs = shard_specs(specs, i, 2), {}
            name = f"straggler-{i}"
        reports[i - 1] = run_campaign(
            work, FingerprintStore(root), name=name,
            progress=drag if i == 1 else None, **kwargs)

    threads = [threading.Thread(target=shard_body, args=(i,)) for i in (1, 2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, reports


def test_steal_straggler(benchmark, fast_records, serial_batch, tmp_path):
    """Work-stealing vs. the static split under a straggler shard: the
    idle shard must steal the slow shard's pending work, so campaign
    wall-clock tracks max(shard) instead of the straggler's full slice -
    with byte-identical merged results."""
    specs, serial, _ = serial_batch
    slow_sleep_s = 1.0

    nosteal_s, nosteal = run_once(
        benchmark, _two_shard_campaign, specs, tmp_path / "static",
        False, slow_sleep_s)
    assert sum(r.misses for r in nosteal) == len(specs)

    steal_s, reports = _two_shard_campaign(
        specs, tmp_path / "steal", True, slow_sleep_s)
    assert sum(r.misses for r in reports) == len(specs)
    stolen = sum(r.stolen for r in reports)
    assert stolen >= 1  # the fast shard raided the straggler's slice
    assert not reports[-1].missing(specs)
    assert steal_s < nosteal_s  # stealing must beat the static split
    for a, b in zip(serial, reports[-1].gather(specs)):
        assert canonical_result_blob(a) == canonical_result_blob(b)

    record_bench("steal", {
        "arches": ARCHES,
        "benches": BENCHES,
        "n_records": fast_records,
        "specs": len(specs),
        "shards": 2,
        "straggler_sleep_s": slow_sleep_s,
        "nosteal_s": round(nosteal_s, 4),
        "steal_s": round(steal_s, 4),
        "steal_speedup": round(nosteal_s / steal_s, 3),
        "stolen": stolen,
    }, file="campaign")


def test_store_compact_bench(benchmark, fast_records, serial_batch, tmp_path):
    """Segment compaction on a multi-writer store: collapse to one
    segment with identical contents, and record the cost."""
    specs, serial, _ = serial_batch
    root = tmp_path / "store"
    for i in range(0, len(specs), 3):  # 3 writer instances -> 3 segments
        with FingerprintStore(root) as writer:
            for spec, result in zip(specs[i:i + 3], serial[i:i + 3]):
                writer.put(spec, result)

    store = FingerprintStore(root)
    before = store.fingerprints()
    segments_before = len(store.segments())
    assert segments_before == 3

    t0 = time.perf_counter()
    summary = run_once(benchmark, store.compact)
    t_compact = time.perf_counter() - t0

    assert summary["compacted"] is True
    assert summary["segments_after"] == 1
    assert store.fingerprints() == before
    for spec, result in zip(specs, serial):
        assert canonical_result_blob(store.get_spec(spec)) == \
            canonical_result_blob(result)

    record_bench("compact", {
        "records": summary["records"],
        "segments_before": segments_before,
        "segments_after": summary["segments_after"],
        "bytes_before": summary["bytes_before"],
        "bytes_after": summary["bytes_after"],
        "compact_s": round(t_compact, 4),
    }, file="campaign")
