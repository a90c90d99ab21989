"""Tests for the RunSpec batch API and the multiprocess campaign runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.campaign import BatchProgress, cross, run_batch
from repro.sim.driver import RunResult
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore

N = 512  #: small enough to keep the multiprocess tests quick

#: the campaign parity set: SIMT + MIMD + barrier variants
PAIRS = [("gpgpu", "count"), ("ssmc", "variance"), ("millipede", "count")]


def assert_same_simulation(a: RunResult, b: RunResult) -> None:
    """Bit-identical simulation outcome (host wall-clock may differ)."""
    assert a.arch == b.arch and a.workload == b.workload
    assert a.finish_ps == b.finish_ps
    assert a.n_records == b.n_records and a.input_words == b.input_words
    assert a.collected == b.collected
    assert a.stats == b.stats
    assert a.energy == b.energy
    assert set(a.reduced) == set(b.reduced)
    for key in a.reduced:
        assert np.array_equal(np.asarray(a.reduced[key]), np.asarray(b.reduced[key]))


class TestRunSpec:
    def test_roundtrip(self):
        spec = RunSpec("millipede-rm", "kmeans",
                       config=DEFAULT_CONFIG.with_dram(t_cas=10),
                       n_records=N, seed=3,
                       options=ExecOptions(validate=False))
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.content_hash() == spec.content_hash()

    def test_hash_sensitive_to_fields(self):
        base = RunSpec("millipede", "count", n_records=N)
        assert base.content_hash() != base.replace(seed=1).content_hash()
        assert base.content_hash() != base.replace(arch="ssmc").content_hash()
        assert (base.content_hash() !=
                base.replace(config=DEFAULT_CONFIG.with_dram(t_cas=10)).content_hash())

    def test_unknown_arch_rejected(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            RunSpec("not-an-arch", "count")

    def test_bad_records_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("millipede", "count", n_records=0)

    def test_derived_build_params(self):
        simt = RunSpec("gpgpu", "count")
        mimd = RunSpec("millipede-bar", "count")
        assert simt.traversal == "interleaved" and not simt.needs_barriers
        assert mimd.traversal == "chunked" and mimd.needs_barriers
        assert simt.n_threads == 128
        assert RunSpec("multicore", "count").n_threads == 32

    def test_run_accepts_spec(self):
        spec = RunSpec("millipede", "count", n_records=N)
        assert_same_simulation(run(spec), run("millipede", "count", n_records=N))

    def test_run_spec_rejects_extra_workload(self):
        with pytest.raises(TypeError):
            run(RunSpec("millipede", "count", n_records=N), "count")

    def test_config_dict_roundtrip(self):
        cfg = DEFAULT_CONFIG.with_millipede(rate_match=True).with_gpgpu(warp_width=16)
        assert SystemConfig.from_dict(cfg.as_canonical_dict()) == cfg
        with pytest.raises(KeyError):
            SystemConfig.from_dict({"nonsense": {}})


class TestRunBatch:
    def test_parallel_matches_serial(self):
        """workers=2 is bit-identical to one-at-a-time run()."""
        specs = [RunSpec(a, wl, n_records=N) for a, wl in PAIRS]
        batch = run_batch(specs, workers=2)
        for spec, result in zip(specs, batch):
            assert_same_simulation(result, run(spec))

    def test_results_align_with_specs(self):
        specs = cross(["ssmc", "millipede"], ["count"], n_records=N)
        batch = run_batch(specs, workers=1)
        assert [(r.arch, r.workload) for r in batch] == [
            ("ssmc", "count"), ("millipede", "count")
        ]

    def test_dedup_collapses_duplicates(self):
        spec = RunSpec("millipede", "count", n_records=N)
        events: list[BatchProgress] = []
        batch = run_batch([spec, spec.replace(), spec], workers=1,
                          progress=events.append)
        assert len(batch) == 3
        assert len(events) == 1 and not events[0].cached
        assert batch[0] is batch[1] is batch[2]

    def test_warm_cache_skips_all_simulation(self, tmp_path):
        store = FingerprintStore(tmp_path)
        specs = [RunSpec(a, wl, n_records=N) for a, wl in PAIRS]
        cold: list[BatchProgress] = []
        first = run_batch(specs, workers=1, store=store, progress=cold.append)
        assert sum(not e.cached for e in cold) == len(specs)

        warm: list[BatchProgress] = []
        second = run_batch(specs, workers=2, store=store, progress=warm.append)
        assert all(e.cached for e in warm)  # zero re-simulations
        for a, b in zip(first, second):
            assert a.finish_ps == b.finish_ps
            assert a.collected == b.collected

    def test_cached_progress_reports_zero_host_seconds(self, tmp_path):
        # regression: host_seconds promised "0-ish for cache hits" but
        # returned the original simulation's wall-clock, inflating
        # campaign ETA estimates on warm stores
        store = FingerprintStore(tmp_path)
        spec = RunSpec("millipede", "count", n_records=N)
        cold: list[BatchProgress] = []
        run_batch([spec], workers=1, store=store, progress=cold.append)
        warm: list[BatchProgress] = []
        run_batch([spec], workers=1, store=store, progress=warm.append)
        assert not cold[0].cached and cold[0].host_seconds > 0
        assert cold[0].sim_host_seconds == cold[0].host_seconds
        assert warm[0].cached
        assert warm[0].host_seconds == 0.0  # this batch did no simulation
        assert warm[0].sim_host_seconds > 0  # the original run's wall-clock
        assert "cached" in str(warm[0])

    def test_progress_counts(self):
        specs = cross(["ssmc", "millipede"], ["count"], n_records=N)
        events: list[BatchProgress] = []
        run_batch(specs, workers=1, progress=events.append)
        assert [e.done for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert "ssmc/count" in str(events[0])

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(KeyError, match="unknown workload"):
            run_batch([RunSpec("millipede", "no-such-workload")])

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            run_batch([("millipede", "count")])  # type: ignore[list-item]

    def test_heterogeneous_configs_in_one_batch(self):
        cfgs = [DEFAULT_CONFIG, DEFAULT_CONFIG.with_dram(t_cas=27)]
        specs = [RunSpec("millipede", "count", config=c, n_records=N) for c in cfgs]
        events: list[BatchProgress] = []
        batch = run_batch(specs, workers=1, progress=events.append)
        assert len(events) == 2  # different configs are not deduped
        assert batch[0].finish_ps != batch[1].finish_ps  # configs really differ


class TestLegacySurface:
    def test_run_legacy_signature_unchanged(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no DeprecationWarning on legacy path
            r = run("millipede", "count", n_records=N)
        assert r.validated

    def test_package_exports(self):
        import repro
        from repro import api

        assert repro.RunSpec is RunSpec
        # the package's run entry points are the facade's
        assert repro.run is api.run and repro.run_batch is api.run_batch
        assert "RunSpec" in repro.__all__ and "run_batch" in repro.__all__
