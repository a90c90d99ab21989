"""Tests for the run driver, result metrics, and config fingerprints."""

from __future__ import annotations

import pytest

from repro.api import run, sweep
from repro.config import SystemConfig
from repro.sim.options import ExecOptions


@pytest.fixture(scope="module")
def count_result():
    return run("millipede", "count", n_records=2048)


class TestRunResult:
    def test_metrics_consistent(self, count_result):
        r = count_result
        assert r.runtime_s == pytest.approx(r.finish_ps / 1e12)
        assert r.throughput_words_per_s == pytest.approx(r.input_words / r.runtime_s)
        assert r.insts_per_word > 1
        assert 0 < r.branches_per_inst < 1
        assert r.energy_per_word_j > 0
        assert r.energy_delay == pytest.approx(r.energy.total_j * r.runtime_s)

    def test_speedup_over(self, count_result):
        assert count_result.speedup_over(count_result) == pytest.approx(1.0)

    def test_summary_renders(self, count_result):
        s = count_result.summary()
        assert "millipede" in s and "count" in s

    def test_reduced_results_present(self, count_result):
        assert "counts" in count_result.reduced

    def test_validate_false_skips_reduction(self):
        r = run("millipede", "count", n_records=2048,
                options=ExecOptions(validate=False))
        assert r.reduced == {}
        assert not r.validated


class TestRunMany:
    def test_shares_built_workload(self):
        results = sweep(["ssmc", "millipede"], ["count"], n_records=2048)
        assert set(results) == {("ssmc", "count"), ("millipede", "count")}
        # identical data: identical reductions
        assert (results["ssmc", "count"].reduced["invalid"]
                == results["millipede", "count"].reduced["invalid"])

    def test_different_seeds_change_data(self):
        a = run("millipede", "count", n_records=2048, seed=0)
        b = run("millipede", "count", n_records=2048, seed=1)
        assert (a.reduced["counts"] != b.reduced["counts"]).any()

    def test_determinism(self):
        a = run("millipede", "nbayes", n_records=2048)
        b = run("millipede", "nbayes", n_records=2048)
        assert a.finish_ps == b.finish_ps
        assert a.collected["instructions"] == b.collected["instructions"]


class TestConfigFingerprint:
    def test_fingerprint_sensitive_to_every_field(self):
        a = SystemConfig().fingerprint()
        b = SystemConfig().with_dram(t_cas=10).fingerprint()
        c = SystemConfig().with_millipede(rate_match=True).fingerprint()
        assert len({a, b, c}) == 3
