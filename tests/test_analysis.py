"""Tests for the analysis module (roofline, bottleneck, convergence)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    RooflineModel,
    analyze_history,
    attribute_bottleneck,
)
from repro.config import SystemConfig
from repro.api import run


@pytest.fixture(scope="module")
def light_run():
    return run("millipede", "count", n_records=8192)


@pytest.fixture(scope="module")
def heavy_run():
    return run("millipede", "gda", n_records=2048)


class TestRoofline:
    def setup_method(self):
        self.model = RooflineModel(SystemConfig())

    def test_ridge_near_light_benchmarks(self, light_run, heavy_run):
        """The calibration puts the ridge at the light end of the suite:
        count sits at the ridge (borderline), gda far into compute-bound."""
        light = self.model.place(light_run)
        heavy = self.model.place(heavy_run)
        assert light.intensity_insts_per_byte < heavy.intensity_insts_per_byte
        assert light.intensity_insts_per_byte == pytest.approx(
            self.model.ridge_intensity, rel=0.25
        )
        assert heavy.compute_bound
        assert heavy.intensity_insts_per_byte > 3 * self.model.ridge_intensity

    def test_measured_never_exceeds_roof(self, light_run, heavy_run):
        """Accounting sanity: the simulator cannot beat first principles
        by more than rounding."""
        for r in (light_run, heavy_run):
            p = self.model.place(r)
            assert p.efficiency <= 1.05, f"{r.workload} at {p.efficiency:.2f} of roof"

    def test_attainable_min_of_roofs(self):
        m = self.model
        assert m.attainable(1e9) == m.peak_compute
        assert m.attainable(m.ridge_intensity / 2) == pytest.approx(m.peak_compute / 2)
        assert m.attainable(0) == 0.0

    def test_predict_bound(self):
        m = self.model
        assert m.predict_bound(m.ridge_intensity * 2) == "compute"
        assert m.predict_bound(m.ridge_intensity / 2) == "bandwidth"

    def test_multicore_roofline_smaller(self):
        mc = RooflineModel(SystemConfig(), arch="multicore")
        mil = RooflineModel(SystemConfig())
        assert mc.peak_bandwidth < mil.peak_bandwidth

    def test_render(self, light_run):
        out = self.model.render([self.model.place(light_run)])
        assert "count" in out and "ridge" in out


class TestBottleneck:
    def test_light_benchmark_is_bandwidth_bound(self, light_run):
        rep = attribute_bottleneck(light_run)
        assert rep.verdict == "memory-bandwidth-bound"
        assert rep.bus_utilization > 0.75

    def test_heavy_benchmark_is_compute_bound(self, heavy_run):
        rep = attribute_bottleneck(heavy_run)
        assert "compute" in rep.verdict

    def test_millipede_row_streaming_optimal_activations(self, light_run):
        rep = attribute_bottleneck(light_run)
        # one activation per 512-word row = 1.95/kword
        assert rep.activations_per_kword == pytest.approx(1000 / 512, rel=0.05)

    def test_no_traffic_amplification_for_millipede(self, light_run):
        assert attribute_bottleneck(light_run).traffic_amplification == pytest.approx(1.0)

    def test_ssmc_gda_amplification_flagged(self):
        rep = attribute_bottleneck(run("ssmc", "gda", n_records=2048))
        assert rep.traffic_amplification > 1.5
        assert any("traffic" in n for n in rep.notes)

    def test_render(self, light_run):
        out = attribute_bottleneck(light_run).render()
        assert "bus utilization" in out


class TestConvergence:
    def test_synthetic_trajectory(self):
        # 700 -> steps down to ~600 by 10us, then oscillates +/- one step
        hist = [(0, 700e6)]
        f = 700e6
        t = 0
        while f > 600e6:
            t += 1_000_000
            f *= 0.95
            hist.append((t, f))
        for k in range(10):
            t += 1_000_000
            f = f * (1.05 if k % 2 == 0 else 1 / 1.05)
            hist.append((t, f))
        rep = analyze_history(hist, end_ps=t + 50_000_000)
        assert rep.converged_fraction < 0.5
        assert rep.band_steps < 0.10
        assert 550e6 < rep.settled_hz < 700e6

    def test_real_run_history(self):
        r = run("millipede-rm", "count", n_records=8192)
        hist = r.collected["rate_match_history"]
        rep = analyze_history(hist, end_ps=r.finish_ps)
        assert rep.n_adjustments >= 0
        assert rep.settled_hz <= 700e6
        assert "rate-match convergence" in rep.render()

    def test_end_ps_validation(self):
        with pytest.raises(ValueError):
            analyze_history([(0, 700e6)], end_ps=0)
