"""Tests for the VWS variants and the conventional multicore model."""

from __future__ import annotations

import pytest

from repro.api import run
from repro.arch.vws import VwsRowSM, VwsSM
from repro.config import SystemConfig, VwsConfig
from tests.test_arch import across


class TestVws:
    def test_narrow_width_by_default(self):
        r = run("vws", "count", n_records=2048)
        assert r.validated

    def test_select_width_policy(self):
        cfg = VwsConfig()
        assert VwsSM.select_width(0.0, cfg) == 32
        assert VwsSM.select_width(0.04, cfg) == 32
        assert VwsSM.select_width(0.30, cfg) == 4

    @pytest.mark.parametrize("wl", ["count", "sample", "variance", "nbayes"])
    def test_bmla_divergence_always_selects_narrow(self, wl):
        """The paper: 'VWS always chooses 4-wide warps' on BMLAs - verify
        the measured wide-warp divergence rate trips the policy."""
        r = run("gpgpu", wl, n_records=2048)
        total = r.collected["divergent_branches"] + r.collected["uniform_branches"]
        div_rate = r.collected["divergent_branches"] / max(total, 1)
        assert VwsSM.select_width(div_rate, VwsConfig()) == 4

    def test_narrow_warps_diverge_less(self):
        results = across(["gpgpu", "vws"], "count", n_records=4096)
        assert (results["vws"].collected["simt_efficiency"]
                >= results["gpgpu"].collected["simt_efficiency"])

    def test_vws_row_uses_prefetch_buffer(self):
        r = run("vws-row", "count", n_records=2048)
        assert r.validated
        assert r.stats.get("pb.rows_prefetched", 0) > 0
        assert "l1d.demand_hits" not in r.stats

    def test_vws_row_improves_row_locality_over_vws(self):
        results = across(["vws", "vws-row"], "nbayes", n_records=4096)
        # row-oriented fetch: one activation per row
        rows = results["vws-row"].input_words / 512
        assert results["vws-row"].stats["dram.activations"] == rows
        assert (results["vws"].stats["dram.activations"]
                >= results["vws-row"].stats["dram.activations"])


class TestMulticore:
    def test_validates(self):
        assert run("multicore", "count", n_records=2048).validated

    def test_thread_count_is_32(self):
        cfg = SystemConfig()
        assert cfg.multicore.n_cores * cfg.multicore.n_threads == 32

    def test_much_slower_than_pnm_node(self):
        results = across(["multicore"], "count", n_records=2048)
        mill = run("millipede", "count", n_records=2048)
        node = mill.throughput_words_per_s * SystemConfig().n_processors
        assert node > 10 * results["multicore"].throughput_words_per_s

    def test_offchip_energy_dominates(self):
        r = run("multicore", "nbayes", n_records=2048)
        mill = run("millipede", "nbayes", n_records=2048)
        assert (r.energy.dram_j / r.input_words
                > 5 * mill.energy.dram_j / mill.input_words)

    def test_offchip_latency_applied(self):
        """Every off-chip completion is delayed by the pin-crossing
        latency; a single cold access must exceed it."""
        from repro.arch.multicore import OffchipController
        from repro.config import SystemConfig
        from repro.dram.dram import GlobalMemory
        from repro.engine.events import Engine
        from repro.engine.stats import Stats

        eng = Engine()
        cfg = SystemConfig()
        mc = OffchipController(eng, cfg.dram, Stats(), extra_latency_ps=40_000)
        done = []
        mc.access(0, 16, callback=lambda r: done.append(eng.now))
        eng.run()
        assert done[0] >= 40_000

    def test_issue_width_speedup(self):
        """4-issue should beat 1-issue on compute-bound work."""
        wide = run("multicore", "gda", n_records=1024)
        cfg = SystemConfig().with_multicore(issue_width=1)
        narrow = run("multicore", "gda", config=cfg, n_records=1024)
        assert wide.runtime_s < narrow.runtime_s
