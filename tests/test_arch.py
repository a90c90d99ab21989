"""Cross-architecture integration tests.

The strongest check in the suite: every architecture model must produce
the *bit-identical reduced result* for every workload (the simulator moves
real data through real structures), while their timing/energy differ in
the directions the paper establishes.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.api import run, sweep
from repro.config import SystemConfig
from repro.sim import driver
from repro.sim.driver import ARCHITECTURES
from repro.sim.options import BACKENDS, ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.registry import workload_names

SMALL = 2048
FAST_ARCHES = ["gpgpu", "vws", "vws-row", "ssmc", "millipede",
               "millipede-nofc", "millipede-rm", "millipede-bar", "multicore"]


def across(arches, workload, **kwargs):
    """One workload on several arches (one batch), keyed by arch."""
    return {arch: r for (arch, _), r in sweep(arches, [workload], **kwargs).items()}


class TestEveryArchValidates:
    @pytest.mark.parametrize("arch", FAST_ARCHES)
    def test_count_validates(self, arch):
        r = run(arch, "count", n_records=SMALL)
        assert r.validated
        assert r.finish_ps > 0

    @pytest.mark.parametrize("workload", workload_names())
    def test_millipede_validates_all_workloads(self, workload):
        assert run("millipede", workload, n_records=SMALL).validated

    @pytest.mark.parametrize("workload", ["count", "nbayes", "gda"])
    def test_gpgpu_validates(self, workload):
        assert run("gpgpu", workload, n_records=SMALL).validated

    @pytest.mark.parametrize("workload", ["count", "nbayes", "gda"])
    def test_ssmc_validates(self, workload):
        assert run("ssmc", workload, n_records=SMALL).validated

    @pytest.mark.parametrize("workload", ["sample", "kmeans"])
    def test_vws_row_validates(self, workload):
        assert run("vws-row", workload, n_records=SMALL).validated

    @pytest.mark.parametrize("workload", ["variance", "pca"])
    def test_multicore_validates(self, workload):
        assert run("multicore", workload, n_records=SMALL).validated


class TestCrossArchEquivalence:
    def test_identical_reductions_across_architectures(self):
        """Same dataset, same kernel semantics -> same integer counters,
        whatever the memory system."""
        results = across(["gpgpu", "ssmc", "millipede"], "nbayes", n_records=SMALL)
        base = results["millipede"].reduced
        for arch in ("gpgpu", "ssmc"):
            got = results[arch].reduced
            assert np.array_equal(got["cprob"], base["cprob"])
            assert np.array_equal(got["class_count"], base["class_count"])

    def test_instruction_counts_agree_across_mimd_archs(self):
        """MIMD models run the identical kernel on the identical data, so
        dynamic instruction counts must match exactly."""
        results = across(["ssmc", "millipede"], "count", n_records=SMALL)
        assert (results["ssmc"].collected["instructions"]
                == results["millipede"].collected["instructions"])


class TestArchRegistry:
    def test_all_keys_construct(self):
        assert set(FAST_ARCHES) == set(ARCHITECTURES)

    def test_unknown_arch_raises(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            run("tpu", "count", n_records=SMALL)

    def test_prebuilt_mismatch_rejected(self):
        from repro.workloads.registry import get_workload

        built = get_workload("count").build(n_threads=8, n_records=512)
        with pytest.raises(ValueError, match="prebuilt"):
            driver.run(RunSpec("millipede", "count"), built=built)


class TestPaperDirections:
    """Direction checks at test scale (full-size shape checks live in
    benchmarks/)."""

    def test_millipede_beats_gpgpu_on_branchy_benchmark(self):
        results = across(["gpgpu", "millipede"], "count", n_records=8192)
        assert (results["millipede"].throughput_words_per_s
                > results["gpgpu"].throughput_words_per_s)

    def test_flow_control_beats_none_under_work_variance(self):
        # tightened buffer so straying spans the queue at test scale
        cfg = SystemConfig().with_millipede(prefetch_entries=4, prefetch_ahead=3)
        results = across(["millipede", "millipede-nofc"], "varwork",
                           config=cfg, n_records=8192)
        assert (results["millipede"].throughput_words_per_s
                > results["millipede-nofc"].throughput_words_per_s)

    def test_vws_narrow_width_selected_for_bmla(self):
        from repro.arch.vws import VwsSM
        from repro.config import VwsConfig

        r = run("gpgpu", "count", n_records=SMALL)
        div = r.collected["divergent_branches"] / max(
            r.collected["divergent_branches"] + r.collected["uniform_branches"], 1
        )
        assert VwsSM.select_width(div, VwsConfig()) == 4

    def test_millipede_single_row_activation_per_row(self):
        r = run("millipede", "count", n_records=4096)
        rows = r.input_words / 512
        assert r.stats["dram.activations"] == rows

    def test_multicore_uses_offchip_channel(self):
        r = run("multicore", "count", n_records=SMALL)
        assert r.stats.get("offchip.requests", 0) > 0
        assert r.stats.get("dram.requests", 0) == 0


class TestConfigSweepSafety:
    def test_scaled_system_size_keeps_divisibility(self):
        for n in (16, 32, 64, 128):
            cfg = SystemConfig().scaled_system_size(n)
            assert cfg.core.n_cores == n
            assert 512 % (n * cfg.core.n_threads) == 0 or n * cfg.core.n_threads > 512

    def test_small_config_runs(self, small_config):
        r = run("millipede", "count", config=small_config, n_records=1024)
        assert r.validated

    @pytest.mark.parametrize("section, field", [
        ("core", "n_cores"), ("multicore", "n_cores"),
        ("multicore", "n_threads")])
    def test_core_and_thread_counts_must_be_positive(self, section, field):
        with pytest.raises(ValueError, match=rf"{section}\.{field}=0: must be >= 1"):
            getattr(SystemConfig(), f"with_{section}")(**{field: 0})


#: the MIMD architectures: one MimdProcessor shell, three memory sides
MIMD_ARCHES = ["ssmc", "millipede", "millipede-nofc", "millipede-rm",
               "millipede-bar", "multicore"]


class _Launched(Exception):
    """Carries the processor out of the driver before simulated time."""


def launched(spec: RunSpec):
    """``(processor, sanitizer)`` of ``spec``, built but not started."""
    def grab(proc, engine, sanitizer):
        raise _Launched(proc, sanitizer)

    with pytest.raises(_Launched) as exc:
        driver.run(spec, probe=grab)
    return exc.value.args


class TestBadMimdGeometryFailsLoudly:
    """Bad thread geometry is a ValueError naming the field, on every
    MIMD architecture, before anything is simulated."""

    @pytest.mark.parametrize("arch", ["millipede", "ssmc", "multicore"])
    def test_zero_threads_rejected(self, arch):
        with pytest.raises(ValueError, match=r"core\.n_threads=0"):
            run(arch, "count", n_records=1024,
                config=SystemConfig().with_core(n_threads=0))

    @pytest.mark.parametrize("arch", ["millipede", "ssmc", "multicore"])
    def test_sub_word_state_partition_rejected(self, arch):
        cfg = SystemConfig().with_millipede(local_memory_bytes=8)
        with pytest.raises(ValueError, match=(
                r"millipede\.local_memory_bytes=8 .* 0-word state "
                r"partition .* at least 1 word")):
            run(arch, "count", n_records=1024, config=cfg)


class TestMimdShell:
    def test_mimd_arches_share_the_shell(self):
        from repro.core import MimdProcessor

        mimd = [a for a, (cls, _, _) in ARCHITECTURES.items()
                if issubclass(cls, MimdProcessor)]
        assert sorted(mimd) == sorted(MIMD_ARCHES)
        for arch in mimd:
            proc, _ = launched(RunSpec(arch, "count", n_records=64))
            assert proc.cores, arch
            assert "corelets" not in dir(proc), arch

    @pytest.mark.parametrize("arch", ["millipede", "millipede-nofc",
                                      "millipede-rm", "millipede-bar",
                                      "vws-row"])
    def test_slab_privacy_checked_exactly_on_millipede(self, arch):
        caps = {}

        def probe(proc, engine, sanitizer):
            caps["san"] = sanitizer

        driver.run(RunSpec(arch, "count", n_records=256,
                           options=ExecOptions(sanitize=True)), probe=probe)
        ticks = caps["san"].report()["checks"].get("slab-privacy", 0)
        assert (ticks > 0) == arch.startswith("millipede"), ticks

    @pytest.mark.parametrize("arch", ["millipede", "ssmc", "multicore"])
    def test_traced_instruction_rows_cover_every_core(self, arch):
        caps = {}

        def probe(proc, engine, sanitizer):
            caps["proc"] = proc

        r = driver.run(RunSpec(arch, "count", n_records=256,
                               options=ExecOptions(trace=True)), probe=probe)
        _, rows = r.trace.series("corelet.instructions")
        n_cores = len(caps["proc"].cores)
        assert rows and n_cores > 1
        assert all(len(row) == n_cores for row in rows)


class TestFinishedRunsFreedByRefcount:
    """A finished unobserved simulation must not leave reference cycles:
    its memory should come back when the result is returned, not
    whenever the cyclic GC next runs (that made peak RSS depend on
    collection timing).

    Out of scope: sanitized and traced runs still form cycles through
    ``ObserverChain`` (observers hold the components that call them).
    They are debugging modes, off every timed path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("arch", FAST_ARCHES)
    def test_no_cyclic_garbage(self, arch, backend):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                run(arch, "count", n_records=64,
                    options=ExecOptions(backend=backend))
            gc.collect()
            cyclic = [type(o).__name__ for o in gc.garbage
                      if type(o).__module__.startswith("repro")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not cyclic, sorted(set(cyclic))
