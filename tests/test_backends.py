"""The execution-backend contract: options API and the vector backend's
bit-identity guarantee.

``docs/backends.md`` states the guarantee these tests enforce: for every
registered architecture and workload, the ``vector`` backend produces
**byte-identical** results to the reference interpreter — same finish time, same statistics, same energy, same
reduced output, same validation verdict — not merely close ones.  The
differential sweep here is the acceptance gate; if a change breaks
identity, the fix goes in the backend, never in the tolerance.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import DEFAULT_CONFIG
from repro.sim.driver import ARCHITECTURES, run
from repro.sim.options import BACKENDS, ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.registry import workload_names

#: small enough to keep the full differential matrix fast, large enough
#: that every thread context runs real records (128 global threads on
#: the MIMD arches, 2 records each)
N_RECORDS = 256


def fingerprint(r):
    """Everything a backend must reproduce byte-for-byte (host_seconds
    is wall-clock and legitimately differs).  Pickled so nested NumPy
    arrays in ``reduced`` compare as bytes, which is exactly the
    guarantee: identical serialized results."""
    return pickle.dumps((
        r.finish_ps,
        r.collected,
        r.stats,
        r.reduced,
        r.energy.total_j,
        r.validated,
    ))


# ----------------------------------------------------------------------
# ExecOptions / RunSpec API
# ----------------------------------------------------------------------
class TestExecOptions:
    def test_defaults(self):
        o = ExecOptions()
        assert (o.validate, o.sanitize, o.trace, o.backend) == (
            True, False, False, "reference")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecOptions().backend = "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecOptions(backend="jit")

    def test_retired_calendar_backend_rejected(self):
        # a stored spec or manifest that still names the retired
        # "calendar" backend must fail loudly, naming what is available
        available = ", ".join(BACKENDS)
        with pytest.raises(ValueError, match=f"available: {available}"):
            ExecOptions(backend="calendar")
        wire = RunSpec("millipede", "count").to_dict()
        wire["backend"] = "calendar"
        with pytest.raises(ValueError, match=f"available: {available}"):
            RunSpec.from_dict(wire)

    def test_replace(self):
        o = ExecOptions(sanitize=True)
        o2 = o.replace(backend="vector")
        assert o2.sanitize and o2.backend == "vector"
        assert o.backend == "reference"  # original untouched

    def test_dict_round_trip(self):
        o = ExecOptions(validate=False, trace=True, backend="vector")
        assert ExecOptions.from_dict(o.to_dict()) == o

    def test_to_dict_omits_default_backend(self):
        # pre-redesign dicts had no "backend" key; emitting one only when
        # non-default keeps old content hashes stable
        assert "backend" not in ExecOptions().to_dict()
        assert ExecOptions(backend="vector").to_dict()["backend"] == "vector"


class TestRunSpecOptions:
    def test_flat_flags_rejected(self):
        # execution knobs travel only inside options=ExecOptions(...)
        with pytest.raises(TypeError):
            RunSpec("millipede", "count", sanitize=True)
        with pytest.raises(TypeError, match="ExecOptions"):
            RunSpec("millipede", "count", options={"sanitize": True})

    def test_mixing_options_and_flags_rejected(self):
        with pytest.raises(TypeError):
            RunSpec("millipede", "count", options=ExecOptions(), sanitize=True)

    def test_replace_takes_options(self):
        s = RunSpec("millipede", "count")
        vec = s.replace(options=s.options.replace(backend="vector"))
        assert vec.options.backend == "vector"
        assert s.replace(n_records=64).n_records == 64
        with pytest.raises(TypeError):
            s.replace(backend="vector")

    def test_from_dict_accepts_pre_redesign_flat_dicts(self):
        old = {"arch": "millipede", "workload": "count",
               "validate": True, "sanitize": True, "trace": False,
               "seed": 2}
        s = RunSpec.from_dict(old)
        assert s.options == ExecOptions(sanitize=True)
        assert s.seed == 2

    def test_from_dict_round_trip(self):
        for s in (RunSpec("ssmc", "kmeans", n_records=512),
                  RunSpec("millipede", "pca", seed=7,
                          options=ExecOptions(backend="vector"))):
            assert RunSpec.from_dict(s.to_dict()) == s

    def test_from_dict_reads_store_wire_format(self):
        # the flat dict FingerprintStore.put writes as a record's "spec";
        # existing stores must deserialize to the same spec and hash
        wire = {"arch": "millipede-rm", "workload": "kmeans",
                "config": DEFAULT_CONFIG.as_canonical_dict(),
                "n_records": 256, "seed": 1, "validate": True,
                "sanitize": False, "trace": False, "backend": "vector"}
        spec = RunSpec.from_dict(wire)
        assert spec == RunSpec("millipede-rm", "kmeans", n_records=256, seed=1,
                               options=ExecOptions(backend="vector"))
        assert spec.to_dict() == wire
        assert spec.content_hash() == "4dd57cbaf74342ba"

    def test_content_hash_pinned(self):
        # regression pins: redesigns must not silently re-key the
        # fingerprint store / dedup machinery for pre-existing specs
        assert RunSpec("millipede", "count").content_hash() == "7a593d633e49baf2"
        assert (RunSpec("ssmc", "kmeans", n_records=4096, seed=3).content_hash()
                == "8d6011450f6c9471")
        assert (RunSpec("millipede", "count",
                        options=ExecOptions(backend="vector")).content_hash()
                == "934abd6dc8b87467")
        assert (RunSpec("millipede", "count",
                        options=ExecOptions(sanitize=True)).content_hash()
                == "4d250a32da934383")

    def test_backend_changes_hash(self):
        # different backend => different store record (results are
        # identical, but the store must not conflate what was run)
        ref = RunSpec("millipede", "count")
        vec = RunSpec("millipede", "count",
                      options=ExecOptions(backend="vector"))
        assert ref.content_hash() != vec.content_hash()


# ----------------------------------------------------------------------
# repro.api facade
# ----------------------------------------------------------------------
class TestApiFacade:
    def test_run_spec_with_options_rejected(self):
        from repro import api
        with pytest.raises(TypeError):
            api.run(RunSpec("millipede", "count"), options=ExecOptions())

    def test_cache_bool_rejected(self):
        # the result tier (store=) takes a FingerprintStore, a directory
        # path or None; a stray bool must fail at the facade, not inside
        # the campaign loop
        from repro import api
        with pytest.raises(TypeError, match="FingerprintStore"):
            api.run_batch([RunSpec("millipede", "count", n_records=N_RECORDS)],
                          store=False)
        with pytest.raises(TypeError, match="FingerprintStore"):
            api.sweep(["millipede"], ["count"], n_records=N_RECORDS,
                      store=True)

    def test_run_and_sweep_match_driver(self):
        from repro import api
        fast = ExecOptions(backend="vector")
        ref = run(RunSpec("millipede", "kmeans", n_records=N_RECORDS))
        assert fingerprint(api.run("millipede", "kmeans",
                                   n_records=N_RECORDS,
                                   options=fast)) == fingerprint(ref)
        grid = api.sweep(["millipede"], ["kmeans"], n_records=N_RECORDS,
                         options=fast)
        assert list(grid) == [("millipede", "kmeans")]
        assert fingerprint(grid[("millipede", "kmeans")]) == fingerprint(ref)

    def test_sweep_defaults_to_all_workloads(self):
        from repro import api
        from unittest import mock
        with mock.patch("repro.api.run_batch") as rb:
            rb.return_value = [None] * len(workload_names())
            grid = api.sweep(["millipede"])
        assert sorted(wl for _, wl in grid) == sorted(workload_names())


# ----------------------------------------------------------------------
# the bit-identity guarantee (ISSUE 6 acceptance gate)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_vector_bit_identical(self, arch, wl):
        """All 8 workloads x every registry arch: vector == reference.

        This includes the SIMT arches (gpgpu/vws/vws-row), whose warp
        traces come from the lockstep PDOM divergence engine under
        ``vector`` and from the scalar warp walker under ``reference``
        (test_simt_arches_actually_vectorized pins that).
        """
        ref = run(RunSpec(arch, wl, n_records=N_RECORDS))
        vec = run(RunSpec(arch, wl, n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)
        assert ref.validated and vec.validated

    @pytest.mark.parametrize("arch", ["gpgpu", "vws", "vws-row"])
    def test_simt_arches_actually_vectorized(self, arch, monkeypatch):
        """Each backend runs its own SIMT producer: ``vector`` calls only
        the NumPy divergence engine (``execute_simt``) and ``reference``
        only the scalar warp walker (``trace_warps``).  Otherwise a
        ``build_simt_plan`` that always picked one producer would pass
        every identity test."""
        import repro.core.replay as replay
        import repro.isa.vector as vector

        calls = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(vector, "execute_simt", spy(vector.execute_simt))
        monkeypatch.setattr(replay, "trace_warps", spy(replay.trace_warps))
        vec = run(RunSpec(arch, "count", n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")))
        assert calls == ["execute_simt"]
        calls.clear()
        ref = run(RunSpec(arch, "count", n_records=N_RECORDS))
        assert calls == ["trace_warps"]
        assert fingerprint(ref) == fingerprint(vec)

    @pytest.mark.parametrize("arch", ["millipede", "millipede-bar",
                                      "millipede-rm", "ssmc", "multicore",
                                      "gpgpu", "vws", "vws-row"])
    def test_sanitized_vector_bit_identical(self, arch):
        """The sanitizer's invariant checks hold under trace replay, and
        sanitized runs stay identical across backends.  For the SIMT
        arches this exercises the observed replay path: the _SimtChecker
        watches live warp reconvergence stacks, so the replay must evolve
        them issue-by-issue from the recorded branch taken-masks."""
        opts = ExecOptions(sanitize=True)
        ref = run(RunSpec(arch, "kmeans", n_records=N_RECORDS, options=opts))
        vec = run(RunSpec(arch, "kmeans", n_records=N_RECORDS,
                          options=opts.replace(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)

    @pytest.mark.parametrize("arch", ["millipede", "ssmc", "gpgpu"])
    def test_traced_vector_bit_identical(self, arch):
        """The timeline tracer samples mid-run state (instruction counts,
        queue depths); replay must reproduce every sample, not just the
        end-of-run totals."""
        opts = ExecOptions(trace=True)
        ref = run(RunSpec(arch, "kmeans", n_records=N_RECORDS, options=opts))
        vec = run(RunSpec(arch, "kmeans", n_records=N_RECORDS,
                          options=opts.replace(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)
        assert ref.trace.samples == vec.trace.samples
        assert ref.trace.freq_changes == vec.trace.freq_changes

    def test_seed_sensitivity(self):
        """Different seeds produce different data; identity must hold for
        each, and the two seeds must not be conflated."""
        a0 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=0)))
        a1 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=1)))
        v0 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=0,
                                     options=ExecOptions(backend="vector"))))
        v1 = fingerprint(run(RunSpec("millipede", "gda",
                                     n_records=N_RECORDS, seed=1,
                                     options=ExecOptions(backend="vector"))))
        assert a0 == v0 and a1 == v1 and a0 != a1
