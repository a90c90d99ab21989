"""The execution-backend contract: options API, calendar queue, and the
vector backend's bit-identity guarantee.

``docs/backends.md`` states the guarantee these tests enforce: for every
registered architecture and workload, the ``calendar`` and ``vector``
backends produce **byte-identical** results to the reference
interpreter — same finish time, same statistics, same energy, same
reduced output, same validation verdict — not merely close ones.  The
differential sweep here is the acceptance gate; if a change breaks
identity, the fix goes in the backend, never in the tolerance.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.config import DEFAULT_CONFIG
from repro.engine.calendar import CalendarQueue
from repro.engine.events import Engine
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
        assert o.scheduler == "heap"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecOptions().backend = "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecOptions(backend="jit")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduler_follows_backend(self, backend):
        expected = "heap" if backend == "reference" else "calendar"
        assert ExecOptions(backend=backend).scheduler == expected

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
# calendar queue vs. binary heap
# ----------------------------------------------------------------------
class TestCalendarQueue:
    def test_differential_delivery_order(self):
        # mixed deltas spanning far less / far more than a bucket width,
        # plus cancellations: both schedulers must agree event-for-event
        rng = random.Random(1234)
        deltas = [0, 1, 3, 700, 1429, 100_000, 5_000_000]
        for _ in range(20):
            heap_eng, cal_eng = Engine(), Engine(scheduler="calendar")
            out_h, out_c = [], []
            cancel_h, cancel_c = [], []
            plan = [(rng.choice(deltas), i) for i in range(300)]
            for d, tag in plan:
                cancel_h.append(heap_eng.schedule(d, out_h.append, tag))
                cancel_c.append(cal_eng.schedule(d, out_c.append, tag))
            for k in rng.sample(range(300), 60):
                heap_eng.cancel(cancel_h[k])
                cal_eng.cancel(cancel_c[k])
            n_h = heap_eng.run()
            n_c = cal_eng.run()
            assert out_h == out_c
            assert heap_eng.now == cal_eng.now
            assert n_h == n_c == 240

    def test_recursive_scheduling_matches_heap(self):
        rng = random.Random(99)
        script = [rng.choice([0, 1, 511, 1024, 4096, 1_000_000])
                  for _ in range(200)]

        def drive(eng):
            out = []

            def cb(i):
                out.append((eng.now, i))
                if i < len(script):
                    eng.schedule(script[i - 1], cb, i + 1)

            eng.schedule(0, cb, 1)
            eng.run()
            return out

        assert drive(Engine()) == drive(Engine(scheduler="calendar"))

    def test_equal_timestamps_fifo(self):
        eng = Engine(scheduler="calendar")
        out = []
        for i in range(10):
            eng.schedule(50, out.append, i)
        eng.run()
        assert out == list(range(10))

    def test_run_until_and_max_events_contract(self):
        eng = Engine(scheduler="calendar")
        out = []
        for t in (100, 200, 300):
            eng.schedule(t, out.append, t)
        eng.run(max_events=2)
        assert out == [100, 200] and eng.now == 200
        eng.run(until=250)
        assert eng.now == 250  # advances idle time, holds the 300 event
        eng.run()
        assert out == [100, 200, 300] and eng.now == 300

    def test_grow_preserves_order(self):
        # push far more events than the initial bucket count to force
        # resizes mid-stream
        q = CalendarQueue()
        rng = random.Random(7)

        class Ev:
            __slots__ = ("time", "seq", "cancelled")

            def __init__(self, time, seq):
                self.time, self.seq, self.cancelled = time, seq, False

            def __lt__(self, other):
                return (self.time, self.seq) < (other.time, other.seq)

        evs = [Ev(rng.randrange(0, 10_000_000), i) for i in range(3000)]
        for e in evs:
            q.push(e)
        popped = []
        while q.peek_min() is not None:
            popped.append(q.pop_min())
        assert popped == sorted(evs, key=lambda e: (e.time, e.seq))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Engine(scheduler="wheel")


# ----------------------------------------------------------------------
# the bit-identity guarantee (ISSUE 6 acceptance gate)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_vector_bit_identical(self, arch, wl):
        """All 8 workloads x every registry arch: vector == reference.

        This includes the SIMT arches (gpgpu/vws/vws-row), which run the
        lockstep PDOM divergence engine and per-warp trace replay — there
        is no fallback path (test_simt_arches_actually_vectorized pins
        that).
        """
        ref = run(RunSpec(arch, wl, n_records=N_RECORDS))
        vec = run(RunSpec(arch, wl, n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")))
        assert fingerprint(ref) == fingerprint(vec)
        assert ref.validated and vec.validated

    @pytest.mark.parametrize("arch", ["gpgpu", "vws", "vws-row"])
    def test_simt_arches_actually_vectorized(self, arch):
        """The SIMT arches must run the per-warp trace replay, not quietly
        fall back to the reference interpreter (the pre-PDOM behaviour):
        under backend="vector" the SM carries a SimtReplay, and under the
        explicit backend="reference" escape hatch it does not."""
        procs = {}

        def grab(proc, engine, sanitizer):
            procs[proc.__class__.__name__] = proc

        vec = run(RunSpec(arch, "count", n_records=N_RECORDS,
                          options=ExecOptions(backend="vector")), probe=grab)
        (proc,) = procs.values()
        assert proc._replay is not None, (
            f"{arch} fell back to the reference interpreter under "
            "backend='vector'")
        procs.clear()
        ref = run(RunSpec(arch, "count", n_records=N_RECORDS), probe=grab)
        (proc,) = procs.values()
        assert proc._replay is None
        assert fingerprint(ref) == fingerprint(vec)

    @pytest.mark.parametrize("wl", ["count", "kmeans", "variance"])
    @pytest.mark.parametrize("arch", ["millipede", "ssmc"])
    def test_calendar_bit_identical(self, arch, wl):
        """Calendar scheduler alone (reference interpreter) is also exact."""
        ref = run(RunSpec(arch, wl, n_records=N_RECORDS))
        cal = run(RunSpec(arch, wl, n_records=N_RECORDS,
                          options=ExecOptions(backend="calendar")))
        assert fingerprint(ref) == fingerprint(cal)

    @pytest.mark.parametrize("arch", ["millipede", "millipede-bar",
                                      "millipede-rm", "ssmc", "multicore",
                                      "gpgpu", "vws", "vws-row"])
    def test_sanitized_vector_bit_identical(self, arch):
        """The sanitizer's invariant checks hold under trace replay, and
        sanitized runs stay identical across backends.  For the SIMT
        arches this exercises the observed replay path: the _SimtChecker
        watches live warp reconvergence stacks, so the replay must evolve
        them issue-by-issue exactly as the reference did."""
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
