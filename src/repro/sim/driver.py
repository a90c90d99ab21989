"""One-call simulation runs.

``run(RunSpec("millipede", "count"))`` builds the workload, instantiates the
architecture on a fresh event engine, executes to completion, validates
the simulated reduction against the golden NumPy result, and returns a
:class:`RunResult` with timing, counters, and the energy breakdown.

This module executes exactly one :class:`RunSpec`: ``run(spec)``.  The
public entry points - one run from *what* arguments, batches, sweeps and
persistent campaigns - are in :mod:`repro.api`.

Architecture keys
-----------------
===================  =====================================================
key                  paper configuration
===================  =====================================================
``gpgpu``            GPGPU SM with cache-block prefetch (Fig. 3 baseline)
``vws``              Variable Warp Sizing (4-wide warps)
``vws-row``          VWS + row-orientedness + flow control
``ssmc``             plain sea-of-simple-MIMD-cores with prefetch
``millipede-nofc``   Millipede without flow control
``millipede``        Millipede (row prefetch + flow control)
``millipede-rm``     Millipede + coarse-grain rate matching
``millipede-bar``    no flow control, software barriers per record (§VI-A)
``multicore``        conventional 8-core OoO node (Fig. 5)
===================  =====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from repro.arch.gpgpu import GpgpuSM
from repro.arch.multicore import MulticoreProcessor
from repro.arch.ssmc import SsmcProcessor
from repro.arch.vws import VwsRowSM, VwsSM
from repro.config import SystemConfig
from repro.core.millipede import MillipedeProcessor
from repro.dram.dram import GlobalMemory
from repro.energy.model import EnergyBreakdown, compute_energy
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.sim.spec import RunSpec
from repro.workloads.base import BuiltWorkload, Workload
from repro.workloads.registry import get_workload


def _millipede_cfg(cfg: SystemConfig, **kw) -> SystemConfig:
    return cfg.with_millipede(**kw)


#: SIMT architectures use the word-interleaved thread->record mapping for
#: coalescing; MIMD architectures use the chunked (slab) mapping so each
#: core's per-row footprint is private and contiguous (section IV-C)
TRAVERSAL: dict[str, str] = {
    "gpgpu": "interleaved",
    "vws": "interleaved",
    "vws-row": "interleaved",
}

#: key -> (processor class, config transform, needs record barriers,
#: supports the vector trace-replay backend).  Every architecture is
#: vectorizable: the MIMD cores replay per-thread traces
#: (:class:`repro.core.replay.ReplayMixin`), and the SIMT SMs replay
#: per-warp traces from the PDOM divergence engine
#: (:class:`repro.core.replay.SimtReplay`).
ARCHITECTURES: dict[str, tuple[type, Callable[[SystemConfig], SystemConfig], bool, bool]] = {
    "gpgpu": (GpgpuSM, lambda c: c, False, True),
    "vws": (VwsSM, lambda c: c, False, True),
    "vws-row": (VwsRowSM, lambda c: _millipede_cfg(c, flow_control=True), False, True),
    "ssmc": (SsmcProcessor, lambda c: c, False, True),
    "millipede": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=True, rate_match=False),
        False,
        True,
    ),
    "millipede-nofc": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=False, rate_match=False),
        False,
        True,
    ),
    "millipede-rm": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=True, rate_match=True),
        False,
        True,
    ),
    "millipede-bar": (
        MillipedeProcessor,
        lambda c: _millipede_cfg(c, flow_control=False, record_barriers=True),
        True,
        True,
    ),
    "multicore": (MulticoreProcessor, lambda c: c, False, True),
}


@dataclass
class RunResult:
    """Everything one simulation produced."""

    arch: str
    workload: str
    n_records: int
    input_words: int
    finish_ps: int
    energy: EnergyBreakdown
    collected: dict[str, float]
    stats: dict[str, float]
    validated: bool
    host_seconds: float
    reduced: dict = dc_field(default_factory=dict)
    #: :class:`repro.trace.TraceResult` when the spec had ``trace=True``;
    #: None otherwise (and always None for store-served results)
    trace: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def runtime_s(self) -> float:
        return self.finish_ps / 1e12

    @property
    def throughput_words_per_s(self) -> float:
        return self.input_words / self.runtime_s if self.finish_ps else 0.0

    @property
    def insts_per_word(self) -> float:
        return self.collected.get("instructions", 0.0) / self.input_words

    @property
    def branches_per_inst(self) -> float:
        i = self.collected.get("instructions", 0.0)
        return self.collected.get("branches", 0.0) / i if i else 0.0

    @property
    def row_miss_rate(self) -> float:
        acc = self.stats.get("dram.row_accesses", 0.0) or self.stats.get(
            "offchip.row_accesses", 0.0
        )
        miss = self.stats.get("dram.row_misses", 0.0) or self.stats.get(
            "offchip.row_misses", 0.0
        )
        return miss / acc if acc else 0.0

    @property
    def energy_per_word_j(self) -> float:
        return self.energy.total_j / self.input_words

    @property
    def energy_delay(self) -> float:
        return self.energy.total_j * self.runtime_s

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio (robust to differing record counts)."""
        return self.throughput_words_per_s / other.throughput_words_per_s

    def summary(self) -> str:
        return (
            f"{self.arch:>15s}/{self.workload:<9s} "
            f"{self.runtime_s * 1e6:9.1f} us  "
            f"{self.throughput_words_per_s / 1e9:6.3f} Gword/s  "
            f"{self.energy.total_j * 1e6:8.2f} uJ  "
            f"rowmiss {self.row_miss_rate:5.3f}"
        )


def run(
    spec: RunSpec,
    *,
    built: Optional[BuiltWorkload] = None,
    probe: Optional[Callable] = None,
    trace_interval_ps: Optional[int] = None,
) -> RunResult:
    """Simulate one :class:`RunSpec` and validate the result.

    Pass ``built`` to reuse a prepared workload (e.g. across the
    architectures of one figure) - it must have been built with the
    matching thread count.  ``spec.sanitize`` attaches
    :class:`repro.sanitize.SimSanitizer` runtime invariant checking
    (violations raise :class:`repro.sanitize.InvariantViolation`);
    ``spec.trace`` attaches :class:`repro.trace.SimTracer` timeline
    sampling + host profiling and fills the result's ``trace`` field,
    with ``trace_interval_ps`` overriding the sampling cadence.
    ``probe(proc, engine, sanitizer)`` is called after construction and
    before the first event (tests use it to install fault injectors).
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"driver.run takes a RunSpec, got {type(spec).__name__}; "
            "use repro.api.run(arch, workload, ...) to build one")
    return _execute(spec, get_workload(spec.workload), built, probe=probe,
                    trace_interval_ps=trace_interval_ps)


def _execute(
    spec: RunSpec, wl: Workload, built: Optional[BuiltWorkload] = None,
    probe: Optional[Callable] = None,
    trace_interval_ps: Optional[int] = None,
) -> RunResult:
    """Run one spec with an already-resolved workload object."""
    proc_cls, transform, needs_barriers, vectorizable = ARCHITECTURES[spec.arch]
    cfg = transform(spec.config)
    arch, validate = spec.arch, spec.validate
    n_threads = spec.n_threads
    traversal = spec.traversal

    if built is None:
        built = wl.build(
            n_threads,
            n_records=spec.n_records,
            block_records=cfg.dram.row_words,
            seed=spec.seed,
            record_barrier=needs_barriers,
            traversal=traversal,
        )
    elif built.n_threads != n_threads or built.traversal != traversal:
        raise ValueError(
            f"prebuilt workload has {built.n_threads} threads / "
            f"{built.traversal} traversal; {arch} needs {n_threads} / {traversal}"
        )

    engine = Engine(scheduler=spec.options.scheduler)
    stats = Stats()
    sanitizer = None
    if spec.sanitize:
        from repro.sanitize import SimSanitizer

        sanitizer = SimSanitizer()
        sanitizer.attach_engine(engine)
    tracer = None
    if spec.trace:
        from repro.trace import DEFAULT_INTERVAL_PS, SimTracer

        tracer = SimTracer(interval_ps=trace_interval_ps
                           or DEFAULT_INTERVAL_PS)
        tracer.attach_engine(engine)
    gm = GlobalMemory.from_array(built.memory_image)
    # layout metadata enables oracle stream prefetch (baselines) and the
    # safe-wait record-span hint (prefetch buffer)
    extra_kwargs = {"layout": built.layout}
    if spec.backend == "vector" and vectorizable:
        extra_kwargs["backend"] = "vector"
    proc = proc_cls(
        engine,
        cfg,
        built.program,
        gm,
        stats,
        input_base_word=built.input_base_word,
        input_end_word=built.input_end_word,
        **extra_kwargs,
    )
    if built.initial_state is not None:
        proc.load_initial_state(built.initial_state)
    proc.set_thread_args(built.thread_args)
    if sanitizer is not None:
        sanitizer.attach_processor(proc)
    if tracer is not None:
        tracer.attach_processor(proc)
    if probe is not None:
        probe(proc, engine, sanitizer)

    t0 = time.perf_counter()
    proc.start()
    engine.run()
    host_seconds = time.perf_counter() - t0
    if sanitizer is not None:
        # end-of-run invariants first: a stuck barrier generation is a
        # better diagnosis than the generic never-finished error below
        sanitizer.finalize(proc)
    if not proc.done:
        raise RuntimeError(
            f"{spec}: event queue drained but the processor never "
            "finished (likely a blocked-thread deadlock)"
        )

    reduced = {}
    if validate:
        reduced = built.validate(proc.thread_states())

    trace_result = None
    if tracer is not None:
        trace_result = tracer.result(meta={
            "arch": arch,
            "workload": wl.name,
            "n_records": built.n_records,
            "seed": spec.seed,
            "finish_ps": proc.finish_ps,
        })

    collected = proc.collect()
    energy = compute_energy(arch, cfg, stats, collected)
    return RunResult(
        arch=arch,
        workload=wl.name,
        n_records=built.n_records,
        input_words=built.input_words,
        finish_ps=proc.finish_ps,
        energy=energy,
        collected=collected,
        stats=stats.as_dict(),
        validated=validate,
        host_seconds=host_seconds,
        reduced=reduced,
        trace=trace_result,
    )
