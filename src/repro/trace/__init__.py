"""Opt-in run-timeline tracing and host profiling for the simulator.

``SimTracer`` attaches read-only observers (composing with the sanitizer
through :class:`repro.engine.observer.ObserverChain`) and a
:class:`TimelineSampler` that snapshots prefetch-buffer occupancy/PFT/DF
state, DFS frequency, DRAM bank state and command-queue depth, and
per-corelet instruction counts at a configurable simulated-time cadence.
The result is a :class:`TraceResult`: Chrome trace-event JSON (load in
``chrome://tracing`` or Perfetto), a timeline CSV, and a per-event-class
host wall-clock profile.

Enable it per run with ``ExecOptions(trace=True)`` (the ``options`` of a
:class:`~repro.sim.spec.RunSpec` or of :func:`repro.api.run`), or the
``--trace`` flags of the experiment and tools CLIs.  Traced runs produce byte-identical statistics
and metrics to untraced runs: observers never mutate simulation state and
the sampler's events are read-only and never extend the run.

See ``docs/tracing.md`` for a worked walkthrough.
"""

from repro.trace.export import TraceResult, TraceWriter
from repro.trace.tracer import DEFAULT_INTERVAL_PS, SimTracer, TimelineSampler

__all__ = [
    "DEFAULT_INTERVAL_PS",
    "SimTracer",
    "TimelineSampler",
    "TraceResult",
    "TraceWriter",
]
