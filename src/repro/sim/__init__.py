"""Simulation driver: build, run, validate, and summarize experiments.

:mod:`repro.sim.spec` defines the frozen :class:`RunSpec` value,
:mod:`repro.sim.driver` executes one spec, and :mod:`repro.sim.campaign`
fans batches of specs out over worker processes with dedup, recording
results in :mod:`repro.sim.store`.  The public entry points are in
:mod:`repro.api`.
"""

from repro.sim.campaign import BatchProgress, cross, run_batch
from repro.sim.driver import ARCHITECTURES, RunResult, run
from repro.sim.spec import RunSpec

__all__ = [
    "ARCHITECTURES",
    "BatchProgress",
    "RunResult",
    "RunSpec",
    "cross",
    "run",
    "run_batch",
]
