"""repro: a full reproduction of *Millipede: Die-Stacked Memory
Optimizations for Big Data Machine Learning Analytics* (IPDPS 2018).

Quick start
-----------
>>> from repro import run
>>> result = run("millipede", "count", n_records=2048)   # doctest: +SKIP
>>> result.validated                                     # doctest: +SKIP
True

Batches of runs are described by frozen :class:`RunSpec` values and fanned
out over worker processes (deduplicated, and recorded in a durable
:class:`FingerprintStore` when ``store=`` is given) by ``run_batch``:

>>> from repro import RunSpec, run_batch
>>> specs = [RunSpec(a, "count") for a in ("ssmc", "millipede")]
>>> results = run_batch(specs, workers=4,
...                     store=".repro_cache")            # doctest: +SKIP

Execution knobs (validation, sanitizer, tracer, and the fast ``vector``
backend - see ``docs/backends.md``) travel as one frozen
:class:`ExecOptions` value.  ``run``, ``run_batch`` and ``run_campaign``
here are :mod:`repro.api`'s, the only public run surface:

>>> from repro import ExecOptions, run
>>> r = run("millipede", "count",
...         options=ExecOptions(backend="vector"))       # doctest: +SKIP

The package layers:

* :mod:`repro.engine`    - discrete-event simulation kernel
* :mod:`repro.isa`       - the mini RISC ISA kernels are written in
* :mod:`repro.dram`      - die-stacked DRAM (banks, FR-FCFS controller)
* :mod:`repro.mem`       - caches, scratchpads, the row prefetch buffer
* :mod:`repro.core`      - the Millipede processor (the paper's contribution)
* :mod:`repro.arch`      - GPGPU / VWS / SSMC / multicore baselines
* :mod:`repro.layout`    - interleaved record layouts
* :mod:`repro.workloads` - the eight BMLA benchmarks + golden models
* :mod:`repro.mapreduce` - host / cluster MapReduce layers
* :mod:`repro.energy`    - component energy model
* :mod:`repro.sim`       - run driver, campaigns, the fingerprint store
* :mod:`repro.api`       - the public run entry points
* :mod:`repro.sanitize`  - opt-in runtime invariant checking
* :mod:`repro.trace`     - opt-in timeline tracing + host profiling
* :mod:`repro.experiments` - regenerates every table and figure
"""

from repro import api
from repro.api import run, run_batch, run_campaign
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sanitize import InvariantViolation, SimSanitizer
from repro.sim.campaign import (
    BatchProgress,
    CampaignPlan,
    CampaignReport,
    plan_campaign,
    shard_specs,
)
from repro.sim.driver import ARCHITECTURES, RunResult
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore
from repro.trace import SimTracer, TraceResult
from repro.workloads.registry import get_workload, workload_names

__version__ = "1.6.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SystemConfig",
    "ARCHITECTURES",
    "BatchProgress",
    "CampaignPlan",
    "CampaignReport",
    "ExecOptions",
    "FingerprintStore",
    "InvariantViolation",
    "RunResult",
    "RunSpec",
    "SimSanitizer",
    "SimTracer",
    "TraceResult",
    "api",
    "plan_campaign",
    "run",
    "run_batch",
    "run_campaign",
    "shard_specs",
    "get_workload",
    "workload_names",
    "__version__",
]
