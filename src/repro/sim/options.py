"""ExecOptions: the *how* of a simulation, separated from the *what*.

A :class:`RunSpec` describes what to simulate (architecture, workload,
config, record count, seed); :class:`ExecOptions` describes how to execute
it (validation, runtime invariant checking, tracing, and which execution
backend runs the instruction streams).  Keeping the execution knobs in one
frozen, keyword-only sub-value stops ``RunSpec`` from accreting a new flat
boolean per PR and gives every entry point (:mod:`repro.api`,
:func:`repro.sim.driver.run`, :func:`repro.sim.campaign.run_batch`) one
vocabulary.

Backends
--------
Both backends run on the same binary-heap event engine.  They differ
only in the functional phase, which computes every thread's (SIMT: every
warp's) issue trace before simulated time starts; the same
:class:`repro.core.corelet.MimdCore` or
:class:`repro.arch.gpgpu.GpgpuSM` replays it.

===============  ========================================================
``reference``    scalar interpreter: MIMD threads are walked one
                 instruction at a time (:func:`repro.isa.executor.
                 trace_threads`), SIMT warps one warp instruction at a
                 time (:func:`repro.isa.executor.trace_warps`)
``vector``       NumPy batch interpreter: each processor's threads are
                 functionally executed as vectorized column ops over
                 basic blocks (:mod:`repro.isa.vector`).  Covers every
                 registered architecture: MIMD cores replay per-thread
                 traces, and the SIMT SMs (``gpgpu``/``vws``/
                 ``vws-row``) replay per-warp traces from the lockstep
                 PDOM divergence engine
===============  ========================================================

Both backends are proven byte-identical by ``tests/test_backends.py``; see
``docs/backends.md`` for selection guidance and the equivalence argument.

>>> ExecOptions(backend="vector").backend
'vector'
>>> ExecOptions() == ExecOptions(validate=True)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

#: execution backends, in "most reference" to "most optimized" order
BACKENDS = ("reference", "vector")


@dataclass(frozen=True, kw_only=True)
class ExecOptions:
    """How one simulation executes.  Frozen, keyword-only, hashable.

    Every field is part of the spec identity: sanitized, traced, and
    fast-backend results are stored separately even though a clean run
    produces identical statistics under all of them.
    """

    #: compare the simulated reduction against the golden NumPy model
    validate: bool = True
    #: attach :class:`repro.sanitize.SimSanitizer` runtime invariant checking
    sanitize: bool = False
    #: attach :class:`repro.trace.SimTracer` timeline sampling + profiling
    trace: bool = False
    #: execution backend (see module docstring); one of :data:`BACKENDS`
    backend: str = "reference"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(BACKENDS)}"
            )

    # ------------------------------------------------------------------
    def replace(self, **kwargs) -> "ExecOptions":
        return dc_replace(self, **kwargs)

    # ------------------------------------------------------------------
    # serialization (flat keys: the RunSpec wire format predates this
    # class, and content hashes of pre-redesign specs must stay stable)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Flat JSON-portable dict.  ``backend`` is emitted only when
        non-default so every pre-``backend`` spec keeps its content hash."""
        out = {
            "validate": self.validate,
            "sanitize": self.sanitize,
            "trace": self.trace,
        }
        if self.backend != "reference":
            out["backend"] = self.backend
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected by the
        constructor, absent keys keep their defaults (dicts from before a
        field existed deserialize to that field's default)."""
        return cls(**data)
