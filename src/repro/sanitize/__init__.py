"""Opt-in runtime invariant checking for the simulator.

``SimSanitizer`` attaches read-only observers to the event engine, DRAM
controller, prefetch buffer, SIMT divergence stacks, barrier coordinator,
and DFS clock, and re-derives each mechanism's invariants independently of
the component's own bookkeeping.  A broken invariant raises a structured
:class:`InvariantViolation` carrying the component path and a diagnostic
state snapshot.

Enable it per run with ``ExecOptions(sanitize=True)`` (the ``options``
of a :class:`~repro.sim.spec.RunSpec` or of :func:`repro.api.run`), or the
``--sanitize`` flag of the experiment runner.  Sanitized runs produce byte-identical statistics and
metrics to unsanitized runs: observers never mutate simulation state and
the sanitizer keeps all of its counters private.

:mod:`repro.sanitize.inject` provides the matching fault injectors that
the test suite uses to prove every invariant class actually fires.
"""

from repro.sanitize.sanitizer import InvariantViolation, SimSanitizer

__all__ = ["InvariantViolation", "SimSanitizer"]
