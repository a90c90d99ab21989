"""The functional phase of both backends.

Threads (and SIMT warps) share no mutable state, so a run splits into a
functional phase that computes every thread's or warp's issue trace and
a timing phase that replays the traces in simulated time.  These two
functions are the functional phase and the only place where the backend
matters:

* :func:`build_plan` (MIMD cores): ``reference`` walks each thread with
  the scalar interpreter (:func:`repro.isa.executor.trace_threads`),
  ``vector`` runs the NumPy lockstep executor
  (:func:`repro.isa.vector.execute`).  Both return the same
  :class:`~repro.isa.vector.VectorPlan`, which
  :class:`~repro.core.corelet.MimdCore` replays.
* :func:`build_simt_plan` (SIMT SMs): ``reference`` walks each warp under
  its PDOM stack (:func:`repro.isa.executor.trace_warps`), ``vector`` runs
  the NumPy divergence engine (:func:`repro.isa.vector.execute_simt`).
  Both return the same :class:`~repro.isa.vector.SimtPlan`, which
  :class:`~repro.arch.gpgpu.GpgpuSM` replays.
"""

from __future__ import annotations

from repro.isa.executor import trace_threads, trace_warps
from repro.isa.vector import SimtPlan, VectorPlan


def build_simt_plan(sm, n_registers: int) -> SimtPlan:
    """Run the SIMT functional phase for an SM's stored launch state
    (``_thread_args`` in global thread order, ``_initial_state``)."""
    from repro.isa.vector import execute_simt

    args = sm._thread_args
    if args is None:
        raise RuntimeError("set_thread_args() must precede start()")
    shape = (args, n_registers, sm.state_words, sm.width, sm._initial_state)
    if sm.backend == "vector":
        return execute_simt(sm.program, sm.global_mem.data, *shape)
    return trace_warps(sm.program, sm.global_mem.read_word, *shape)


def build_plan(processor, n_registers: int) -> VectorPlan:
    """Run the MIMD functional phase for a
    :class:`~repro.core.processor.MimdProcessor`'s stored launch state
    (``_thread_args`` in global thread order, ``_initial_state``)."""
    from repro.isa.vector import execute

    args = processor._thread_args
    if args is None:
        raise RuntimeError("set_thread_args() must precede start()")
    gm = processor.global_mem
    state_words = processor.cores[0].state_words
    if processor.backend == "vector":
        return execute(processor.program, gm.data, args, n_registers,
                       state_words, processor._initial_state)
    return trace_threads(processor.program, gm.read_word, args, n_registers,
                         state_words, processor._initial_state)
