"""The functional phase of both backends, and the SIMT warp-issue replay.

MIMD threads share no mutable state, so a run splits into a functional
phase that computes every thread's issue trace and a timing phase that
replays the traces in simulated time.  :func:`build_plan` is the MIMD
functional phase and the only place where the backend matters for the
MIMD cores: ``reference`` walks each thread with the scalar interpreter
(:func:`repro.isa.executor.trace_threads`) and ``vector`` runs the NumPy
lockstep executor (:func:`repro.isa.vector.execute`).  Both return the
same :class:`~repro.isa.vector.VectorPlan`, which
:class:`~repro.core.corelet.MimdCore` replays.

The SIMT SMs still interpret under ``reference``; under ``vector`` they
replay per-warp traces through :class:`SimtReplay`.
"""

from __future__ import annotations

from repro.isa.executor import trace_threads
from repro.isa.instructions import Op
from repro.isa.vector import K_LDG, SimtPlan, VectorPlan

_LDG = int(Op.LDG)
_J = int(Op.J)
_HALT = int(Op.HALT)
_BEQ = int(Op.BEQ)
_BNEZ = int(Op.BNEZ)


class SimtReplay:
    """Warp-issue replay for the SIMT SMs (``gpgpu``/``vws``/``vws-row``).

    The SM's ``_run`` loop is already warp-granular and architecture-
    agnostic, so the SM swaps its per-warp-issue ``_exec_warp`` for one of the two bound
    methods here and keeps its scheduling loop, global-memory path
    (``_issue_global``: coalescing, transaction count, port
    serialization) and finish logic untouched.

    * :meth:`exec_warp` (no observer attached) consumes the warp's
      recorded trace: decrement a pure-issue gap, or raise the recorded
      event — block on a global load with the recorded per-lane
      addresses, or retire the warp at halt.  The reference's
      mid-``_exec_warp`` ``ready_at`` writes (divergence penalty,
      shared-memory conflict serialization) need no replay: ``_run``
      unconditionally overwrites ``ready_at`` with the issue gap right
      after every ``_exec_warp`` return, so they never had a timing
      consequence (the shipped bank striping is conflict-free; the
      functional phase still counts conflicts exactly for other
      configurations).
    * :meth:`exec_warp_observed` (sanitizer attached) additionally
      evolves the warp's *live* PDOM stack instruction-by-instruction —
      decoding the program at the stack's top PC and consuming the
      recorded branch taken-masks — so ``on_warp_instr``/``on_warp_done``
      observe exactly the reference stack states, in the same order, the
      same number of times.

    Functionally-maintained end state (shared-memory contents and
    counters, per-lane instruction/branch counters, warp aggregate
    counters) is restored by :meth:`restore` from the SM's ``_finish``
    before the completion callback runs.
    """

    def __init__(self, sm, plan: SimtPlan):
        self.sm = sm
        self.plan = plan
        traces = plan.warp_traces
        self._gaps = [tr.gaps for tr in traces]
        self._kinds = [tr.kinds for tr in traces]
        self._payloads = [tr.payloads for tr in traces]
        self._tmasks = [tr.tmasks for tr in traces]
        self._gap_rem = [(g[0] if g else 0) for g in self._gaps]
        self._ev = [0] * len(traces)   # next trace event (fast mode)
        self._ldg = [0] * len(traces)  # next load payload (observed mode)
        self._br = [0] * len(traces)   # next branch taken-mask (observed)

    # ------------------------------------------------------------------
    def exec_warp(self, warp, t: int) -> int:
        """Fast path: one warp issue off the trace (no observer)."""
        w = warp.wid
        g = self._gap_rem[w]
        if g:
            self._gap_rem[w] = g - 1
            return 0
        i = self._ev[w]
        self._ev[w] = i + 1
        gaps = self._gaps[w]
        self._gap_rem[w] = gaps[i + 1] if i + 1 < len(gaps) else 0
        if self._kinds[w][i] == K_LDG:
            rd, addr_lanes = self._payloads[w][i]
            sm = self.sm
            warp.blocked = True
            sm.pending += 1
            sm.engine.schedule_at(t, sm._issue_global, warp, rd, addr_lanes)
        else:  # K_HALT
            warp.done = True
        return 0

    # ------------------------------------------------------------------
    def exec_warp_observed(self, warp, t: int) -> int:
        """Sanitized path: evolve the live PDOM stack per issue so the
        observer sees reference stack states (see class docstring)."""
        sm = self.sm
        sm.observer.on_warp_instr(warp)
        top = warp.stack[-1]
        pc = top[1]
        ins = sm.program.instrs[pc]
        op = int(ins.op)
        w = warp.wid

        if _BEQ <= op <= _BNEZ:
            i = self._br[w]
            self._br[w] = i + 1
            tm = self._tmasks[w][i]
            mask = top[2]
            if tm == mask or tm == 0:
                top[1] = ins.target if tm else pc + 1
            else:
                r = ins.reconv if ins.reconv is not None else len(sm.program)
                top[1] = r  # this entry becomes the reconvergence point
                warp.stack.append([r, pc + 1, mask & ~tm])
                warp.stack.append([r, ins.target, tm])
            sm._pop_reconverged(warp)
            return 0

        if op == _HALT:
            warp.done = True
            sm.observer.on_warp_done(warp)
            return 0

        if op == _LDG:
            i = self._ldg[w]
            self._ldg[w] = i + 1
            rd, addr_lanes = self._payloads[w][i]
            top[1] = pc + 1
            sm._pop_reconverged(warp)
            warp.blocked = True
            sm.pending += 1
            sm.engine.schedule_at(t, sm._issue_global, warp, rd, addr_lanes)
            return 0

        top[1] = ins.target if op == _J else pc + 1
        sm._pop_reconverged(warp)
        return 0

    # ------------------------------------------------------------------
    def restore(self) -> None:
        """Install the functional phase's end state on the SM (called
        from ``_finish`` before the completion callback)."""
        sm = self.sm
        plan = self.plan
        T = sm.n_threads_total
        view = sm.shared_mem.data.reshape(-1, T)
        view[: sm.state_words, :] = plan.local.T
        sm.shared_mem.accesses = plan.shared_accesses
        sm.shared_mem.conflict_extra_cycles = plan.conflict_extra
        sm.warp_instructions = plan.warp_instructions
        sm.active_lane_slots = plan.active_lane_slots
        sm.divergence_idle_slots = plan.divergence_idle_slots
        sm.divergent_branches = plan.divergent_branches
        sm.uniform_branches = plan.uniform_branches
        width = sm.width
        for warp in sm.warps:
            base = warp.wid * width
            for l, ctx in enumerate(warp.lanes):
                g = base + l
                ctx.instr_count = int(plan.instr_count[g])
                ctx.branches = int(plan.branches[g])
                ctx.taken_branches = int(plan.taken_branches[g])
                ctx.halted = True
        # the finished run's traces are dead weight from here on
        self.plan = self._gaps = self._kinds = None
        self._payloads = self._tmasks = None


def build_simt_plan(sm, n_registers: int) -> SimtPlan:
    """Run the SIMT functional phase for an SM's stored launch state."""
    from repro.isa.vector import execute_simt

    args = getattr(sm, "_thread_args", None)
    if args is None:
        raise RuntimeError(
            "vector backend requires set_thread_args() before start()"
        )
    return execute_simt(
        sm.program,
        sm.global_mem.data,
        args,
        n_registers,
        sm.state_words,
        sm.width,
        getattr(sm, "_initial_state", None),
        n_banks=sm.shared_mem.n_banks,
    )


def build_plan(processor, n_registers: int) -> VectorPlan:
    """Run the MIMD functional phase for a processor's stored launch state.

    Expects the processor to have captured ``_thread_args`` (global
    thread order) and ``_initial_state`` before ``start()``."""
    from repro.isa.vector import execute

    cores = getattr(processor, "corelets", None) or processor.cores
    args = getattr(processor, "_thread_args", None)
    if args is None:
        raise RuntimeError("set_thread_args() must precede start()")
    gm = processor.global_mem
    if processor.backend == "vector":
        return execute(processor.program, gm.data, args, n_registers,
                       cores[0].state_words, processor._initial_state)
    return trace_threads(processor.program, gm.read_word, args, n_registers,
                         cores[0].state_words, processor._initial_state)
