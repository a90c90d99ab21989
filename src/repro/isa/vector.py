"""NumPy batch functional executor (the ``vector`` backend's first phase).

Every BMLA kernel has one structural property that pulls the *functional*
work out of the event loop entirely:

**threads never share mutable state.**  Global memory is read-only input
(``stg`` is not implemented, section IV-E), and live state lives in
thread-private scratchpad partitions.  Therefore each thread's functional
trajectory — every register value, branch outcome, and memory address —
is fully determined by its start state and is *independent of all timing*.

So a MIMD run splits in two phases:

1. **Functional phase:** compute a :class:`VectorPlan`: per-thread
   instruction *traces* plus final local memory and per-thread counters.
   The ``reference`` backend walks each thread with the scalar
   interpreter (:func:`repro.isa.executor.trace_threads`).  The
   ``vector`` backend (here) executes all ``T`` hardware threads in
   lockstep as NumPy column operations.  Threads are grouped by PC
   (most-populated PC first); the straight-line basic block at that PC
   (boundaries from :func:`repro.isa.cfg.leader_pcs`) runs as one batched
   column op per instruction across the whole group.
2. **Timing phase (:class:`repro.core.corelet.MimdCore`):** the
   event-driven core model consumes the traces — the same replay loop
   for both backends, so the same issue order, event schedule and
   statistics.

The same machinery drives the SIMT architectures (``gpgpu``/``vws``/
``vws-row``): :func:`execute_simt` runs a **PDOM divergence engine** over
dense per-warp reconvergence-stack matrices (one row of reconvergence-PC /
next-PC / active-mask per stack frame), executing every active lane of a
warp in lockstep through the shared column-op dispatch and recording
per-*warp* traces plus the per-branch taken-lane masks the observed replay
needs to evolve the reference stack discipline.  Warp-stack transitions
happen only at basic-block boundaries, which is exact: every reconvergence
PC and every stack next-PC is a block leader, so the reference's
per-instruction ``_pop_reconverged`` can only ever fire where a block ends.

Traces
------
A thread's trace alternates *gaps* and *events*: ``gaps[i]`` pure issues
(ALU, branches, jumps, local loads/stores — everything the core handles
inline in one cycle) precede event ``i``, which is one of

=========  ========================================================
``K_LDG``  a global load issue; ``addrs[i]`` is the word address the
           core must demand from its input port
``K_BAR``  a software-barrier issue (rendezvous via the coordinator)
``K_HALT`` the thread's final issue; always last
=========  ========================================================

Every gap unit and every event is exactly one issued instruction, so
``sum(gaps) + len(kinds)`` equals the thread's dynamic instruction count.

A *warp* trace (:class:`WarpTrace`) is the same structure per warp: the
SIMT cores issue whole warps, and barriers are plain issues there (the
SIMT architectures run barrier-free kernels), so only ``K_LDG`` and
``K_HALT`` occur; a load's payload carries the ``(lane, address)`` pairs
of the active lanes in the reference's ascending-lane order.

Exactness
---------
Column ops are written to match the scalar interpreter bit-for-bit on
IEEE-754 float64: ``min``/``max`` via ``np.where`` (propagates the scalar
``a if a < b else b`` choice exactly), integer ops via truncating int64
casts with NumPy's floor-division/remainder (Python semantics), and error
parity for the reference's failure modes (``ZeroDivisionError``, sqrt
domain, address range, ``stg``, divergent ``halt``).  The one
representational difference is that registers here are always float64
while the scalar interpreter keeps Python ints exact beyond 2**53 —
irrelevant for every kernel the workload framework can emit (addresses
and counters stay far below 2**53) and checked nowhere else, but
documented for honesty.  Fatal kernel errors surface during this phase,
i.e. *before* simulated time starts, under both backends for the MIMD
cores; the SIMT SMs' ``reference`` interpreter still raises them mid-run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.cfg import leader_pcs
from repro.isa.instructions import Op
from repro.isa.program import Program

_ADD = int(Op.ADD); _SUB = int(Op.SUB); _MUL = int(Op.MUL); _DIV = int(Op.DIV)
_MIN = int(Op.MIN); _MAX = int(Op.MAX); _ABS = int(Op.ABS); _NEG = int(Op.NEG)
_SQRT = int(Op.SQRT); _MOV = int(Op.MOV)
_IDIV = int(Op.IDIV); _REM = int(Op.REM); _AND = int(Op.AND); _OR = int(Op.OR)
_XOR = int(Op.XOR); _SLL = int(Op.SLL); _SRL = int(Op.SRL); _TRUNC = int(Op.TRUNC)
_SLT = int(Op.SLT); _SLE = int(Op.SLE); _SEQ = int(Op.SEQ); _SNE = int(Op.SNE)
_LI = int(Op.LI); _ADDI = int(Op.ADDI); _MULI = int(Op.MULI)
_SLTI = int(Op.SLTI); _ANDI = int(Op.ANDI)
_BEQ = int(Op.BEQ); _BNE = int(Op.BNE); _BLT = int(Op.BLT); _BGE = int(Op.BGE)
_BEQZ = int(Op.BEQZ); _BNEZ = int(Op.BNEZ); _J = int(Op.J)
_LDG = int(Op.LDG); _STG = int(Op.STG); _LDL = int(Op.LDL); _STL = int(Op.STL)
_HALT = int(Op.HALT); _NOP = int(Op.NOP); _BAR = int(Op.BAR)

#: trace event kinds
K_LDG = 0
K_BAR = 1
K_HALT = 2


class ThreadTrace:
    """One thread's issue trace (see module docstring)."""

    __slots__ = ("gaps", "kinds", "addrs")

    def __init__(self):
        self.gaps: list[int] = []    # pure issues before event i
        self.kinds: list[int] = []   # K_LDG / K_BAR / K_HALT
        self.addrs: list[int] = []   # word address for K_LDG, -1 otherwise

    @property
    def total_issues(self) -> int:
        return sum(self.gaps) + len(self.kinds)


class WarpTrace:
    """One warp's issue trace plus the branch outcomes of its lanes.

    ``gaps``/``kinds`` follow the :class:`ThreadTrace` structure at warp
    granularity (only ``K_LDG``/``K_HALT`` occur; barriers are plain warp
    issues on the SIMT cores).  ``payloads[i]`` carries a load's
    ``(rd, [(lane, word_address), ...])`` in ascending active-lane order,
    or ``None`` for the halt.  ``tmasks`` lists the taken-lane mask of
    every branch the warp issued, in issue order — the observed replay
    consumes them to evolve the live PDOM stack exactly as the reference
    interpreter would.
    """

    __slots__ = ("gaps", "kinds", "payloads", "tmasks")

    def __init__(self):
        self.gaps: list[int] = []
        self.kinds: list[int] = []
        self.payloads: list = []
        self.tmasks: list[int] = []

    @property
    def total_issues(self) -> int:
        return sum(self.gaps) + len(self.kinds)


class VectorPlan:
    """Everything the functional phase produced for the timing replay."""

    __slots__ = ("traces", "local", "branches", "taken_branches",
                 "local_reads", "local_writes")

    def __init__(self, traces, local, branches, taken_branches,
                 local_reads, local_writes):
        #: per-global-thread :class:`ThreadTrace`
        self.traces: list[ThreadTrace] = traces
        #: final per-thread live state, shape ``[T, state_words]`` float64
        self.local: np.ndarray = local
        self.branches: np.ndarray = branches              # [T] int64
        self.taken_branches: np.ndarray = taken_branches  # [T] int64
        self.local_reads: np.ndarray = local_reads        # [T] int64
        self.local_writes: np.ndarray = local_writes      # [T] int64


class SimtPlan:
    """The SIMT functional phase's product: per-warp traces, final live
    state, and every counter the timing replay restores at finish."""

    __slots__ = ("warp_traces", "local", "instr_count", "branches",
                 "taken_branches", "local_reads", "local_writes",
                 "warp_instructions", "active_lane_slots",
                 "divergence_idle_slots", "divergent_branches",
                 "uniform_branches", "shared_accesses", "conflict_extra")

    def __init__(self, warp_traces, local, instr_count, branches,
                 taken_branches, local_reads, local_writes,
                 warp_instructions, active_lane_slots,
                 divergence_idle_slots, divergent_branches,
                 uniform_branches, shared_accesses, conflict_extra):
        #: per-warp :class:`WarpTrace`
        self.warp_traces: list[WarpTrace] = warp_traces
        #: final per-thread live state, shape ``[T, state_words]`` float64
        self.local: np.ndarray = local
        self.instr_count: np.ndarray = instr_count        # [T] int64
        self.branches: np.ndarray = branches              # [T] int64
        self.taken_branches: np.ndarray = taken_branches  # [T] int64
        self.local_reads: np.ndarray = local_reads        # [T] int64
        self.local_writes: np.ndarray = local_writes      # [T] int64
        self.warp_instructions = warp_instructions
        self.active_lane_slots = active_lane_slots
        self.divergence_idle_slots = divergence_idle_slots
        self.divergent_branches = divergent_branches
        self.uniform_branches = uniform_branches
        #: banked-shared-memory access count (one per active lane per
        #: local load/store) and total conflict serialization cycles
        self.shared_accesses = shared_accesses
        self.conflict_extra = conflict_extra


class _Block:
    """One compiled straight-line block (leader to control transfer)."""

    __slots__ = ("pc", "instrs", "n_instrs", "pattern", "trailing",
                 "terminal", "next_pc", "has_events")

    def __init__(self, pc: int, instrs: list):
        self.pc = pc
        self.instrs = instrs
        self.n_instrs = len(instrs)
        # (pure_count_before, kind, ldg_index) per event, in block order
        self.pattern: list[tuple[int, int, int]] = []
        pure = 0
        n_ldg = 0
        for ins in instrs:
            op = int(ins.op)
            if op == _LDG:
                self.pattern.append((pure, K_LDG, n_ldg))
                n_ldg += 1
                pure = 0
            elif op == _BAR:
                self.pattern.append((pure, K_BAR, -1))
                pure = 0
            elif op == _HALT:
                self.pattern.append((pure, K_HALT, -1))
                pure = 0
            else:
                pure += 1
        self.trailing = pure
        self.has_events = bool(self.pattern)

        last = instrs[-1]
        last_op = int(last.op)
        if last_op == _HALT:
            self.terminal = "halt"
        elif _BEQ <= last_op <= _BNEZ:
            self.terminal = "branch"
        elif last_op == _J:
            self.terminal = "jump"
        else:
            self.terminal = "fall"
        self.next_pc = pc + len(instrs)  # used by "fall" (and branch not-taken)


def compile_blocks(program: Program) -> dict[int, _Block]:
    """Basic blocks keyed by leader PC.  Blocks are truncated after the
    first ``halt`` (anything past it in the same block is unreachable)."""
    instrs = program.instrs
    leaders = leader_pcs(instrs)
    bounds = leaders + [len(instrs)]
    blocks: dict[int, _Block] = {}
    for i, pc in enumerate(leaders):
        body = instrs[pc:bounds[i + 1]]
        for j, ins in enumerate(body):
            if int(ins.op) == _HALT:
                body = body[: j + 1]
                break
        blocks[pc] = _Block(pc, body)
    return blocks


def _init_thread_state(thread_args, n_regs, state_words, initial_state):
    """Registers and local-state matrices shared by both executors."""
    T = len(thread_args)
    R = np.zeros((T, n_regs), dtype=np.float64)
    for t, args in enumerate(thread_args):
        for reg, val in args.items():
            if reg == 0:
                raise ValueError("r0 is hard-wired to zero")
            R[t, reg] = val
    L = np.zeros((T, state_words), dtype=np.float64)
    if initial_state is not None:
        L[:, : len(initial_state)] = initial_state
    return R, L


def execute(
    program: Program,
    gm_data: np.ndarray,
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    initial_state: Optional[np.ndarray] = None,
) -> VectorPlan:
    """Functionally execute all threads; return the replay plan.

    ``thread_args`` is in *global thread order* (the same list the driver
    hands to ``Processor.set_thread_args``); ``state_words`` is the
    per-thread live-state partition size of the target architecture.
    """
    R, L = _init_thread_state(thread_args, n_regs, state_words, initial_state)
    blocks = compile_blocks(program)
    machine = _VectorMachine(program, blocks, gm_data, R, L, state_words)
    machine.run()
    return VectorPlan(
        traces=machine.traces,
        local=L,
        branches=machine.branches,
        taken_branches=machine.taken,
        local_reads=machine.lreads,
        local_writes=machine.lwrites,
    )


def execute_simt(
    program: Program,
    gm_data: np.ndarray,
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    width: int,
    initial_state: Optional[np.ndarray] = None,
    n_banks: Optional[int] = None,
    issue_log: Optional[list] = None,
) -> SimtPlan:
    """Functionally execute all warps under PDOM divergence; return the
    SIMT replay plan.

    ``width`` is the warp width (lanes per warp); threads group into warps
    in global-thread order, ``width`` consecutive threads per warp —
    exactly the reference SM's lane layout.  ``n_banks`` enables
    banked-shared-memory conflict accounting (the reference charges one
    access per active lane per local load/store and serializes bank
    conflicts); ``issue_log``, when given a list, receives one
    ``(wid, block_pc, n_instrs, mask, stack_snapshot)`` tuple per
    warp-block execution — the property tests expand these into the
    per-issue stream and compare against the reference stack discipline.
    """
    if len(thread_args) % width:
        raise ValueError(
            f"{len(thread_args)} threads not divisible by {width}-wide warps"
        )
    R, L = _init_thread_state(thread_args, n_regs, state_words, initial_state)
    blocks = compile_blocks(program)
    machine = _SimtMachine(program, blocks, gm_data, R, L, state_words,
                           width, n_banks, issue_log)
    machine.run()
    return SimtPlan(
        warp_traces=machine.traces,
        local=L,
        instr_count=machine.instr_count,
        branches=machine.branches,
        taken_branches=machine.taken,
        local_reads=machine.lreads,
        local_writes=machine.lwrites,
        warp_instructions=machine.warp_instructions,
        active_lane_slots=machine.active_lane_slots,
        divergence_idle_slots=machine.divergence_idle_slots,
        divergent_branches=machine.divergent_branches,
        uniform_branches=machine.uniform_branches,
        shared_accesses=machine.shared_accesses,
        conflict_extra=machine.conflict_extra,
    )


class _LockstepMachine:
    """Shared column-op dispatch for lockstep execution over a thread
    group.  Subclasses own control flow (PC grouping or warp stacks);
    this class owns the functional semantics of every opcode."""

    def __init__(self, program, blocks, gm_data, R, L, state_words):
        self.program = program
        self.blocks = blocks
        self.gm = np.asarray(gm_data, dtype=np.float64)
        self.R = R
        self.L = L
        self.state_words = state_words
        T = R.shape[0]
        self.T = T
        self.branches = np.zeros(T, dtype=np.int64)
        self.taken = np.zeros(T, dtype=np.int64)
        self.lreads = np.zeros(T, dtype=np.int64)
        self.lwrites = np.zeros(T, dtype=np.int64)
        #: when set to a list, ``_apply_ops`` appends every LDL/STL
        #: address column (SIMT bank-conflict accounting)
        self._shared_cols: Optional[list] = None

    # ------------------------------------------------------------------
    def _apply_ops(self, instrs: list, idx: np.ndarray) -> list[np.ndarray]:
        """Apply one block's instructions as column ops over the thread
        group ``idx``; returns the LDG address columns in block order.
        Terminal control transfers (branch/jump/halt) are left to the
        caller — their condition is evaluated via :meth:`_branch_cond`."""
        R, L, gm = self.R, self.L, self.gm
        ldg_addrs: list[np.ndarray] = []

        for ins in instrs:
            op = int(ins.op)
            rd = ins.rd
            if op == _ADD:
                v = R[idx, ins.rs] + R[idx, ins.rt]
            elif op == _ADDI:
                v = R[idx, ins.rs] + ins.imm
            elif op == _SUB:
                v = R[idx, ins.rs] - R[idx, ins.rt]
            elif op == _MUL:
                v = R[idx, ins.rs] * R[idx, ins.rt]
            elif op == _MULI:
                v = R[idx, ins.rs] * ins.imm
            elif op == _LI:
                v = np.full(idx.size, ins.imm, dtype=np.float64)
            elif op == _MOV:
                v = R[idx, ins.rs]
            elif op == _SLT:
                v = (R[idx, ins.rs] < R[idx, ins.rt]).astype(np.float64)
            elif op == _SLTI:
                v = (R[idx, ins.rs] < ins.imm).astype(np.float64)
            elif op == _SLE:
                v = (R[idx, ins.rs] <= R[idx, ins.rt]).astype(np.float64)
            elif op == _SEQ:
                v = (R[idx, ins.rs] == R[idx, ins.rt]).astype(np.float64)
            elif op == _SNE:
                v = (R[idx, ins.rs] != R[idx, ins.rt]).astype(np.float64)
            elif op == _DIV:
                b = R[idx, ins.rt]
                if np.any(b == 0.0):
                    raise ZeroDivisionError("float division by zero")
                v = R[idx, ins.rs] / b
            elif op == _MIN:
                a, b = R[idx, ins.rs], R[idx, ins.rt]
                v = np.where(a < b, a, b)
            elif op == _MAX:
                a, b = R[idx, ins.rs], R[idx, ins.rt]
                v = np.where(a > b, a, b)
            elif op == _ABS:
                v = np.abs(R[idx, ins.rs])
            elif op == _NEG:
                v = -R[idx, ins.rs]
            elif op == _SQRT:
                a = R[idx, ins.rs]
                if np.any(a < 0.0):
                    raise ValueError("math domain error")
                v = np.sqrt(a)
            elif op == _TRUNC:
                v = np.trunc(R[idx, ins.rs])
            elif op == _IDIV:
                a = R[idx, ins.rs].astype(np.int64)
                b = R[idx, ins.rt].astype(np.int64)
                if np.any(b == 0):
                    raise ZeroDivisionError("integer division or modulo by zero")
                v = np.floor_divide(a, b).astype(np.float64)
            elif op == _REM:
                a = R[idx, ins.rs].astype(np.int64)
                b = R[idx, ins.rt].astype(np.int64)
                if np.any(b == 0):
                    raise ZeroDivisionError("integer division or modulo by zero")
                v = np.remainder(a, b).astype(np.float64)
            elif op == _AND:
                v = (R[idx, ins.rs].astype(np.int64)
                     & R[idx, ins.rt].astype(np.int64)).astype(np.float64)
            elif op == _ANDI:
                v = (R[idx, ins.rs].astype(np.int64) & int(ins.imm)).astype(np.float64)
            elif op == _OR:
                v = (R[idx, ins.rs].astype(np.int64)
                     | R[idx, ins.rt].astype(np.int64)).astype(np.float64)
            elif op == _XOR:
                v = (R[idx, ins.rs].astype(np.int64)
                     ^ R[idx, ins.rt].astype(np.int64)).astype(np.float64)
            elif op == _SLL:
                v = np.left_shift(
                    R[idx, ins.rs].astype(np.int64),
                    R[idx, ins.rt].astype(np.int64),
                ).astype(np.float64)
            elif op == _SRL:
                v = np.right_shift(
                    R[idx, ins.rs].astype(np.int64),
                    R[idx, ins.rt].astype(np.int64),
                ).astype(np.float64)
            elif op == _NOP:
                continue
            elif op == _BAR:
                continue  # rendezvous is pure timing; recorded via pattern
            elif op == _J:
                break  # terminal; PC update is the caller's
            elif op == _HALT:
                break  # terminal; halt handling is the caller's
            elif _BEQ <= op <= _BNEZ:
                break  # terminal; branch handling is the caller's
            elif op == _LDG:
                addr = (R[idx, ins.rs] + ins.imm).astype(np.int64)
                bad = (addr < 0) | (addr >= self.gm.size)
                if np.any(bad):
                    raise IndexError(
                        f"global read out of range: {int(addr[np.argmax(bad)])} "
                        f"(size {self.gm.size})"
                    )
                ldg_addrs.append(addr)
                if rd:
                    R[idx, rd] = gm[addr]
                continue
            elif op == _LDL:
                addr = (R[idx, ins.rs] + ins.imm).astype(np.int64)
                self._check_local(addr, idx)
                if rd:
                    R[idx, rd] = L[idx, addr]
                self.lreads[idx] += 1
                if self._shared_cols is not None:
                    self._shared_cols.append(addr)
                continue
            elif op == _STL:
                addr = (R[idx, ins.rt] + ins.imm).astype(np.int64)
                self._check_local(addr, idx)
                L[idx, addr] = R[idx, ins.rs]
                self.lwrites[idx] += 1
                if self._shared_cols is not None:
                    self._shared_cols.append(addr)
                continue
            elif op == _STG:
                raise NotImplementedError(
                    "BMLA Map kernels do not store to global memory (outputs "
                    "live in local state and are copied out by the host, "
                    "section IV-E)"
                )
            else:  # pragma: no cover - full opcode coverage above
                raise ValueError(f"vector backend cannot execute {ins.text}")

            if rd:
                R[idx, rd] = v

        return ldg_addrs

    # ------------------------------------------------------------------
    def _branch_cond(self, ins, idx: np.ndarray) -> np.ndarray:
        """Boolean taken-vector of a terminal branch over group ``idx``."""
        op = int(ins.op)
        a = self.R[idx, ins.rs]
        if op == _BEQ:
            return a == self.R[idx, ins.rt]
        if op == _BNE:
            return a != self.R[idx, ins.rt]
        if op == _BLT:
            return a < self.R[idx, ins.rt]
        if op == _BGE:
            return a >= self.R[idx, ins.rt]
        if op == _BEQZ:
            return a == 0
        return a != 0  # BNEZ

    # ------------------------------------------------------------------
    def _check_local(self, addr: np.ndarray, idx: np.ndarray) -> None:
        bad = (addr < 0) | (addr >= self.state_words)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise IndexError(
                f"thread {int(idx[j])} local address {int(addr[j])} exceeds "
                f"its {self.state_words}-word state partition"
            )


class _VectorMachine(_LockstepMachine):
    """Lockstep block interpreter over all threads (MIMD cores)."""

    def __init__(self, program, blocks, gm_data, R, L, state_words):
        super().__init__(program, blocks, gm_data, R, L, state_words)
        T = self.T
        self.P = np.zeros(T, dtype=np.int64)
        self.halted = np.zeros(T, dtype=bool)
        self.gap_acc = np.zeros(T, dtype=np.int64)
        self.traces = [ThreadTrace() for _ in range(T)]

    # ------------------------------------------------------------------
    def run(self) -> None:
        P, halted = self.P, self.halted
        plen = len(self.program.instrs) + 1
        while True:
            alive = np.flatnonzero(~halted)
            if alive.size == 0:
                return
            pcs = P[alive]
            # most-populated PC first (ties to the lowest PC); bincount
            # beats np.unique since PCs are bounded by the program length
            pc = int(np.bincount(pcs, minlength=plen).argmax())
            idx = alive[pcs == pc]
            block = self.blocks.get(pc)
            if block is None:
                raise RuntimeError(f"pc {pc} is not a basic-block leader")
            self._exec_block(block, idx)

    # ------------------------------------------------------------------
    def _exec_block(self, block: _Block, idx: np.ndarray) -> None:
        ldg_addrs = self._apply_ops(block.instrs, idx)

        # ---- trace recording -----------------------------------------
        gap_acc = self.gap_acc
        if block.has_events:
            traces = self.traces
            pattern = block.pattern
            trailing = block.trailing
            addr_cols = [a.tolist() for a in ldg_addrs]
            for j, g in enumerate(idx.tolist()):
                tr = traces[g]
                acc = int(gap_acc[g])
                for pure, kind, ldg_i in pattern:
                    tr.gaps.append(acc + pure)
                    tr.kinds.append(kind)
                    tr.addrs.append(addr_cols[ldg_i][j] if ldg_i >= 0 else -1)
                    acc = 0
                gap_acc[g] = acc + trailing
        else:
            gap_acc[idx] += block.n_instrs

        # ---- control transfer ----------------------------------------
        last = block.instrs[-1]
        if block.terminal == "halt":
            self.halted[idx] = True
        elif block.terminal == "branch":
            cond = self._branch_cond(last, idx)
            self.branches[idx] += 1
            self.taken[idx] += cond
            self.P[idx] = np.where(cond, last.target, block.next_pc)
        elif block.terminal == "jump":
            self.P[idx] = last.target
        else:
            self.P[idx] = block.next_pc


class _SimtMachine(_LockstepMachine):
    """PDOM divergence engine: lockstep warps over dense stack matrices.

    The per-warp reconvergence stack of the reference
    (:class:`repro.arch.gpgpu._Warp`: a list of ``[reconv_pc, next_pc,
    mask]`` frames) is held here as three ``[n_warps, capacity]`` int64
    matrices plus a depth vector.  Warps group by top-of-stack PC
    (most-populated first); one basic block executes for the whole group
    in lockstep, the active lanes of every grouped warp gathered into one
    flat thread-index vector for the shared column-op dispatch.  Stack
    transitions (branch push, jump/fall advance, reconvergence pops)
    happen only at block ends — exact, because every reconvergence PC and
    every frame next-PC is a block leader, so the reference's
    after-every-instruction ``_pop_reconverged`` can only fire there.
    """

    def __init__(self, program, blocks, gm_data, R, L, state_words,
                 width, n_banks, issue_log=None):
        super().__init__(program, blocks, gm_data, R, L, state_words)
        T = self.T
        self.width = width
        self.n_warps = T // width
        self.plen = len(program)
        self.full_mask = (1 << width) - 1
        self.lane_ids = np.arange(width, dtype=np.int64)
        self.bitvals = np.left_shift(np.int64(1), self.lane_ids)

        W = self.n_warps
        cap = 8
        self.s_reconv = np.zeros((W, cap), dtype=np.int64)
        self.s_pc = np.zeros((W, cap), dtype=np.int64)
        self.s_mask = np.zeros((W, cap), dtype=np.int64)
        self.depth = np.ones(W, dtype=np.int64)
        self.s_reconv[:, 0] = self.plen
        self.s_mask[:, 0] = self.full_mask
        self.done = np.zeros(W, dtype=bool)

        self.gap_acc = np.zeros(W, dtype=np.int64)
        self.traces = [WarpTrace() for _ in range(W)]
        self.instr_count = np.zeros(T, dtype=np.int64)

        self.warp_instructions = 0
        self.active_lane_slots = 0
        self.divergence_idle_slots = 0
        self.divergent_branches = 0
        self.uniform_branches = 0
        self.shared_accesses = 0
        self.conflict_extra = 0
        self.n_banks = n_banks
        # bank striping phys = addr * T + tid with consecutive active-lane
        # tids is provably conflict-free when T is a bank multiple and a
        # warp spans at most n_banks lanes; otherwise count exactly below
        self._conflict_free = (
            n_banks is None or (T % n_banks == 0 and width <= n_banks)
        )
        self.issue_log = issue_log
        self._simt_pats: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        plen = self.plen + 1
        while True:
            alive = np.flatnonzero(~self.done)
            if alive.size == 0:
                return
            tops = self.s_pc[alive, self.depth[alive] - 1]
            # most-populated top-of-stack PC first (ties to the lowest)
            pc = int(np.bincount(tops, minlength=plen).argmax())
            ws = alive[tops == pc]
            block = self.blocks.get(pc)
            if block is None:
                raise RuntimeError(f"pc {pc} is not a basic-block leader")
            self._exec_warp_block(block, ws)

    # ------------------------------------------------------------------
    def _simt_pattern(self, block: _Block) -> tuple:
        """``(events, trailing, n_shared)`` with barriers folded into the
        pure-gap counts (the SIMT cores issue BAR inline) and each LDG
        event carrying its destination register."""
        pat = self._simt_pats.get(block.pc)
        if pat is None:
            events = []
            pure = 0
            n_ldg = 0
            n_shared = 0
            for ins in block.instrs:
                op = int(ins.op)
                if op == _LDG:
                    events.append((pure, K_LDG, n_ldg, ins.rd))
                    n_ldg += 1
                    pure = 0
                elif op == _HALT:
                    events.append((pure, K_HALT, -1, 0))
                    pure = 0
                else:
                    if op == _LDL or op == _STL:
                        n_shared += 1
                    pure += 1
            pat = (events, pure, n_shared)
            self._simt_pats[block.pc] = pat
        return pat

    # ------------------------------------------------------------------
    def _exec_warp_block(self, block: _Block, ws: np.ndarray) -> None:
        width = self.width
        depth = self.depth
        d = depth[ws] - 1
        masks = self.s_mask[ws, d]
        lane_bits = ((masks[:, None] >> self.lane_ids) & 1).astype(bool)
        counts = lane_bits.sum(axis=1)
        gidx = (ws[:, None] * width + self.lane_ids)[lane_bits]
        G = ws.size
        n_instrs = block.n_instrs
        events, trailing, n_shared = self._simt_pattern(block)

        if self.issue_log is not None:
            for gi, w in enumerate(ws.tolist()):
                di = int(depth[w])
                snap = tuple(
                    (int(self.s_reconv[w, j]), int(self.s_pc[w, j]),
                     int(self.s_mask[w, j]))
                    for j in range(di)
                )
                self.issue_log.append(
                    (w, block.pc, n_instrs, int(masks[gi]), snap))

        if n_shared and not self._conflict_free:
            self._shared_cols = []
        ldg_cols = self._apply_ops(block.instrs, gidx)

        # ---- issue accounting (mask is constant within a block) ------
        k_total = int(counts.sum())
        self.warp_instructions += n_instrs * G
        self.active_lane_slots += n_instrs * k_total
        self.divergence_idle_slots += n_instrs * (width * G - k_total)
        self.instr_count[gidx] += n_instrs
        if n_shared:
            self.shared_accesses += n_shared * k_total

        off = None
        if ldg_cols or self._shared_cols is not None:
            off = np.zeros(G + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])

        if self._shared_cols is not None:
            cols = self._shared_cols
            self._shared_cols = None
            nb = self.n_banks
            T = self.T
            for col in cols:
                banks = (col * T + gidx) % nb
                for gi in range(G):
                    seg = banks[off[gi]:off[gi + 1]]
                    self.conflict_extra += int(np.bincount(seg).max()) - 1

        # ---- trace recording -----------------------------------------
        gap_acc = self.gap_acc
        if events:
            traces = self.traces
            lane_ids = self.lane_ids
            for gi, w in enumerate(ws.tolist()):
                tr = traces[w]
                acc = int(gap_acc[w])
                lanes = lane_ids[lane_bits[gi]].tolist()
                for pure, kind, ldg_i, rd in events:
                    tr.gaps.append(acc + pure)
                    tr.kinds.append(kind)
                    if kind == K_LDG:
                        seg = ldg_cols[ldg_i][off[gi]:off[gi + 1]].tolist()
                        tr.payloads.append((rd, list(zip(lanes, seg))))
                    else:
                        tr.payloads.append(None)
                    acc = 0
                gap_acc[w] = acc + trailing
        else:
            gap_acc[ws] += n_instrs

        # ---- control transfer ----------------------------------------
        last = block.instrs[-1]
        if block.terminal == "halt":
            div = masks != self.full_mask
            if np.any(div):
                gi = int(np.argmax(div))
                raise AssertionError(
                    f"warp {int(ws[gi])} executed halt with divergent mask "
                    f"{int(masks[gi]):0{width}b}; kernels must exit uniformly"
                )
            self.done[ws] = True
        elif block.terminal == "branch":
            cond = self._branch_cond(last, gidx)
            self.branches[gidx] += 1
            self.taken[gidx] += cond
            taken_mat = np.zeros((G, width), dtype=np.int64)
            taken_mat[lane_bits] = cond
            tmasks = (taken_mat * self.bitvals).sum(axis=1)
            r = last.reconv if last.reconv is not None else self.plen
            target = last.target
            next_pc = block.next_pc
            for gi, w in enumerate(ws.tolist()):
                m = int(masks[gi])
                tm = int(tmasks[gi])
                self.traces[w].tmasks.append(tm)
                di = depth[w] - 1
                if tm == m:
                    self.uniform_branches += 1
                    self.s_pc[w, di] = target
                elif tm == 0:
                    self.uniform_branches += 1
                    self.s_pc[w, di] = next_pc
                else:
                    self.divergent_branches += 1
                    if di + 3 > self.s_pc.shape[1]:
                        self._grow_stacks()
                    self.s_pc[w, di] = r  # frame becomes the reconv point
                    self.s_reconv[w, di + 1] = r
                    self.s_pc[w, di + 1] = next_pc
                    self.s_mask[w, di + 1] = m & ~tm
                    self.s_reconv[w, di + 2] = r
                    self.s_pc[w, di + 2] = target
                    self.s_mask[w, di + 2] = tm
                    depth[w] += 2
                self._pop_reconverged(w)
        else:
            npc = last.target if block.terminal == "jump" else block.next_pc
            self.s_pc[ws, d] = npc
            deep = ws[depth[ws] > 1]
            if deep.size:
                for w in deep.tolist():
                    self._pop_reconverged(w)

    # ------------------------------------------------------------------
    def _pop_reconverged(self, w: int) -> None:
        di = int(self.depth[w]) - 1
        s_pc, s_reconv = self.s_pc, self.s_reconv
        while di > 0 and s_pc[w, di] == s_reconv[w, di]:
            di -= 1
        self.depth[w] = di + 1

    def _grow_stacks(self) -> None:
        W, cap = self.s_pc.shape
        pad = np.zeros((W, cap), dtype=np.int64)
        self.s_pc = np.concatenate([self.s_pc, pad], axis=1)
        self.s_mask = np.concatenate([self.s_mask, pad], axis=1)
        self.s_reconv = np.concatenate([self.s_reconv, pad], axis=1)
