"""Per-thread interpreter and the ``reference`` backend's MIMD trace producer.

Every instruction of the ``reference`` backend passes through
:func:`step_one`, so it follows the HPC-Python guidance for inner loops:
flat ``if/elif`` dispatch on integer opcodes, ``__slots__`` contexts,
locals bound once, and no allocation on the common (ALU) path.

:func:`step_one` is architecture-agnostic: memory instructions are *not*
performed there - they are returned as :class:`MemAccess` descriptors and
the caller decides how to resolve them.  The program counter is advanced
at issue time.  :func:`trace_threads` is that caller for the MIMD cores:
it walks each thread to completion, resolving loads from global memory
and the thread's live-state partition, and records the same
:class:`~repro.isa.vector.VectorPlan` the NumPy executor produces.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.isa.instructions import Instr, Op
from repro.isa.program import Program
from repro.isa.vector import K_BAR, K_HALT, K_LDG, ThreadTrace, VectorPlan

# integer opcode constants for fast dispatch
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


class Outcome:
    """Instruction classification returned by :func:`step_one`."""

    OK = 0      #: completed ALU/control instruction
    MEM = 1     #: memory access pending (see the returned MemAccess)
    HALT = 2    #: thread finished


class MemAccess:
    """A pending memory operation surfaced to the architecture model."""

    __slots__ = ("op", "addr", "rd", "value", "is_store", "is_global")

    def __init__(self, op: int, addr: int, rd: int, value: float, is_store: bool, is_global: bool):
        self.op = op
        self.addr = addr
        self.rd = rd
        self.value = value
        self.is_store = is_store
        self.is_global = is_global

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = ("stg" if self.is_global else "stl") if self.is_store else ("ldg" if self.is_global else "ldl")
        return f"<MemAccess {kind} @{self.addr}>"


class ThreadContext:
    """Architectural state of one hardware thread."""

    __slots__ = ("tid", "regs", "pc", "halted", "branches", "taken_branches", "instr_count")

    def __init__(self, tid: int, n_regs: int = 32):
        self.tid = tid
        self.regs: list[float] = [0] * n_regs
        self.pc = 0
        self.halted = False
        self.branches = 0
        self.taken_branches = 0
        self.instr_count = 0

    def set_args(self, args: dict[int, float]) -> None:
        """Initialize argument registers (the kernel ABI)."""
        for reg, val in args.items():
            if reg == 0:
                raise ValueError("r0 is hard-wired to zero")
            self.regs[reg] = val

    def commit_load(self, rd: int, value: float) -> None:
        """Write back a load whose data just arrived."""
        if rd:
            self.regs[rd] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Thread {self.tid} pc={self.pc}{' halted' if self.halted else ''}>"


def branch_taken(ctx: ThreadContext, ins: Instr) -> bool:
    """Evaluate a conditional branch *without* committing the new PC
    (needed by the SIMT models which apply divergence-stack policy)."""
    regs = ctx.regs
    op = ins.op
    if op == _BEQ:
        return regs[ins.rs] == regs[ins.rt]
    if op == _BNE:
        return regs[ins.rs] != regs[ins.rt]
    if op == _BLT:
        return regs[ins.rs] < regs[ins.rt]
    if op == _BGE:
        return regs[ins.rs] >= regs[ins.rt]
    if op == _BEQZ:
        return regs[ins.rs] == 0
    if op == _BNEZ:
        return regs[ins.rs] != 0
    raise ValueError(f"not a conditional branch: {ins.text}")


def exec_non_memory(ctx: ThreadContext, ins: Instr) -> int:
    """Execute one ALU / control instruction; returns an Outcome code.

    Used directly by the SIMT lane loop; MIMD cores go through
    :func:`step_one` which also classifies memory operations.
    """
    regs = ctx.regs
    op = ins.op
    rd = ins.rd
    ctx.instr_count += 1

    if op == _ADD:
        v = regs[ins.rs] + regs[ins.rt]
    elif op == _ADDI:
        v = regs[ins.rs] + ins.imm
    elif op == _SUB:
        v = regs[ins.rs] - regs[ins.rt]
    elif op == _MUL:
        v = regs[ins.rs] * regs[ins.rt]
    elif op == _MULI:
        v = regs[ins.rs] * ins.imm
    elif op == _LI:
        v = ins.imm
    elif op == _MOV:
        v = regs[ins.rs]
    elif op == _SLT:
        v = 1 if regs[ins.rs] < regs[ins.rt] else 0
    elif op == _SLTI:
        v = 1 if regs[ins.rs] < ins.imm else 0
    elif op == _SLE:
        v = 1 if regs[ins.rs] <= regs[ins.rt] else 0
    elif op == _SEQ:
        v = 1 if regs[ins.rs] == regs[ins.rt] else 0
    elif op == _SNE:
        v = 1 if regs[ins.rs] != regs[ins.rt] else 0
    elif op == _DIV:
        v = regs[ins.rs] / regs[ins.rt]
    elif op == _MIN:
        a, b = regs[ins.rs], regs[ins.rt]
        v = a if a < b else b
    elif op == _MAX:
        a, b = regs[ins.rs], regs[ins.rt]
        v = a if a > b else b
    elif op == _ABS:
        v = abs(regs[ins.rs])
    elif op == _NEG:
        v = -regs[ins.rs]
    elif op == _SQRT:
        v = math.sqrt(regs[ins.rs])
    elif op == _TRUNC:
        v = int(regs[ins.rs])
    elif op == _IDIV:
        v = int(regs[ins.rs]) // int(regs[ins.rt])
    elif op == _REM:
        v = int(regs[ins.rs]) % int(regs[ins.rt])
    elif op == _AND:
        v = int(regs[ins.rs]) & int(regs[ins.rt])
    elif op == _ANDI:
        v = int(regs[ins.rs]) & int(ins.imm)
    elif op == _OR:
        v = int(regs[ins.rs]) | int(regs[ins.rt])
    elif op == _XOR:
        v = int(regs[ins.rs]) ^ int(regs[ins.rt])
    elif op == _SLL:
        v = int(regs[ins.rs]) << int(regs[ins.rt])
    elif op == _SRL:
        v = int(regs[ins.rs]) >> int(regs[ins.rt])
    elif op == _NOP or op == _BAR:
        # SIMT warps are implicitly synchronized; BAR is a NOP for them
        ctx.pc += 1
        return Outcome.OK
    elif op == _J:
        ctx.pc = ins.target
        return Outcome.OK
    elif op == _HALT:
        ctx.halted = True
        return Outcome.HALT
    elif _BEQ <= op <= _BNEZ:
        ctx.branches += 1
        if branch_taken(ctx, ins):
            ctx.taken_branches += 1
            ctx.pc = ins.target
        else:
            ctx.pc += 1
        return Outcome.OK
    else:
        raise ValueError(f"exec_non_memory cannot execute {ins.text}")

    if rd:
        regs[rd] = v
    ctx.pc += 1
    return Outcome.OK


def step_one(ctx: ThreadContext, ins: Instr) -> Optional[MemAccess]:
    """Execute the instruction at ``ctx.pc`` for a MIMD thread.

    Returns ``None`` for completed instructions (including ``halt``, which
    sets ``ctx.halted``), or a :class:`MemAccess` whose latency/data the
    caller must resolve.  For memory ops the PC is advanced here, register
    write-back for loads happens via :meth:`ThreadContext.commit_load`.
    """
    op = ins.op
    if op == _BAR:
        # surfaced to the (MIMD) core, which implements the rendezvous
        ctx.instr_count += 1
        ctx.pc += 1
        return MemAccess(op, -1, 0, 0.0, False, False)
    if op < _LDG or op > _STL:
        # every non-memory opcode: ALU, comparisons, branches, J, halt, nop
        exec_non_memory(ctx, ins)
        return None
    # memory instruction
    ctx.instr_count += 1
    regs = ctx.regs
    if op == _LDG:
        acc = MemAccess(op, int(regs[ins.rs] + ins.imm), ins.rd, 0.0, False, True)
    elif op == _LDL:
        acc = MemAccess(op, int(regs[ins.rs] + ins.imm), ins.rd, 0.0, False, False)
    elif op == _STL:
        acc = MemAccess(op, int(regs[ins.rt] + ins.imm), 0, regs[ins.rs], True, False)
    elif op == _STG:
        acc = MemAccess(op, int(regs[ins.rt] + ins.imm), 0, regs[ins.rs], True, True)
    else:  # pragma: no cover - unreachable given opcode ranges
        raise ValueError(f"unhandled opcode {op}")
    ctx.pc += 1
    return acc


def trace_threads(
    program: Program,
    read_word: Callable[[int], float],
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    initial_state: Optional[np.ndarray] = None,
) -> VectorPlan:
    """Run every MIMD thread to completion with :func:`step_one`; return
    the replay plan :func:`repro.isa.vector.execute` would build.

    Threads share no mutable state, so walking them one after another is
    exact.  ``read_word`` is the global memory's range-checked word read;
    ``thread_args`` is in global thread order, and thread ``g`` owns row
    ``g`` of the ``[T, state_words]`` live-state matrix.
    """
    instrs = program.instrs
    T = len(thread_args)
    local = np.zeros((T, state_words), dtype=np.float64)
    if initial_state is not None:
        local[:, : len(initial_state)] = initial_state
    traces = []
    branches, taken, reads, writes = ([0] * T for _ in range(4))
    for g, args in enumerate(thread_args):
        ctx = ThreadContext(g, n_regs)
        ctx.set_args(args)
        mem = local[g].tolist()
        tr = ThreadTrace()
        gap = n_reads = n_writes = 0
        while True:
            acc = step_one(ctx, instrs[ctx.pc])
            if acc is None:
                if ctx.halted:
                    tr.gaps.append(gap)
                    tr.kinds.append(K_HALT)
                    tr.addrs.append(-1)
                    break
                gap += 1
            elif acc.op == _BAR:
                tr.gaps.append(gap)
                tr.kinds.append(K_BAR)
                tr.addrs.append(-1)
                gap = 0
            elif acc.is_global:
                if acc.is_store:
                    raise NotImplementedError(
                        "BMLA Map kernels do not store to global memory "
                        "(outputs live in local state and are copied out "
                        "by the host, section IV-E)"
                    )
                ctx.commit_load(acc.rd, read_word(acc.addr))
                tr.gaps.append(gap)
                tr.kinds.append(K_LDG)
                tr.addrs.append(acc.addr)
                gap = 0
            else:
                addr = acc.addr
                if not 0 <= addr < state_words:
                    raise IndexError(
                        f"thread {g} local address {addr} exceeds its "
                        f"{state_words}-word state partition"
                    )
                if acc.is_store:
                    mem[addr] = float(acc.value)  # as the float64 scratchpad holds it
                    n_writes += 1
                else:
                    ctx.commit_load(acc.rd, mem[addr])
                    n_reads += 1
                gap += 1
        traces.append(tr)
        local[g] = mem
        branches[g] = ctx.branches
        taken[g] = ctx.taken_branches
        reads[g] = n_reads
        writes[g] = n_writes
    return VectorPlan(
        traces=traces,
        local=local,
        branches=np.array(branches, dtype=np.int64),
        taken_branches=np.array(taken, dtype=np.int64),
        local_reads=np.array(reads, dtype=np.int64),
        local_writes=np.array(writes, dtype=np.int64),
    )
