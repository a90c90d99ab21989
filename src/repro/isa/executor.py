"""Instruction decoder and the ``reference`` backend's trace producers.

:func:`decode` turns a :class:`~repro.isa.program.Program` into one
entry per instruction, once per call of a producer.  It holds the only
copy of the scalar semantics: an ALU opcode becomes a closure over its
``rd/rs/rt/imm`` that updates a register list, a conditional branch a
closure that returns its condition.  Memory and control opcodes keep
plain int fields, which the walkers resolve themselves.

:func:`trace_threads` runs the MIMD threads, one flat loop per thread
with the program counter, registers, issue gap and counters in locals,
resolving loads from global memory and the thread's live-state
partition; it records the :class:`~repro.isa.vector.VectorPlan` the
NumPy executor produces.  :func:`trace_warps` is the SIMT counterpart:
it walks each warp under its PDOM reconvergence stack, calls the same
closures over the active lanes, and records the
:class:`~repro.isa.vector.SimtPlan` of
:func:`repro.isa.vector.execute_simt`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.isa.instructions import Op
from repro.isa.program import Program
from repro.isa.vector import (K_BAR, K_HALT, K_LDG, SimtPlan, ThreadTrace,
                              VectorPlan, WarpTrace)

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

#: decoded-entry kinds of the ALU and conditional-branch opcodes; every
#: other entry's kind is its ``int(Op)``
ALU = -1
BRANCH = -2


def _alu(op: int, d: int, s: int, t: int, i) -> Callable[[list], None]:
    """The closure that executes one ALU instruction on a register list."""
    if op == _ADD:
        def f(r): r[d] = r[s] + r[t]
    elif op == _ADDI:
        def f(r): r[d] = r[s] + i
    elif op == _SUB:
        def f(r): r[d] = r[s] - r[t]
    elif op == _MUL:
        def f(r): r[d] = r[s] * r[t]
    elif op == _MULI:
        def f(r): r[d] = r[s] * i
    elif op == _LI:
        def f(r): r[d] = i
    elif op == _MOV:
        def f(r): r[d] = r[s]
    elif op == _SLT:
        def f(r): r[d] = 1 if r[s] < r[t] else 0
    elif op == _SLTI:
        def f(r): r[d] = 1 if r[s] < i else 0
    elif op == _SLE:
        def f(r): r[d] = 1 if r[s] <= r[t] else 0
    elif op == _SEQ:
        def f(r): r[d] = 1 if r[s] == r[t] else 0
    elif op == _SNE:
        def f(r): r[d] = 1 if r[s] != r[t] else 0
    elif op == _DIV:
        def f(r): r[d] = r[s] / r[t]
    elif op == _MIN:
        def f(r): r[d] = r[s] if r[s] < r[t] else r[t]
    elif op == _MAX:
        def f(r): r[d] = r[s] if r[s] > r[t] else r[t]
    elif op == _ABS:
        def f(r): r[d] = abs(r[s])
    elif op == _NEG:
        def f(r): r[d] = -r[s]
    elif op == _SQRT:
        def f(r): r[d] = math.sqrt(r[s])
    elif op == _TRUNC:
        def f(r): r[d] = int(r[s])
    elif op == _IDIV:
        def f(r): r[d] = int(r[s]) // int(r[t])
    elif op == _REM:
        def f(r): r[d] = int(r[s]) % int(r[t])
    elif op == _AND:
        def f(r): r[d] = int(r[s]) & int(r[t])
    elif op == _ANDI:
        def f(r): r[d] = int(r[s]) & int(i)
    elif op == _OR:
        def f(r): r[d] = int(r[s]) | int(r[t])
    elif op == _XOR:
        def f(r): r[d] = int(r[s]) ^ int(r[t])
    elif op == _SLL:
        def f(r): r[d] = int(r[s]) << int(r[t])
    elif op == _SRL:
        def f(r): r[d] = int(r[s]) >> int(r[t])
    else:
        raise ValueError(f"not an ALU opcode: {op}")
    if d:
        return f

    def to_r0(r):  # evaluated (so it still raises), never kept
        f(r)
        r[0] = 0
    return to_r0


def _condition(op: int, s: int, t: int) -> Callable[[list], bool]:
    """The closure that evaluates one conditional branch's condition."""
    if op == _BEQ:
        return lambda r: r[s] == r[t]
    if op == _BNE:
        return lambda r: r[s] != r[t]
    if op == _BLT:
        return lambda r: r[s] < r[t]
    if op == _BGE:
        return lambda r: r[s] >= r[t]
    if op == _BEQZ:
        return lambda r: r[s] == 0
    return lambda r: r[s] != 0  # BNEZ


def decode(program: Program) -> list[tuple]:
    """One ``(kind, fn, a, b, c)`` entry per instruction, by pc.

    ====================  ======================================
    ``kind``              ``fn``, ``a``, ``b``, ``c``
    ====================  ======================================
    :data:`ALU`           ``fn(regs)`` executes it; 0, 0, 0
    :data:`BRANCH`        ``fn(regs)`` is its condition; target,
                          reconvergence pc (program length when
                          none), 0
    ``Op.LDG``/``LDL``    None; ``rd``, ``rs``, ``imm``
    ``Op.STL``            None; ``rs`` (value), ``rt``, ``imm``
    ``Op.J``              None; target, 0, 0
    ``Op.HALT``/``NOP``/  None; 0, 0, 0
    ``BAR``/``STG``
    ====================  ======================================
    """
    plen = len(program.instrs)
    code = []
    for ins in program.instrs:
        op = int(ins.op)
        if op <= _ANDI:
            code.append((ALU, _alu(op, ins.rd, ins.rs, ins.rt, ins.imm), 0, 0, 0))
        elif op <= _BNEZ:
            reconv = plen if ins.reconv is None else ins.reconv
            code.append((BRANCH, _condition(op, ins.rs, ins.rt), ins.target,
                         reconv, 0))
        elif op == _LDG or op == _LDL:
            code.append((op, None, ins.rd, ins.rs, ins.imm))
        elif op == _STL:
            code.append((op, None, ins.rs, ins.rt, ins.imm))
        elif op == _J:
            code.append((op, None, ins.target, 0, 0))
        else:
            code.append((op, None, 0, 0, 0))
    return code


def _registers(args: dict[int, float], n_regs: int) -> list:
    """A thread's register file with its argument registers set (the
    kernel ABI)."""
    regs: list = [0] * n_regs
    for reg, val in args.items():
        if reg == 0:
            raise ValueError("r0 is hard-wired to zero")
        regs[reg] = val
    return regs


_NO_STG = ("BMLA Map kernels do not store to global memory (outputs live "
           "in local state and are copied out by the host, section IV-E)")


def _partition_error(g: int, addr: int, state_words: int) -> IndexError:
    return IndexError(f"thread {g} local address {addr} exceeds its "
                      f"{state_words}-word state partition")


def trace_threads(
    program: Program,
    read_word: Callable[[int], float],
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    initial_state: Optional[np.ndarray] = None,
) -> VectorPlan:
    """Run every MIMD thread to completion over the :func:`decode`
    entries; return the replay plan :func:`repro.isa.vector.execute`
    would build.

    Threads share no mutable state, so walking them one after another is
    exact.  ``read_word`` is the global memory's range-checked word read;
    ``thread_args`` is in global thread order, and thread ``g`` owns row
    ``g`` of the ``[T, state_words]`` live-state matrix.
    """
    code = decode(program)
    T = len(thread_args)
    local = np.zeros((T, state_words), dtype=np.float64)
    if initial_state is not None:
        local[:, : len(initial_state)] = initial_state
    traces = []
    branches, taken, reads, writes = ([0] * T for _ in range(4))
    for g, args in enumerate(thread_args):
        regs = _registers(args, n_regs)
        mem = local[g].tolist()
        tr = ThreadTrace()
        gaps, kinds, addrs = tr.gaps, tr.kinds, tr.addrs
        pc = gap = n_br = n_taken = n_reads = n_writes = 0
        while True:
            kind, f, a, b, c = code[pc]
            pc += 1
            gap += 1  # this issue; an event records the gap before it
            if kind == ALU:
                f(regs)
            elif kind == _LDL:
                addr = int(regs[b] + c)
                if not 0 <= addr < state_words:
                    raise _partition_error(g, addr, state_words)
                if a:
                    regs[a] = mem[addr]
                n_reads += 1
            elif kind == _STL:
                addr = int(regs[b] + c)
                if not 0 <= addr < state_words:
                    raise _partition_error(g, addr, state_words)
                mem[addr] = float(regs[a])  # as the float64 scratchpad holds it
                n_writes += 1
            elif kind == _LDG:
                addr = int(regs[b] + c)
                value = read_word(addr)
                if a:
                    regs[a] = value
                gaps.append(gap - 1)
                kinds.append(K_LDG)
                addrs.append(addr)
                gap = 0
            elif kind == BRANCH:
                n_br += 1
                if f(regs):
                    n_taken += 1
                    pc = a
            elif kind == _J:
                pc = a
            elif kind == _HALT:
                gaps.append(gap - 1)
                kinds.append(K_HALT)
                addrs.append(-1)
                break
            elif kind == _BAR:
                gaps.append(gap - 1)
                kinds.append(K_BAR)
                addrs.append(-1)
                gap = 0
            elif kind == _STG:
                raise NotImplementedError(_NO_STG)
        traces.append(tr)
        local[g] = mem
        branches[g] = n_br
        taken[g] = n_taken
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


def trace_warps(
    program: Program,
    read_word: Callable[[int], float],
    thread_args: list[dict[int, float]],
    n_regs: int,
    state_words: int,
    width: int,
    initial_state: Optional[np.ndarray] = None,
) -> SimtPlan:
    """Walk every warp to completion under its PDOM reconvergence stack;
    return the replay plan :func:`repro.isa.vector.execute_simt` would
    build.

    One warp instruction per step over the active lanes.  A divergent
    branch turns the top frame into the reconvergence point and pushes
    the else-path, then the taken path; reconverged frames pop after
    every instruction.  Warps share no mutable state, so walking them one
    after another is exact.  Arguments follow :func:`trace_threads`;
    ``width`` consecutive global threads form a warp.
    """
    T = len(thread_args)
    if T % width:
        raise ValueError(f"{T} threads not divisible by {width}-wide warps")
    code = decode(program)
    plen = len(code)
    full = (1 << width) - 1
    local = np.zeros((T, state_words), dtype=np.float64)
    if initial_state is not None:
        local[:, : len(initial_state)] = initial_state
    traces = []
    instr_count, branches, taken, reads, writes = [], [], [], [], []
    issues = divergent = uniform = 0
    for w in range(T // width):
        base = w * width
        lanes = [_registers(thread_args[base + l], n_regs)
                 for l in range(width)]
        mem = local[base : base + width].tolist()
        # per-lane counters; issues, branches and local accesses under the
        # current mask accumulate in run/n_br/n_reads/n_writes and are
        # credited to its active lanes when the mask changes
        l_instr, l_br, l_taken, l_reads, l_writes = (
            [0] * width for _ in range(5))
        tr = WarpTrace()
        gaps, kinds, payloads, tmasks = tr.gaps, tr.kinds, tr.payloads, tr.tmasks
        top = [plen, 0, full]
        stack = [top]
        mask = 0
        active: list[tuple] = []  # (lane, registers, live state) per active lane
        act: list[list] = []  # the active lanes' registers
        run = gap = n_br = n_reads = n_writes = 0
        while True:
            if top[2] != mask:
                for l, _, _ in active:
                    l_instr[l] += run
                    l_br[l] += n_br
                    l_reads[l] += n_reads
                    l_writes[l] += n_writes
                issues += run
                mask = top[2]
                active = [(l, lanes[l], mem[l]) for l in range(width)
                          if mask >> l & 1]
                act = [r for _, r, _ in active]
                run = n_br = n_reads = n_writes = 0
            run += 1
            gap += 1  # this issue; an event records the gap before it
            pc = top[1]
            kind, f, a, b, c = code[pc]
            top[1] = pc + 1
            if kind == ALU:
                for r in act:
                    f(r)
            elif kind == _LDL:
                for l, r, m in active:
                    addr = int(r[b] + c)
                    if not 0 <= addr < state_words:
                        raise _partition_error(base + l, addr, state_words)
                    if a:
                        r[a] = m[addr]
                n_reads += 1
            elif kind == _STL:
                for l, r, m in active:
                    addr = int(r[b] + c)
                    if not 0 <= addr < state_words:
                        raise _partition_error(base + l, addr, state_words)
                    m[addr] = float(r[a])
                n_writes += 1
            elif kind == _LDG:
                pairs = []
                for l, r, _ in active:
                    addr = int(r[b] + c)
                    value = read_word(addr)
                    if a:
                        r[a] = value
                    pairs.append((l, addr))
                gaps.append(gap - 1)
                kinds.append(K_LDG)
                payloads.append((a, pairs))
                gap = 0
            elif kind == BRANCH:
                tm = 0
                for l, r, _ in active:
                    if f(r):
                        l_taken[l] += 1
                        tm |= 1 << l
                n_br += 1
                tmasks.append(tm)
                if tm == mask or tm == 0:
                    uniform += 1
                    if tm:
                        top[1] = a
                else:
                    divergent += 1
                    top[1] = b  # this frame becomes the reconvergence point
                    stack.append([b, pc + 1, mask & ~tm])
                    top = [b, a, tm]
                    stack.append(top)
            elif kind == _J:
                top[1] = a
            elif kind == _HALT:
                if mask != full:
                    raise AssertionError(
                        f"warp {w} executed halt with divergent mask "
                        f"{mask:0{width}b}; kernels must exit uniformly"
                    )
                for l, _, _ in active:
                    l_instr[l] += run
                    l_br[l] += n_br
                    l_reads[l] += n_reads
                    l_writes[l] += n_writes
                issues += run
                gaps.append(gap - 1)
                kinds.append(K_HALT)
                payloads.append(None)
                break
            elif kind == _STG:
                raise NotImplementedError(_NO_STG)
            if top[1] == top[0] and len(stack) > 1:  # reconverged
                stack.pop()
                while stack[-1][1] == stack[-1][0] and len(stack) > 1:
                    stack.pop()
                top = stack[-1]
        traces.append(tr)
        local[base : base + width] = mem
        for total, lane in ((instr_count, l_instr), (branches, l_br),
                            (taken, l_taken), (reads, l_reads),
                            (writes, l_writes)):
            total += lane

    def counts(xs):
        return np.array(xs, dtype=np.int64)

    active_slots = sum(instr_count)
    return SimtPlan(
        warp_traces=traces,
        local=local,
        instr_count=counts(instr_count),
        branches=counts(branches),
        taken_branches=counts(taken),
        local_reads=counts(reads),
        local_writes=counts(writes),
        warp_instructions=issues,
        active_lane_slots=active_slots,
        divergence_idle_slots=issues * width - active_slots,
        divergent_branches=divergent,
        uniform_branches=uniform,
        shared_accesses=sum(reads) + sum(writes),
    )
