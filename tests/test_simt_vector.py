"""Property tests for the vectorized PDOM divergence engine.

Hypothesis generates kernels with random nested data-dependent branches
(optionally inside divergent bounded loops) and random per-lane inputs,
then drives them through the SIMT divergence discipline:

* the **vector** engine (:class:`repro.isa.vector._SimtMachine` via
  :func:`repro.isa.vector.execute_simt`), which executes warps at basic-
  block granularity over dense stack matrices and logs one entry per
  warp-block execution;
* an **oracle walker** defined here, which writes the PDOM rules down
  once more, independently of the simulator: one instruction at a time,
  per-lane interpretation via the decoded instruction closures
  (:func:`repro.isa.executor.decode`), the else-path pushed before the
  taken path on a divergent branch, and reconverged frames popped after
  *every* instruction.

The vector log is expanded to the per-issue stream (within a block the
mask is constant and only the top frame's PC advances — the property
under test) and must equal the oracle stream *at every step*: same PC,
same active lane mask, and the same full reconvergence stack
(reconvergence PC, next PC, mask per frame).  The ``reference``
backend's own producer, :func:`repro.isa.executor.trace_warps`, must
build the same plan as the vector engine on the same kernels.  This is
the unit-level guarantee beneath the end-to-end byte-identity suite in
``tests/test_backends.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.isa.executor import ALU, decode, trace_warps
from repro.isa.instructions import Op
from repro.isa.program import Program
from repro.isa.vector import execute_simt
from tests.test_interpreter_diff import assert_simt_plans_equal

_BEQ = int(Op.BEQ)
_BNEZ = int(Op.BNEZ)
_J = int(Op.J)
_HALT = int(Op.HALT)
_STL = int(Op.STL)

N_REGS = 16
WIDTH = 4


# ----------------------------------------------------------------------
# oracle walker (the PDOM stack discipline, written out independently)
# ----------------------------------------------------------------------
def reference_stream(program, lane_args: list[dict[int, float]]):
    """Per-issue ``(pc, mask, stack)`` tuples for one warp, where
    ``stack`` is the tuple of (reconv_pc, next_pc, mask) frames *before*
    the instruction executes (the reference observer's view)."""
    width = len(lane_args)
    plen = len(program.instrs)
    full = (1 << width) - 1
    code = decode(program)
    lanes = [[0] * N_REGS for _ in range(width)]
    for regs, args in zip(lanes, lane_args):
        for r, v in args.items():
            regs[r] = v
    stack: list[list[int]] = [[plen, 0, full]]

    def pop_reconverged():
        while len(stack) > 1 and stack[-1][1] == stack[-1][0]:
            stack.pop()

    stream = []
    for _ in range(200_000):
        top = stack[-1]
        pc, mask = top[1], top[2]
        stream.append((pc, mask, tuple((f[0], f[1], f[2]) for f in stack)))
        ins = program.instrs[pc]
        op = int(ins.op)
        active = [l for l in range(width) if (mask >> l) & 1]

        if _BEQ <= op <= _BNEZ:
            taken_mask = 0
            for l in active:
                if code[pc][1](lanes[l]):  # the branch condition
                    taken_mask |= 1 << l
            if taken_mask == mask:
                top[1] = ins.target
            elif taken_mask == 0:
                top[1] = pc + 1
            else:
                r = ins.reconv if ins.reconv is not None else plen
                top[1] = r
                stack.append([r, pc + 1, mask & ~taken_mask])
                stack.append([r, ins.target, taken_mask])
        elif op == _HALT:
            assert mask == full, "kernels must exit uniformly"
            assert len(stack) == 1, "halt with a deep stack"
            return stream
        elif op == _J or op == _STL:
            top[1] = ins.target if op == _J else pc + 1
        else:
            kind, execute_alu = code[pc][:2]
            assert kind == ALU, f"unexpected {ins.text}"
            for l in active:
                execute_alu(lanes[l])
            top[1] = pc + 1
        pop_reconverged()
    raise AssertionError("reference walker did not terminate")


def expand_issue_log(log, warp: int):
    """The vector engine's per-warp-block log entries, expanded to the
    per-issue stream: the mask is block-constant and only the top frame's
    next-PC advances within a block."""
    stream = []
    for wid, block_pc, n_instrs, mask, snap in log:
        if wid != warp:
            continue
        below = snap[:-1]
        reconv = snap[-1][0]
        for o in range(n_instrs):
            pc = block_pc + o
            stream.append((pc, mask, below + ((reconv, pc, mask),)))
    return stream


# ----------------------------------------------------------------------
# random divergent kernels
# ----------------------------------------------------------------------
@st.composite
def divergent_kernel(draw):
    """Assembly with nested data-dependent branches over r1/r2, optional
    divergent bounded loop, and ALU padding.  Always halts: loop counters
    strictly decrease and branch nesting is bounded."""
    n = [0]
    lines: list[str] = []

    def fresh(prefix: str) -> str:
        n[0] += 1
        return f"{prefix}{n[0]}"

    def pad():
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            rd = draw(st.sampled_from([3, 4, 5]))
            rs = draw(st.sampled_from([1, 3, 4, 5]))
            imm = draw(st.integers(min_value=0, max_value=3))
            lines.append(f"addi r{rd}, r{rs}, {imm}")

    def if_else(depth: int) -> None:
        pad()
        if depth < 3 and draw(st.booleans()):
            els, out = fresh("else_"), fresh("out_")
            rs = draw(st.sampled_from([1, 3]))
            thr = draw(st.integers(min_value=0, max_value=6))
            lines.append(f"slti r6, r{rs}, {thr}")
            lines.append(f"beqz r6, {els}")
            if_else(depth + 1)
            lines.append(f"j {out}")
            lines.append(f"{els}:")
            if_else(depth + 1)
            lines.append(f"{out}:")
        pad()

    if draw(st.booleans()):
        # divergent bounded loop: r2 holds a per-lane trip count >= 1,
        # so lanes fall out at different iterations (divergent backward
        # branch) and reconverge at the loop exit
        head = fresh("loop_")
        lines.append(f"{head}:")
        if_else(0)
        lines.append("addi r2, r2, -1")
        lines.append(f"bnez r2, {head}")
        if_else(0)
    else:
        if_else(0)
        if not lines:
            lines.append("addi r3, r1, 1")
    lines.append("halt")

    args = [
        {1: draw(st.integers(min_value=0, max_value=6)),
         2: draw(st.integers(min_value=1, max_value=3))}
        for _ in range(WIDTH)
    ]
    return "\n".join(lines), args


class TestPdomEngineMatchesReference:
    @given(divergent_kernel())
    @settings(max_examples=150, deadline=None)
    def test_issue_stream_identical(self, case):
        source, args = case
        program = Program.from_source(source)
        log: list = []
        plan = execute_simt(program, np.zeros(1), args, N_REGS,
                            state_words=4, width=WIDTH, issue_log=log)
        assert_simt_plans_equal(
            trace_warps(program, lambda addr: 0.0, args, N_REGS,
                        state_words=4, width=WIDTH), plan)
        got = expand_issue_log(log, warp=0)
        want = reference_stream(program, args)
        assert len(got) == len(want), (
            f"{len(got)} vector issues vs {len(want)} reference after:\n"
            f"{source}")
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (
                f"issue {i}: vector (pc, mask, stack) {g} != reference {w} "
                f"after:\n{source}")

    @given(divergent_kernel(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_multiple_warps_independent(self, case, n_warps):
        """Warps share nothing: each warp's expanded stream must match a
        reference walk over its own lanes, whatever the interleaving of
        the engine's most-populated-PC grouping."""
        source, args = case
        program = Program.from_source(source)
        all_args = [
            {r: v + (w if r == 1 else 0) for r, v in lane.items()}
            for w in range(n_warps) for lane in args
        ]
        log: list = []
        execute_simt(program, np.zeros(1), all_args, N_REGS,
                     state_words=4, width=WIDTH, issue_log=log)
        for w in range(n_warps):
            lane_args = all_args[w * WIDTH:(w + 1) * WIDTH]
            assert expand_issue_log(log, w) == reference_stream(
                program, lane_args), f"warp {w} diverges after:\n{source}"
