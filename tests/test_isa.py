"""Unit tests for the ISA: assembler, CFG analysis, interpreter."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.isa import AssemblyError, Program, assemble
from repro.isa.cfg import immediate_postdominators, leader_pcs
from repro.isa.executor import trace_threads
from repro.isa.vector import K_BAR, K_HALT, K_LDG

#: live-state words [_DUMP, _DUMP + 32) receive r0..r31 at the halt
_DUMP = 128


def run_to_halt(source: str, args: dict[int, float] | None = None,
                memory: dict[int, float] | None = None):
    """Run one thread to completion with :func:`trace_threads`, serving
    global loads from ``memory`` (0.0 elsewhere).

    Every ``halt`` becomes a jump to a dump that stores r0..r31 to the
    live-state words at ``_DUMP`` before the real halt.  Returns
    ``(regs, plan)``: the registers at the halt, as the float64 live
    state holds them, and the thread's plan."""
    dump = "".join(f"\nstl r{r}, r0, {_DUMP + r}" for r in range(32))
    prog = Program.from_source(
        f"{source.replace('halt', 'j dump_registers')}\n"
        f"dump_registers:{dump}\nhalt")
    memory = memory or {}
    plan = trace_threads(prog, lambda addr: memory.get(addr, 0.0),
                         [args or {}], 32, _DUMP + 32)
    return plan.local[0, _DUMP:].tolist(), plan


class TestAssembler:
    def test_labels_and_branches_resolve(self):
        prog = assemble("top:\n  j bottom\nbottom:\n  halt")
        assert prog[0].target == 1

    def test_forward_and_backward_labels(self):
        src = "j fwd\nfwd:\n beqz r1, back\nback: halt"
        prog = assemble(src)
        assert prog[0].target == 1
        assert prog[1].target == 2

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("a:\nnop\na:\nhalt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError, match="undefined"):
            assemble("j nowhere\nhalt")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblyError, match="register"):
            assemble("add r1, r2, r99")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(AssemblyError, match="expects"):
            assemble("add r1, r2")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r1")

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError, match="empty"):
            assemble("# nothing\n")

    def test_immediates(self):
        prog = assemble("li r1, -42\nli r2, 2.5\nli r3, 0x10\nhalt")
        assert prog[0].imm == -42
        assert prog[1].imm == 2.5
        assert prog[2].imm == 16

    def test_semicolon_statements(self):
        prog = assemble("li r1, 1; li r2, 2; halt")
        assert len(prog) == 3

    def test_comments_stripped(self):
        prog = assemble("li r1, 1  # set r1\nhalt")
        assert len(prog) == 2


class TestCfg:
    def test_leaders(self):
        prog = assemble("""
            li r1, 0
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        assert leader_pcs(prog) == [0, 1, 3]

    def test_if_else_reconvergence(self):
        src = """
            beqz r1, else_part
            li r2, 1
            j join
        else_part:
            li r2, 2
        join:
            halt
        """
        prog = Program.from_source(src)
        # the branch reconverges at `join` (pc 4)
        assert prog[0].reconv == 4

    def test_loop_branch_reconverges_after_loop(self):
        src = """
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        prog = Program.from_source(src)
        assert prog[1].reconv == 2  # the halt

    def test_nested_if_reconvergence(self):
        src = """
            beqz r1, outer_else
            beqz r2, inner_else
            li r3, 1
            j inner_join
        inner_else:
            li r3, 2
        inner_join:
            j outer_join
        outer_else:
            li r3, 3
        outer_join:
            halt
        """
        prog = Program.from_source(src)
        assert prog[0].reconv == 7  # outer_join
        assert prog[1].reconv == 5  # inner_join

    def test_postdominators_include_exit_sentinel(self):
        prog = assemble("nop\nhalt")
        ipdom = immediate_postdominators(prog)
        assert ipdom[0] in (1, 2)


class TestInterpreter:
    def test_arithmetic(self):
        regs, _ = run_to_halt("""
            li r1, 7
            li r2, 3
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            idiv r6, r1, r2
            rem r7, r1, r2
            halt
        """)
        assert regs[3:8] == [10, 4, 21, 2, 1]

    def test_float_ops(self):
        regs, _ = run_to_halt("""
            li r1, 2.0
            sqrt r2, r1
            li r3, 7
            li r4, 2
            div r5, r3, r4
            trunc r6, r5
            halt
        """)
        assert regs[2] == pytest.approx(math.sqrt(2))
        assert regs[5] == pytest.approx(3.5)
        assert regs[6] == 3

    def test_r0_hardwired_zero(self):
        regs, _ = run_to_halt("li r0, 99\nadd r1, r0, r0\nhalt")
        assert regs[0] == 0
        assert regs[1] == 0

    def test_comparisons(self):
        regs, _ = run_to_halt("""
            li r1, 3
            li r2, 5
            slt r3, r1, r2
            sle r4, r2, r2
            seq r5, r1, r2
            sne r6, r1, r2
            slti r7, r1, 2
            halt
        """)
        assert regs[3:8] == [1, 1, 0, 1, 0]

    def test_bitwise(self):
        regs, _ = run_to_halt("""
            li r1, 12
            li r2, 10
            and r3, r1, r2
            or r4, r1, r2
            xor r5, r1, r2
            li r6, 2
            sll r7, r1, r6
            srl r8, r1, r6
            andi r9, r1, 4
            halt
        """)
        assert regs[3:6] == [8, 14, 6]
        assert regs[7] == 48
        assert regs[8] == 3
        assert regs[9] == 4

    def test_min_max_abs_neg(self):
        regs, _ = run_to_halt("""
            li r1, -3
            li r2, 5
            min r3, r1, r2
            max r4, r1, r2
            abs r5, r1
            neg r6, r2
            halt
        """)
        assert regs[3:7] == [-3, 5, 3, -5]

    def test_loop_counts(self):
        regs, plan = run_to_halt("""
            li r1, 0
            li r2, 10
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        assert regs[1] == 10
        assert plan.branches[0] == 10
        assert plan.taken_branches[0] == 9

    def test_memory_operands(self):
        regs, plan = run_to_halt("li r1, 100\nldg r2, r1, 5\nstl r1, r1, -4\nhalt",
                                 memory={105: 7.5})
        trace = plan.traces[0]
        # the ldg is the one global event: word 105, its data lands in r2
        assert (trace.kinds, trace.addrs) == ([K_LDG, K_HALT], [105, -1])
        assert regs[2] == 7.5
        # the stl stores r1's value 100 to local word 96
        assert plan.local[0, 96] == 100
        assert plan.local_writes[0] == 1 + 32  # plus the register dump

    def test_bar_surfaces_to_core(self):
        plan = trace_threads(Program.from_source("bar\nhalt"),
                             lambda addr: 0.0, [{}], 32, 1)
        assert plan.traces[0].kinds == [K_BAR, K_HALT]

    def test_instruction_count(self):
        plan = trace_threads(Program.from_source("li r1, 1\nnop\nhalt"),
                             lambda addr: 0.0, [{}], 32, 1)
        assert plan.traces[0].total_issues == 3

    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000))
    def test_add_matches_python(self, a, b):
        regs, _ = run_to_halt("add r3, r1, r2\nhalt", args={1: a, 2: b})
        assert regs[3] == a + b

    @given(st.integers(min_value=0, max_value=50))
    def test_loop_trip_count_property(self, n):
        regs, _ = run_to_halt("""
            li r3, 0
        loop:
            bge r3, r1, done
            addi r3, r3, 1
            j loop
        done:
            halt
        """, args={1: n})
        assert regs[3] == n
