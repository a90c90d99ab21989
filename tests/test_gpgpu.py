"""SIMT-specific tests: divergence stacks, coalescing, shared memory.

Kernels store the register under test to live-state word 0 (or 1) before
``halt``, and every run-level test runs under both backends: the warp
traces come from the scalar walker under ``reference`` and from the NumPy
divergence engine under ``vector``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.gpgpu import GpgpuSM
from repro.config import SystemConfig
from repro.dram.dram import GlobalMemory
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.program import Program
from repro.sim.options import BACKENDS


def make_sm(source: str, n_lanes=8, n_threads=2, width=None, mem_words=4096,
            config: SystemConfig | None = None, backend="reference"):
    cfg = (config or SystemConfig()).with_core(n_cores=n_lanes, n_threads=n_threads)
    prog = Program.from_source(source)
    eng = Engine()
    stats = Stats()
    gm = GlobalMemory(mem_words)
    sm = GpgpuSM(eng, cfg, prog, gm, stats,
                 input_base_word=0, input_end_word=mem_words,
                 warp_width=width, backend=backend)
    return eng, sm, gm


def run_sm(source: str, args: list[dict], *, backend: str, memory=None, **kw):
    """Build an SM, optionally preload global memory, run it to completion."""
    eng, sm, gm = make_sm(source, backend=backend, **kw)
    if memory is not None:
        gm.data[: len(memory)] = memory
    sm.set_thread_args(args)
    sm.start()
    eng.run()
    assert sm.done
    return sm


DIVERGENT = """
    # lanes with odd r1 take one path, even the other
    andi r2, r1, 1
    beqz r2, even_path
    li   r3, 100
    j    join
even_path:
    li   r3, 200
join:
    stl  r3, r0, 0
    halt
"""


class TestDivergence:
    def test_divergent_branch_executes_both_paths(self):
        for backend in BACKENDS:
            sm = run_sm(DIVERGENT, [{1: t} for t in range(8)], backend=backend,
                        n_lanes=8, n_threads=1, width=8)
            assert sm.divergent_branches == 1
            for t, state in enumerate(sm.thread_states()):
                assert state[0] == (100 if t % 2 else 200), backend

    def test_uniform_branch_does_not_diverge(self):
        for backend in BACKENDS:
            sm = run_sm(DIVERGENT, [{1: 2 * t} for t in range(8)],  # all even
                        backend=backend, n_lanes=8, n_threads=1, width=8)
            assert sm.divergent_branches == 0
            assert all(state[0] == 200 for state in sm.thread_states())

    def test_divergence_costs_extra_warp_instructions(self):
        for backend in BACKENDS:
            def run_with(args):
                return run_sm(DIVERGENT, args, backend=backend, n_lanes=8,
                              n_threads=1, width=8).warp_instructions

            uniform = run_with([{1: 0} for _ in range(8)])
            divergent = run_with([{1: t} for t in range(8)])
            assert divergent > uniform

    def test_nested_divergence_reconverges(self):
        src = """
            andi r2, r1, 1
            beqz r2, outer_else
            andi r3, r1, 2
            beqz r3, inner_else
            li   r4, 11
            j    inner_join
        inner_else:
            li   r4, 12
        inner_join:
            j    outer_join
        outer_else:
            li   r4, 20
        outer_join:
            addi r4, r4, 1000
            stl  r4, r0, 0
            halt
        """
        for backend in BACKENDS:
            sm = run_sm(src, [{1: t} for t in range(8)], backend=backend,
                        n_lanes=8, n_threads=1, width=8)
            for t, state in enumerate(sm.thread_states()):
                if t % 2 == 0:
                    expected = 1020
                elif t % 4 == 3:
                    expected = 1011
                else:
                    expected = 1012
                assert state[0] == expected, f"{backend} lane {t}"

    def test_loop_with_divergent_trip_counts(self):
        """Lanes iterate r1 times; the warp must serialize correctly and
        every lane must end with r3 == r1."""
        src = """
            li r3, 0
        loop:
            bge r3, r1, done
            addi r3, r3, 1
            j loop
        done:
            stl r3, r0, 0
            halt
        """
        for backend in BACKENDS:
            sm = run_sm(src, [{1: t} for t in (3, 7, 1, 5)], backend=backend,
                        n_lanes=4, n_threads=1, width=4)
            for state, n in zip(sm.thread_states(), (3, 7, 1, 5)):
                assert state[0] == n, backend

    def test_divergent_halt_rejected(self):
        src = """
            beqz r1, stop
            nop
        stop:
            halt
        """
        # this program actually reconverges at halt; craft a truly divergent
        # halt via different paths both reaching halt only for some lanes is
        # structurally impossible with PDOM - so assert the reconvergence
        for backend in BACKENDS:
            run_sm(src, [{1: t % 2} for t in range(4)], backend=backend,
                   n_lanes=4, n_threads=1, width=4)


class TestMemoryPath:
    def test_coalesced_load(self):
        src = """
            add r2, r0, r1
            ldg r3, r2, 0
            stl r3, r0, 0
            halt
        """
        for backend in BACKENDS:
            sm = run_sm(src, [{1: t} for t in range(8)], backend=backend,
                        memory=np.arange(8) * 2.0, n_lanes=8, n_threads=1,
                        width=8)
            # 8 consecutive words: one 128B-line transaction
            assert sm.mem_transactions == 1
            for t, state in enumerate(sm.thread_states()):
                assert state[0] == 2.0 * t, backend

    def test_scattered_load_needs_more_transactions(self):
        src = """
            muli r2, r1, 64
            ldg r3, r2, 0
            halt
        """
        for backend in BACKENDS:
            sm = run_sm(src, [{1: t} for t in range(8)], backend=backend,
                        n_lanes=8, n_threads=1, width=8)
            assert sm.mem_transactions > 1

    def test_shared_memory_private_per_thread(self):
        src = """
            stl r1, r0, 0
            ldl r4, r0, 0
            stl r4, r0, 1
            halt
        """
        for backend in BACKENDS:
            sm = run_sm(src, [{1: 100 + t} for t in range(16)],
                        backend=backend, n_lanes=8, n_threads=2, width=8)
            for g, state in enumerate(sm.thread_states()):
                assert state[1] == 100 + g, backend

    def test_shared_memory_conflict_free_striping(self):
        """Irregular per-thread addresses: thread g's word a sits in bank
        (a * T + g) % 32, so a warp's stores never collide."""
        for backend in BACKENDS:
            sm = run_sm("stl r1, r1, 0\nhalt",
                        [{1: (g * 13) % 32} for g in range(16)],
                        backend=backend, n_lanes=8, n_threads=2, width=8)
            assert sm.shared_mem.accesses == 16

    def test_state_capacity_enforced(self):
        for backend in BACKENDS:
            eng, sm, _ = make_sm("stl r0, r1, 0\nhalt", n_lanes=8,
                                 n_threads=2, width=8, backend=backend)
            sm.set_thread_args([{1: sm.state_words} for _ in range(16)])
            with pytest.raises(IndexError, match="partition"):
                sm.start()


class TestWarpGeometry:
    def test_lane_count_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            make_sm("halt", n_lanes=8, width=3)

    def test_narrow_warps_issue_in_parallel_slices(self):
        eng, sm, _ = make_sm("halt", n_lanes=8, n_threads=1, width=2)
        assert sm.issue_slots == 4
        assert len(sm.warps) == 4
