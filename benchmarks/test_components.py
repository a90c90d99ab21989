"""Microbenchmarks of the simulator's hot components (pytest-benchmark).

These track the *host-side* performance of the reproduction itself so
regressions in the interpreter / event kernel / DRAM scheduler are caught:
the full figure regenerations depend on them staying fast.
"""

from __future__ import annotations

import numpy as np

from repro.api import run
from repro.config import SystemConfig
from repro.dram.controller import MemoryController
from repro.engine.events import Engine
from repro.engine.stats import Stats
from repro.isa.executor import trace_threads
from repro.isa.program import Program
from repro.layout.interleaved import InterleavedLayout


def test_interpreter_throughput(benchmark):
    """ALU-loop interpretation rate (instructions/second of host time)."""
    prog = Program.from_source("""
        li r1, 0
        li r2, 200000
    loop:
        addi r1, r1, 1
        mul  r3, r1, r1
        and  r4, r3, r1
        slt  r5, r4, r2
        blt  r1, r2, loop
        halt
    """)

    def interpret():
        plan = trace_threads(prog, lambda addr: 0.0, [{}], 32, 1)
        return plan.traces[0].total_issues

    count = benchmark(interpret)
    assert count > 1_000_000


def test_event_engine_throughput(benchmark):
    """Heap schedule/dispatch rate."""
    def churn():
        eng = Engine()
        n = [0]

        def tick():
            n[0] += 1
            if n[0] < 50_000:
                eng.schedule(100, tick)

        eng.schedule(0, tick)
        eng.run()
        return n[0]

    assert benchmark(churn) == 50_000


def test_dram_controller_throughput(benchmark):
    """Block-request scheduling rate under a row-dense stream."""
    def stream():
        eng = Engine()
        mc = MemoryController(eng, SystemConfig().dram, Stats())
        for i in range(5_000):
            mc.access((i * 16) % (1 << 18), 16)
        eng.run()
        return 5_000

    benchmark(stream)


def test_layout_pack_throughput(benchmark):
    """Vectorized memory-image packing."""
    lay = InterleavedLayout(1 << 16, 8, 512)
    fields = [np.random.default_rng(i).random(1 << 16) for i in range(8)]

    image = benchmark(lay.pack, fields)
    assert image.shape == (8 << 16,)


def test_end_to_end_simulation_rate(benchmark):
    """Simulated-instructions per host-second for a full Millipede run."""
    result = benchmark.pedantic(
        run, args=("millipede", "count"), kwargs={"n_records": 8192},
        rounds=1, iterations=1,
    )
    rate = result.collected["instructions"] / max(result.host_seconds, 1e-9)
    print(f"\nsimulation rate: {rate / 1e3:.0f}K instructions / host second")
    assert result.validated
