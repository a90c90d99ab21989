"""Table III: hardware parameters.

Not a simulation - this experiment renders the active configuration next
to the paper's values so configuration drift is visible in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import ExperimentResult
from repro.sim.options import ExecOptions

#: (parameter, paper value, getter)
_ROWS = [
    ("Compute clock", "700 MHz", lambda c: f"{c.core.clock_hz / 1e6:.0f} MHz"),
    ("Corelets/lanes/cores per processor", "32", lambda c: str(c.core.n_cores)),
    ("Multithreading contexts", "4", lambda c: str(c.core.n_threads)),
    ("Registers per corelet", "32", lambda c: str(c.core.n_registers)),
    ("L1 I-cache per corelet", "4 KB", lambda c: f"{c.core.icache_bytes // 1024} KB"),
    ("Local memory per corelet", "4 KB", lambda c: f"{c.millipede.local_memory_bytes // 1024} KB"),
    ("Prefetch buffer per corelet", "16 x 64B", lambda c: f"{c.millipede.prefetch_entries} x {c.millipede.slab_bytes}B"),
    ("L1 D-cache per SM", "32 KB", lambda c: f"{c.gpgpu.l1d_bytes // 1024} KB"),
    ("Shared memory per SM", "128 KB", lambda c: f"{c.gpgpu.shared_memory_bytes // 1024} KB"),
    ("L1 D-cache per SSMC core", "5 KB", lambda c: f"{c.ssmc.l1d_bytes // 1024} KB"),
    ("Channel clock", "1.2 GHz", lambda c: f"{c.dram.channel_clock_hz / 1e9:.1f} GHz"),
    ("Channel width", "128 bits", lambda c: f"{c.dram.channel_bytes_per_cycle * 8} bits (calibrated)"),
    ("DRAM tCAS-tRP-tRCD-tRAS", "9-9-9-27", lambda c: f"{c.dram.t_cas}-{c.dram.t_rp}-{c.dram.t_rcd}-{c.dram.t_ras}"),
    ("DRAM row size", "2 KB", lambda c: f"{c.dram.row_bytes // 1024} KB"),
    ("Banks per channel", "4", lambda c: str(c.dram.banks_per_channel)),
    ("Memory controller", "FR-FCFS (16 deep)", lambda c: f"FR-FCFS ({c.dram.controller_queue_depth} deep)"),
    ("DRAM access energy", "6 pJ/bit", lambda c: f"{c.dram.access_pj_per_bit:.0f} pJ/bit"),
    ("# processors / # channels", "1 of 32", lambda c: f"1 of {c.n_processors} (simulated: 1)"),
]


def run_experiment(
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    options: ExecOptions = ExecOptions(),
    workers: int = 1,
    trace_dir=None,
    store=None,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
) -> ExperimentResult:
    # table3 runs no simulations; store/shard/resume are accepted for CLI
    # uniformity and ignored
    rows = [[name, paper, get(config)] for name, paper, get in _ROWS]
    return ExperimentResult(
        name="table3",
        title="Table III - hardware parameters (paper vs. this configuration)",
        headers=["parameter", "paper", "this run"],
        rows=rows,
        notes=[
            "Channel width is the reproduction's calibrated compute:memory "
            "ratio knob (DESIGN.md section 5); all other parameters follow "
            "the paper."
        ],
    )
