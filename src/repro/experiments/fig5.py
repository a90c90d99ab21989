"""Fig. 5: Millipede versus a conventional multicore (section VI-C).

The paper compares a full 32-processor Millipede node (4096 corelet
threads, 32 die-stacked channels) against an 8-core, 3.6 GHz, 4-wide OoO
multicore with off-chip memory at one-fourth the bandwidth and 70 pJ/bit.
Reported: most of the ~order-of-magnitude speedup comes from thread count,
most of the energy gain from clock speed and off-chip access energy; the
average energy-delay advantage is ~125x.

We simulate one Millipede processor and scale throughput by the processor
count (Map tasks share nothing and each processor owns a private channel -
the paper's own scaling argument), then add the measured host-side
per-node reduce cost from the MapReduce model.  The multicore node is
simulated directly.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import BENCHES, ExperimentResult, batch_run, geomean
from repro.mapreduce.host import node_reduce_seconds
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec

PAPER_ENERGY_DELAY = 125.0


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
    specs = {
        (a, wl): RunSpec(a, wl, config=config, n_records=n_records,
                         options=options)
        for wl in BENCHES
        for a in ("millipede-rm", "multicore")
    }
    results = batch_run(list(specs.values()), workers=workers,
                        trace_dir=trace_dir if options.trace else None, store=store,
                        shard=shard, resume=resume, campaign="fig5")
    rows = []
    speedups, energy_gains, ed_gains = [], [], []
    n_proc = config.n_processors
    for wl in BENCHES:
        mill = results[specs["millipede-rm", wl]]
        mc = results[specs["multicore", wl]]

        # node-level Millipede: n_proc processors, private channels
        mill_node_tput = mill.throughput_words_per_s * n_proc
        # host-side per-node reduce adds a (tiny) serial term per dataset
        from repro.workloads.registry import get_workload

        state_words = get_workload(wl).state_words
        threads = config.core.n_cores * config.core.n_threads * n_proc
        reduce_s = node_reduce_seconds(state_words, threads)
        node_words = mill.input_words * n_proc
        mill_node_time = node_words / mill_node_tput + reduce_s
        mill_node_tput_eff = node_words / mill_node_time
        mill_node_epw = mill.energy.total_j / mill.input_words  # per word

        mc_tput = mc.throughput_words_per_s
        mc_epw = mc.energy.total_j / mc.input_words

        speedup = mill_node_tput_eff / mc_tput
        energy = mc_epw / mill_node_epw
        ed = speedup * energy
        speedups.append(speedup)
        energy_gains.append(energy)
        ed_gains.append(ed)
        rows.append([wl, speedup, energy, ed])

    rows.append(["geomean", geomean(speedups), geomean(energy_gains), geomean(ed_gains)])
    return ExperimentResult(
        name="fig5",
        title="Fig. 5 - 32-processor Millipede node vs 8-core conventional multicore",
        headers=["benchmark", "speedup (x)", "energy gain (x)", "energy-delay gain (x)"],
        rows=rows,
        notes=[
            f"paper reports ~{PAPER_ENERGY_DELAY:.0f}x average energy-delay; "
            "the paper itself flags this comparison as dominated by thread "
            "count and off-chip energy rather than Millipede's novel features",
        ],
    )
