"""Fig. 6: speedup versus system size (section VI-D).

The paper doubles corelets/lanes/cores from 32 to 64 with proportionally
doubled memory bandwidth and shows Millipede's speedups over both GPGPU
and SSMC *increase* at 64 (more lanes -> more divergence waste; more cores
-> more straying).
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import BENCHES, ExperimentResult, batch_run, geomean
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec

SIZES = [32, 64]
ARCHES = ["gpgpu", "ssmc", "millipede"]


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
    # one batch across both system sizes (specs carry their own config)
    specs = {
        (size, a, wl): RunSpec(a, wl, config=config.scaled_system_size(size),
                               n_records=n_records, options=options)
        for size in SIZES
        for wl in BENCHES
        for a in ARCHES
    }
    batch = batch_run(list(specs.values()), workers=workers,
                      trace_dir=trace_dir if options.trace else None, store=store,
                      shard=shard, resume=resume, campaign="fig6")
    # results[size][arch][wl]
    res: dict[int, dict[str, dict[str, float]]] = {
        size: {a: {} for a in ARCHES} for size in SIZES
    }
    for (size, a, wl), spec in specs.items():
        res[size][a][wl] = batch[spec].throughput_words_per_s

    rows = []
    for wl in BENCHES:
        row = [wl]
        for size in SIZES:
            base = res[size]["gpgpu"][wl]
            row += [res[size][a][wl] / base for a in ARCHES[1:]]  # ssmc, millipede
        rows.append(row)
    means = ["geomean"]
    for size in SIZES:
        for a in ARCHES[1:]:
            means.append(geomean([
                res[size][a][wl] / res[size]["gpgpu"][wl] for wl in BENCHES
            ]))
    rows.append(means)

    m32 = means[2]  # millipede over gpgpu at 32
    m64 = means[4]  # millipede over gpgpu at 64
    return ExperimentResult(
        name="fig6",
        title="Fig. 6 - speedup over same-size GPGPU vs system size",
        headers=["benchmark", "ssmc@32", "millipede@32", "ssmc@64", "millipede@64"],
        rows=rows,
        notes=[
            f"millipede-over-gpgpu geomean: {m32:.2f}x at 32 lanes -> "
            f"{m64:.2f}x at 64 lanes "
            + ("(grows, as in the paper)" if m64 >= m32 else "(deviation: shrank)"),
        ],
    )
