"""Fig. 4: energy normalized to GPGPU, with core/DRAM/leakage breakdown.

Paper result: Millipede-with-rate-matching dissipates 27% less energy than
GPGPU and 36% less than SSMC; rate matching cuts Millipede's core energy
~16%; GPGPU has higher *core* energy than SSMC (shared-memory crossbar +
divergence idle) but lower *DRAM* energy (SIMT row locality); SSMC's DRAM
energy stays high even for the compute-bound pca/gda ("row misses can be
hidden in execution time but not in energy").
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import (
    BENCHES,
    FIG4_ARCHES,
    ExperimentResult,
    ascii_bars,
    geomean,
    sweep,
)
from repro.sim.options import ExecOptions

PAPER_MILLIPEDE_VS_GPGPU = 0.73  # 27% less
PAPER_MILLIPEDE_VS_SSMC = 0.64   # 36% less
PAPER_RATE_MATCH_CORE_SAVING = 0.16


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
    results = sweep(FIG4_ARCHES, BENCHES, config, n_records, workers=workers,
                    options=options, trace_dir=trace_dir, store=store,
                    shard=shard, resume=resume, campaign="fig4")

    rows = []
    for wl in BENCHES:
        base = results[wl]["gpgpu"].energy.total_j
        row = [wl]
        for a in FIG4_ARCHES:
            e = results[wl][a].energy
            row.append(e.total_j / base)
        rows.append(row)
    means = ["geomean"] + [
        geomean([r[1 + i] for r in rows]) for i in range(len(FIG4_ARCHES))
    ]
    rows.append(means)

    # component breakdown (geomean across benchmarks, normalized to gpgpu)
    breakdown_rows = []
    for a in FIG4_ARCHES:
        core = geomean([
            results[wl][a].energy.core_j / results[wl]["gpgpu"].energy.total_j
            for wl in BENCHES
        ])
        dram = geomean([
            results[wl][a].energy.dram_j / results[wl]["gpgpu"].energy.total_j
            for wl in BENCHES
        ])
        leak = geomean([
            results[wl][a].energy.leakage_j / results[wl]["gpgpu"].energy.total_j
            for wl in BENCHES
        ])
        breakdown_rows.append([a, core, dram, leak, core + dram + leak])

    from repro.experiments.common import format_table

    breakdown = format_table(
        ["arch", "core", "dram", "leakage", "total"], breakdown_rows
    )

    mill_rm = means[1 + FIG4_ARCHES.index("millipede-rm")]
    ssmc = means[1 + FIG4_ARCHES.index("ssmc")]
    mill = means[1 + FIG4_ARCHES.index("millipede")]
    core_saving = 1 - geomean([
        results[wl]["millipede-rm"].energy.core_j
        / results[wl]["millipede"].energy.core_j
        for wl in BENCHES
    ])

    bars = ascii_bars(FIG4_ARCHES, means[1:], unit="x gpgpu energy")

    return ExperimentResult(
        name="fig4",
        title="Fig. 4 - energy normalized to GPGPU (lower is better)",
        headers=["benchmark"] + FIG4_ARCHES,
        rows=rows,
        extra_sections=[bars, "component breakdown (geomean, normalized to gpgpu total):\n" + breakdown],
        notes=[
            f"measured: millipede-rm = {mill_rm:.2f}x gpgpu energy "
            f"(paper {PAPER_MILLIPEDE_VS_GPGPU:.2f}x), "
            f"{mill_rm / ssmc:.2f}x ssmc (paper {PAPER_MILLIPEDE_VS_SSMC:.2f}x)",
            f"rate matching cuts Millipede core energy {core_saving * 100:.0f}% "
            f"(paper {PAPER_RATE_MATCH_CORE_SAVING * 100:.0f}%)",
        ],
    )
