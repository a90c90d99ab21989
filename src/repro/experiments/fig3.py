"""Fig. 3: performance of every PNM architecture normalized to GPGPU.

Paper result: Millipede improves 135% over GPGPU-with-prefetch and 35%
over SSMC-with-prefetch on average; Millipede-no-flow-control sits between
SSMC and Millipede; VWS between GPGPU and Millipede; VWS-row between VWS
and Millipede.  The Millipede-over-GPGPU gap shrinks left-to-right
(branchiness falls) while the Millipede-over-SSMC gap grows (row-miss rate
rises), except for the compute-heavy pca/gda.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import (
    BENCHES,
    FIG3_ARCHES,
    ExperimentResult,
    ascii_bars,
    geomean,
    sweep,
)
from repro.sim.options import ExecOptions

#: the paper's headline averages (% improvement of Millipede)
PAPER_MILLIPEDE_OVER_GPGPU = 2.35
PAPER_MILLIPEDE_OVER_SSMC = 1.35


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
    results = sweep(FIG3_ARCHES, BENCHES, config, n_records, workers=workers,
                    options=options, trace_dir=trace_dir, store=store,
                    shard=shard, resume=resume, campaign="fig3")

    rows = []
    for wl in BENCHES:
        base = results[wl]["gpgpu"].throughput_words_per_s
        rows.append([wl] + [
            results[wl][a].throughput_words_per_s / base for a in FIG3_ARCHES
        ])
    means = ["geomean"] + [
        geomean([r[1 + i] for r in rows]) for i in range(len(FIG3_ARCHES))
    ]
    rows.append(means)

    mill_over_gpgpu = means[1 + FIG3_ARCHES.index("millipede")]
    mill_over_ssmc = mill_over_gpgpu / means[1 + FIG3_ARCHES.index("ssmc")]

    bars = ascii_bars(
        FIG3_ARCHES, [means[1 + i] for i in range(len(FIG3_ARCHES))], unit="x gpgpu"
    )

    return ExperimentResult(
        name="fig3",
        title="Fig. 3 - performance normalized to GPGPU (higher is better)",
        headers=["benchmark"] + FIG3_ARCHES,
        rows=rows,
        extra_sections=[bars],
        notes=[
            f"measured geomean: millipede = {mill_over_gpgpu:.2f}x gpgpu "
            f"(paper: {PAPER_MILLIPEDE_OVER_GPGPU:.2f}x), "
            f"{mill_over_ssmc:.2f}x ssmc (paper: {PAPER_MILLIPEDE_OVER_SSMC:.2f}x)",
            "expected ordering per benchmark: gpgpu <= vws <= vws-row <= "
            "millipede and gpgpu <= ssmc <= millipede-nofc <= millipede",
        ],
    )
