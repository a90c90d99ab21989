"""Fig. 7: Millipede's sensitivity to the prefetch-buffer entry count
(section VI-E).

The buffers decouple the corelets by absorbing temporary work imbalance:
more entries absorb more straying, with diminishing returns that level off
around 32 entries.  We sweep 2/4/8/16/32 entries and normalize each
benchmark to its 2-entry configuration.  The ``varwork`` stress kernel
(high per-record work variance) is included because the paper's straying
develops over billions of records - at scaled-down inputs it shows the
sensitivity most clearly.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.common import ExperimentResult, batch_run, geomean
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec

ENTRY_COUNTS = [2, 4, 8, 16, 32]
#: a representative slice: the two lightest, one medium, one heavy, plus
#: the high-variance stress kernel
FIG7_BENCHES = ["count", "sample", "nbayes", "kmeans", "varwork"]


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
    specs = {}
    for entries in ENTRY_COUNTS:
        cfg = config.with_millipede(
            prefetch_entries=entries,
            prefetch_ahead=min(config.millipede.prefetch_ahead, entries - 1) if entries > 1 else 1,
        )
        for wl in FIG7_BENCHES:
            specs[entries, wl] = RunSpec("millipede", wl, config=cfg,
                                         n_records=n_records, options=options)
    batch = batch_run(list(specs.values()), workers=workers,
                      trace_dir=trace_dir if options.trace else None, store=store,
                      shard=shard, resume=resume, campaign="fig7")
    tput: dict[str, dict[int, float]] = {wl: {} for wl in FIG7_BENCHES}
    for (entries, wl), spec in specs.items():
        tput[wl][entries] = batch[spec].throughput_words_per_s

    rows = []
    for wl in FIG7_BENCHES:
        base = tput[wl][ENTRY_COUNTS[0]]
        rows.append([wl] + [tput[wl][e] / base for e in ENTRY_COUNTS])
    rows.append(["geomean"] + [
        geomean([r[1 + i] for r in rows]) for i in range(len(ENTRY_COUNTS))
    ])

    g = rows[-1][1:]
    monotone = all(b >= a - 0.02 for a, b in zip(g, g[1:]))
    levels_off = (g[-1] - g[-2]) <= (g[2] - g[1]) + 0.02
    return ExperimentResult(
        name="fig7",
        title="Fig. 7 - Millipede speedup vs prefetch-buffer entries (normalized to 2 entries)",
        headers=["benchmark"] + [f"{e} entries" for e in ENTRY_COUNTS],
        rows=rows,
        notes=[
            "expected shape: monotone improvement, levelling off by 32 "
            f"entries - measured: monotone={monotone}, levels_off={levels_off}",
        ],
    )
