"""Shared experiment plumbing: stored sweeps, tables, ASCII charts."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.campaign import cross, run_batch, run_campaign
from repro.sim.driver import RunResult
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore
from repro.workloads.registry import workload_names

#: benchmark order used on every figure's x axis (the paper orders by
#: instructions per input word; we use the paper's Table IV order and
#: report our measured insts/word alongside)
BENCHES = workload_names()

#: Fig. 3 architecture set, in the paper's legend order
FIG3_ARCHES = ["gpgpu", "vws", "ssmc", "millipede-nofc", "vws-row", "millipede"]
#: Fig. 4 adds the rate-matched Millipede
FIG4_ARCHES = ["gpgpu", "vws", "vws-row", "ssmc", "millipede", "millipede-rm"]


def _trace_progress(trace_dir: Optional["Path | str"]):
    """A TraceWriter progress callback for ``run_batch`` (or None)."""
    if trace_dir is None:
        return None
    from repro.trace import TraceWriter

    return TraceWriter(trace_dir)


class ShardIncomplete(RuntimeError):
    """A sharded campaign ran its slice, but the merged result set is not
    yet complete - the experiment's table cannot be assembled.  Carries
    the campaign accounting so the CLI can report progress instead."""

    def __init__(self, name: str, have: int, total: int,
                 shard: Optional[tuple[int, int]], simulated: int):
        self.name = name
        self.have = have  #: fingerprints now in the store
        self.total = total  #: unique fingerprints in the whole campaign
        self.shard = shard
        self.simulated = simulated  #: specs this process simulated
        tag = f"shard {shard[0]}/{shard[1]}" if shard else "campaign"
        super().__init__(
            f"{name}: {tag} done ({simulated} simulated); store holds "
            f"{have}/{total} campaign specs - run the remaining shards "
            f"against the same --store, then re-run to merge"
        )


def _run_specs(
    specs: Sequence[RunSpec],
    workers: int,
    progress,
    store: "FingerprintStore | Path | str | None" = None,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    campaign: Optional[str] = None,
) -> list[RunResult]:
    """One dispatch point for every experiment: a plain in-memory batch,
    or (with ``store``) a durable resume/shard-able campaign (sharded
    campaigns work-steal).  Raises :class:`ShardIncomplete` when other
    shards still owe results."""
    if store is None:
        if shard is not None:
            raise ValueError("sharding requires a persistent store "
                             "(pass store=, or --store on the CLI)")
        return run_batch(specs, workers=workers, progress=progress)
    report = run_campaign(specs, store, workers=workers, shard=shard,
                          resume=resume, name=campaign, progress=progress)
    gathered = report.gather(specs)
    if any(r is None for r in gathered):
        total = len(report.plan.specs)
        have = total - len(report.missing(specs))
        raise ShardIncomplete(report.name, have, total, shard, report.misses)
    return gathered


def batch_run(
    specs: Sequence[RunSpec],
    workers: int = 1,
    trace_dir: Optional["Path | str"] = None,
    store: "FingerprintStore | Path | str | None" = None,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    campaign: Optional[str] = None,
) -> dict[RunSpec, RunResult]:
    """`run_batch` returning a spec -> result mapping (experiment modules
    index results by (arch, workload) via their spec objects).  With
    ``trace_dir`` set, every traced result's artifacts plus a campaign
    ``index.json`` are written there as results land.  With ``store``
    set, results persist in the fingerprint store and ``shard``/``resume``
    gain their campaign semantics (docs/campaigns.md)."""
    writer = _trace_progress(trace_dir)
    results = _run_specs(specs, workers, writer, store=store, shard=shard,
                         resume=resume, campaign=campaign)
    if writer is not None:
        writer.finish()
    return dict(zip(specs, results))


def sweep(
    arches: Sequence[str],
    benches: Sequence[str] = BENCHES,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
    options: ExecOptions = ExecOptions(),
    trace_dir: Optional["Path | str"] = None,
    store: "FingerprintStore | Path | str | None" = None,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    campaign: Optional[str] = None,
) -> dict[str, dict[str, RunResult]]:
    """results[workload][arch] for the full cross product.

    ``trace_dir`` receives the artifacts of traced runs
    (``options.trace``); ``store``/``shard``/``resume`` run the sweep as
    a persistent campaign (docs/campaigns.md)."""
    specs = cross(arches, benches, config=config, n_records=n_records, seed=seed,
                  options=options)
    results = batch_run(specs, workers=workers,
                        trace_dir=trace_dir if options.trace else None,
                        store=store, shard=shard, resume=resume,
                        campaign=campaign)
    out: dict[str, dict[str, RunResult]] = {wl: {} for wl in benches}
    for spec, result in results.items():
        out[spec.workload][spec.arch] = result
    return out


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence], floatfmt: str = "{:.2f}") -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(cell):
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(row):
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(list(headers)), sep] + [line(r) for r in cells])


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence], floatfmt: str = "{:.2f}") -> str:
    def fmt(cell):
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(out)


def ascii_bars(labels: Sequence[str], values: Sequence[float], width: int = 40,
               unit: str = "x") -> str:
    """Horizontal ASCII bar chart (for figure-shaped results)."""
    top = max(values) if values else 1.0
    lines = []
    for label, v in zip(labels, values):
        n = int(round(v / top * width)) if top else 0
        lines.append(f"{label:>16s} |{'#' * n:<{width}s}| {v:.2f}{unit}")
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Uniform container every experiment module returns."""

    name: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    extra_sections: list[str] = field(default_factory=list)

    def text(self) -> str:
        parts = [f"== {self.title} ==", format_table(self.headers, self.rows)]
        parts += self.extra_sections
        parts += [f"note: {n}" for n in self.notes]
        return "\n\n".join(parts)

    def markdown(self) -> str:
        parts = [f"### {self.title}", markdown_table(self.headers, self.rows)]
        for s in self.extra_sections:
            parts.append("```\n" + s + "\n```")
        for n in self.notes:
            parts.append(f"*{n}*")
        return "\n\n".join(parts)
