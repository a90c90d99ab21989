"""Experiment CLI.

Examples::

    python -m repro.experiments table4
    python -m repro.experiments fig3 --records 8192 --jobs 4
    python -m repro.experiments all --records 16384 --write-md
    millipede-exp fig7 --no-resume
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.config import DEFAULT_CONFIG
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ShardIncomplete
from repro.experiments.report import write_markdown
from repro.sim.campaign import parse_shard
from repro.sim.options import BACKENDS, ExecOptions
from repro.sim.store import FingerprintStore


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    p.add_argument(
        "which",
        choices=list(EXPERIMENTS) + ["all"],
        help="experiment to run",
    )
    p.add_argument(
        "--records",
        type=int,
        default=None,
        help="records per benchmark (default: each workload's default size)",
    )
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per experiment batch (default 1 = serial; "
        "0 = one per CPU); results are bit-identical for any N",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulation under repro.sanitize runtime invariant "
        "checking (same results, slower; violations abort with a snapshot)",
    )
    p.add_argument(
        "--trace",
        metavar="DIR",
        nargs="?",
        const="traces",
        default=None,
        help="attach repro.trace to every simulation and write Chrome "
        "trace-event JSON + timeline/profile CSVs per run, plus a "
        "campaign index.json, under DIR (default: traces/); same "
        "results, slower, and traced runs always re-simulate",
    )
    p.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="reference",
        help="execution backend for every simulation (docs/backends.md); "
        "both produce bit-identical results and differ only in how the "
        "instruction traces are computed - 'vector' batches them with "
        "NumPy for wall-clock speed",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        default=".repro_cache",
        help="persistent fingerprint store (docs/campaigns.md; default: "
        ".repro_cache): completed specs are recorded durably under DIR "
        "and never re-simulated - a killed run resumes where its store "
        "left off, independent processes/hosts merge through the same "
        "DIR, and after a config change only specs whose fingerprints "
        "changed are re-simulated",
    )
    p.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve fingerprints already in the store (default); "
        "--no-resume re-simulates every spec while still recording the "
        "fresh results",
    )
    p.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help="run the I-th of N round-robin slices of the "
        "campaign's deduplicated spec list (1-based, e.g. 2/3); shards "
        "merge through the shared store, and the table prints once "
        "every shard's work is recorded; the slice is a claim-order "
        "hint: pending specs are claimed through atomic lease files, so "
        "an idle shard steals a straggler's (or a killed shard's) "
        "unclaimed work",
    )
    p.add_argument(
        "--write-md",
        metavar="PATH",
        nargs="?",
        const="EXPERIMENTS.md",
        default=None,
        help="also write a markdown report (default path: EXPERIMENTS.md)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one worker per CPU)")
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            parser.error(str(exc))
    # one store instance for the whole invocation (experiments share its
    # segment), closed before exiting - no leaked descriptors
    store = FingerprintStore(args.store)

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    names = list(EXPERIMENTS) if args.which == "all" else [args.which]
    trace_dir = Path(args.trace) if args.trace is not None else None
    options = ExecOptions(sanitize=args.sanitize, trace=trace_dir is not None,
                          backend=args.backend)
    results = []
    incomplete = []
    try:
        for name in names:
            t0 = time.perf_counter()
            try:
                res = EXPERIMENTS[name].run_experiment(
                    DEFAULT_CONFIG, n_records=args.records, options=options,
                    workers=jobs,
                    trace_dir=trace_dir / name if trace_dir is not None else None,
                    store=store,
                    shard=shard,
                    resume=args.resume,
                )
            except ShardIncomplete as exc:
                incomplete.append(name)
                print(f"== {name}: {exc}\n")
                continue
            results.append(res)
            print(res.text())
            print(f"[{name} took {time.perf_counter() - t0:.1f}s]\n")
    finally:
        store.close()
    if trace_dir is not None:
        print(f"trace artifacts under {trace_dir}/ (load the *.trace.json "
              "files in chrome://tracing or https://ui.perfetto.dev)")
    if incomplete:
        print(f"{len(incomplete)} campaign(s) not yet merged "
              f"({', '.join(incomplete)}); store: {store.root} "
              f"({len(store)} records)")

    if args.write_md:
        path = write_markdown(results, Path(args.write_md))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
