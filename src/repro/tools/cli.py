"""Developer tools: disassembly, run inspection, layout dumps."""

from __future__ import annotations

import argparse
import sys

from repro.analysis import RooflineModel, analyze_history, attribute_bottleneck
from repro.config import DEFAULT_CONFIG
from repro.isa.instructions import BRANCH_OPS, GLOBAL_MEM_OPS, LOCAL_MEM_OPS
from repro.sim.driver import ARCHITECTURES, run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.workloads.registry import get_workload, workload_names


def cmd_disasm(args: argparse.Namespace) -> int:
    wl = get_workload(args.workload)
    built = wl.build(n_threads=args.threads, n_records=512,
                     traversal=args.traversal)
    prog = built.program
    print(f"# {wl.name}: {len(prog)} instructions "
          f"({prog.code_bytes} B of {DEFAULT_CONFIG.core.icache_bytes} B I-cache)")
    print(f"# static: {prog.static_branches} branches, "
          f"{prog.static_global_accesses} global accesses, "
          f"{prog.static_local_accesses} local accesses")
    print(prog.listing())
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    spec = RunSpec(args.arch, args.workload, n_records=args.records,
                   options=ExecOptions(sanitize=args.sanitize,
                                       trace=args.trace is not None))
    if args.store is not None and not spec.trace:
        # durable path: serve the spec from the fingerprint store when its
        # record exists, simulate-and-record otherwise (traced runs always
        # simulate, so they take the live path below).  Inspection is not
        # a campaign: it must not write or clobber any manifest.
        from repro.sim.campaign import run_batch
        from repro.sim.store import FingerprintStore

        with FingerprintStore(args.store) as store:
            result = store.get_spec(spec)
            if result is not None:
                print(f"store: hit {spec.content_hash()[:12]} "
                      f"({len(store)} records in {store.root})")
            else:
                result = run_batch([spec], store=store)[0]
                store.write_index()
                print(f"store: miss {spec.content_hash()[:12]} - simulated "
                      f"and recorded ({len(store)} records in {store.root})")
    else:
        result = run(spec, trace_interval_ps=args.trace_interval_ps)
    print(result.summary())
    if result.trace is not None:
        stem = f"{args.arch}-{args.workload}"
        paths = result.trace.write(args.trace, stem)
        print(f"trace: {result.trace.summary()}")
        for kind, path in paths.items():
            print(f"  {kind:>8s}: {path}")
    print()
    print(attribute_bottleneck(result).render())
    print()
    model = RooflineModel(DEFAULT_CONFIG, arch=args.arch)
    print(model.render([model.place(result)]))
    if "rate_match_history" in result.collected:
        print()
        print(analyze_history(result.collected["rate_match_history"],
                              end_ps=result.finish_ps).render())
    if args.stats:
        print("\nraw statistics:")
        for k, v in sorted(result.stats.items()):
            print(f"  {k:40s} {v:.0f}")
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    wl = get_workload(args.workload)
    built = wl.build(n_threads=args.threads, n_records=512)
    lay = built.layout
    print(f"# {wl.name}: {lay.n_records} records x {lay.n_fields} fields, "
          f"blocks of {lay.block_records}, {lay.total_words} words total")
    print(f"# per-thread live state: {wl.state_words} words")
    print(f"{'record':>7s} {'field':>6s} {'word addr':>10s} {'row':>5s}")
    for r in (0, 1, args.threads, lay.block_records):
        if r >= lay.n_records:
            continue
        for f in range(min(lay.n_fields, 4)):
            a = lay.addr(r, f)
            print(f"{r:7d} {f:6d} {a:10d} {a // 512:5d}")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.sim.store import FingerprintStore

    with FingerprintStore(args.dir) as store:
        if args.action == "info":
            live_claims = sum(
                1 for p in store.claim_dir.glob("*.json")
                if store.claim_holder(p.stem) is not None)
            total_bytes = sum(
                (store.log_dir / name).stat().st_size
                for name in store.segments())
            print(f"store: {store.root}")
            print(f"  records:       {len(store)}")
            print(f"  segments:      {len(store.segments())} "
                  f"({total_bytes} bytes)")
            print(f"  manifests:     {len(store.manifest_names())}")
            print(f"  live claims:   {live_claims}")
            print(f"  corrupt lines: {store.corrupt_lines}")
        elif args.action == "compact":
            summary = store.compact()
            if summary["compacted"]:
                print(f"compacted {summary['records']} records: "
                      f"{summary['segments_before']} -> "
                      f"{summary['segments_after']} segments, "
                      f"{summary['bytes_before']} -> "
                      f"{summary['bytes_after']} bytes "
                      f"({summary['segments_retired']} retired)")
            else:
                print(f"nothing to compact: {summary['records']} records "
                      f"in {summary['segments_after']} segment(s)")
        elif args.action == "gc":
            summary = store.gc()
            print(f"gc: removed {summary['tmp_files_removed']} temp files, "
                  f"{summary['stale_claims_removed']} stale claims, "
                  f"{summary['empty_segments_removed']} empty segments")
    return 0


def cmd_arches(args: argparse.Namespace) -> int:
    print(f"{'key':>16s}  description")
    descriptions = {
        "gpgpu": "SIMT SM, 32-wide warps, L1D + oracle prefetch",
        "vws": "Variable Warp Sizing (4-wide warps)",
        "vws-row": "VWS + row-oriented flow-controlled prefetch buffer",
        "ssmc": "plain sea-of-simple-MIMD-cores, per-core L1D",
        "millipede": "row-oriented MIMD + cross-corelet flow control",
        "millipede-nofc": "Millipede without flow control",
        "millipede-rm": "Millipede + coarse-grain rate matching",
        "millipede-bar": "software record-granularity barriers (ablation)",
        "multicore": "conventional 8-core OoO node, off-chip DRAM",
    }
    for key in ARCHITECTURES:
        print(f"{key:>16s}  {descriptions.get(key, '')}")
    print(f"\nworkloads: {', '.join(workload_names())} (+ varwork)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m repro.tools")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("disasm", help="disassemble a workload kernel")
    d.add_argument("workload")
    d.add_argument("--threads", type=int, default=128)
    d.add_argument("--traversal", choices=["chunked", "interleaved"], default="chunked")
    d.set_defaults(fn=cmd_disasm)

    i = sub.add_parser("inspect", help="run and analyze one simulation")
    i.add_argument("arch", choices=list(ARCHITECTURES))
    i.add_argument("workload")
    i.add_argument("--records", type=int, default=4096)
    i.add_argument("--stats", action="store_true", help="dump raw counters")
    i.add_argument("--sanitize", action="store_true",
                   help="attach runtime invariant checking (repro.sanitize)")
    i.add_argument("--trace", metavar="DIR", nargs="?", const="traces",
                   default=None,
                   help="attach repro.trace and write Chrome trace-event "
                   "JSON + timeline/profile CSVs under DIR (default: "
                   "traces/); composes with --sanitize")
    i.add_argument("--trace-interval-ps", type=int, default=None, metavar="PS",
                   help="timeline sampling cadence in simulated picoseconds")
    i.add_argument("--store", metavar="DIR", default=None,
                   help="serve/record the run through a persistent "
                   "fingerprint store (docs/campaigns.md); a repeated "
                   "inspect is then a store hit, not a re-simulation "
                   "(ignored for --trace runs, which always simulate)")
    i.set_defaults(fn=cmd_inspect)

    l = sub.add_parser("layout", help="dump a workload's address layout")
    l.add_argument("workload")
    l.add_argument("--threads", type=int, default=128)
    l.set_defaults(fn=cmd_layout)

    a = sub.add_parser("arches", help="list architectures and workloads")
    a.set_defaults(fn=cmd_arches)

    st = sub.add_parser(
        "store",
        help="fingerprint-store maintenance: info, segment compaction, "
        "garbage collection (docs/campaigns.md)")
    st.add_argument("dir", help="store directory (the --store path)")
    st.add_argument("action", choices=["info", "compact", "gc"],
                    help="info: record/segment/claim inventory; compact: "
                    "rewrite live records into one fresh segment and "
                    "retire the old ones; gc: drop orphan temp files, "
                    "expired claims, and empty segments")
    st.set_defaults(fn=cmd_store)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
