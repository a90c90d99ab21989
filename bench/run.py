"""Run the repository benchmark and print every metric with its unit.

    python3 bench/run.py                       # all workloads, seed 0
    python3 bench/run.py --workload membound-vector --seed 3
    python3 bench/run.py --trace 1             # per-layer metrics
    python3 bench/run.py --out .bench_work/results/A/0.json   # compare.py input
    python3 bench/run.py --update-expected     # rewrite bench/expected/

Each workload runs in a fresh single-threaded child process
(``bench/harness.py``); this parent only spawns processes, times the
set-up interpreters and formats results, so it never imports the
simulator.  The last stdout line of a single-workload run is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1``, the per-layer metrics of one
untraced and one traced round, whose output digests must agree.

Every workload runs a fixed number of rounds (``harness.WORKLOADS``),
sized to measure for about ``run_seconds`` of ``BENCHMARK.json`` on a
2-core box.  ``--seconds`` is accepted so the standard benchmark command
line parses, and changes nothing: a round count that followed the clock
would give a faster commit more samples than a slower one.

Exits 2 when the simulator sources (``src/repro``) are missing, 1 when a
workload crashes, the traced pass diverges, or a run exceeds its time
limit, and prints no result line for that workload.  Failed operations
(an exception or a wrong output digest) do not stop the run: they are
counted in ``failed`` and make ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DECLARATION = ROOT / "BENCHMARK.json"

#: hard limit for one workload's processes, set-up interpreters included
WORKLOAD_LIMIT_S = 170.0
#: fresh interpreters timed for ``setup_s``
SETUP_RUNS = 5
#: backend each workload's set-up interpreters warm up (as in harness.py)
SETUP_BACKEND = {
    "paper-regen": "vector",
    "membound-vector": "vector",
    "compute-reference": "reference",
    "campaign-store": "vector",
}
#: what a user pays before the first result: import the API, then one
#: 64-record run per processor family (MIMD, SIMT, SSMC, multicore)
SETUP_CODE = """
import sys
from repro import api
options = api.ExecOptions(backend=sys.argv[1])
for arch in ("millipede", "gpgpu", "ssmc", "multicore"):
    api.run(arch, "count", n_records=64, options=options)
"""


class BenchError(RuntimeError):
    """A workload could not be measured; no result is printed."""


def child_env() -> dict:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one thread per child, a fixed hash seed, and temp files in the checkout
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def run_child(name: str, seed: int, deadline: Deadline, *flags: str,
              trace_out: "Path | None" = None) -> dict:
    """Run ``harness.py`` for one workload; its last stdout line is the
    raw measurement JSON.  The scratch directory is always removed."""
    workdir = WORK / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "harness.py"), "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir), *flags]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: child exceeded the time limit") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def time_setup(name: str, deadline: Deadline, runs: int) -> list[float]:
    """Wall time of ``runs`` fresh interpreters doing the set-up.

    stdout is a pipe: ``run`` then returns when the pipe closes, whereas
    a bare ``wait(timeout)`` polls at up to 50 ms and quantizes times."""
    times = []
    cmd = [sys.executable, "-c", SETUP_CODE, SETUP_BACKEND[name]]
    for _ in range(runs):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=WORK, env=child_env(),
                                  stdout=subprocess.PIPE,
                                  timeout=deadline.left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: set-up exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{name}: set-up exited with code {proc.returncode}")
        times.append(time.perf_counter() - t0)
    return times


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def e2e_metrics(raw: dict, setup: list[float]) -> dict:
    """End-to-end metrics and ungated diagnostics from one untraced
    child's raw measurements and the set-up interpreter times."""
    wall = raw["wall_s"]
    rounds, resumes = raw["round_walls_s"], raw["resume_times_s"]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": wall,
        "sim_minst_per_s": raw["instructions"] / wall / 1e6 if wall else 0.0,
        "resume_s": min(resumes, default=0.0),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    diagnostics = {
        "rounds": len(rounds),
        "round_median_s": _median(rounds),
        "round_max_s": max(rounds, default=0.0),
        "resumes": len(resumes),
        "resume_median_s": _median(resumes),
        "resume_max_s": max(resumes, default=0.0),
        "setup_runs_s": setup,
        "failed_frac": raw["failed"] / max(raw["attempted"], 1),
        "checked_against": raw["checked_against"],
    }
    return {"attempted": raw["attempted"], "failed": raw["failed"],
            "errors": raw["errors"], "metrics": metrics,
            "diagnostics": diagnostics}


def layer_metrics(base: dict, traced: dict) -> dict:
    """Per-layer metrics from an untraced and a traced single round of
    one workload.  Raises :class:`BenchError` when tracing changed any
    output digest or the layer self times do not partition its wall."""
    if traced["digests"] != base["digests"]:
        differ = sorted(k for k in set(base["digests"]) | set(traced["digests"])
                        if base["digests"].get(k) != traced["digests"].get(k))
        raise BenchError(f"traced pass changed {len(differ)} output(s), "
                         f"e.g. {differ[0]}")
    if traced["trace_partition_ns"] != 0:
        raise BenchError(f"layer self times miss the traced wall by "
                         f"{traced['trace_partition_ns']} ns")
    metrics = dict(traced["layers"])
    accesses = traced["row_accesses"]
    metrics.update({
        "dram.row_miss_rate": traced["row_misses"] / accesses if accesses else 0.0,
        "sim.instructions": traced["instructions"],
        "sim.host_ns_per_inst": (base["wall_s"] * 1e9 / base["instructions"]
                                 if base["instructions"] else 0.0),
        "trace.overhead_frac": traced["trace_wall_s"] / base["total_s"] - 1.0,
    })
    diagnostics = {
        "traced_wall_s": traced["trace_wall_s"],
        "untraced_wall_s": base["total_s"],
        "digests_compared": len(base["digests"]),
        "missing_targets": traced["trace_missing"],
    }
    return {"attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"],
            "errors": base["errors"] + traced["errors"],
            "metrics": metrics, "diagnostics": diagnostics}


def measure(name: str, seed: int) -> dict:
    """End-to-end metrics of one workload (untraced)."""
    deadline = Deadline(WORKLOAD_LIMIT_S)
    # set-up runs before and after the workload, so a slow stretch of the
    # host does not cover all of them
    before = SETUP_RUNS // 2 + 1
    setup = time_setup(name, deadline, before)
    raw = run_child(name, seed, deadline)
    setup += time_setup(name, deadline, SETUP_RUNS - before)
    return e2e_metrics(raw, setup)


def measure_traced(name: str, seed: int) -> dict:
    """Per-layer metrics: one untraced round, then one traced round in a
    fresh process; every output digest must agree between the two."""
    deadline = Deadline(WORKLOAD_LIMIT_S)
    base = run_child(name, seed, deadline, "--single-round")
    trace_path = WORK / "traces" / f"{name}-seed{seed}.trace.json"
    traced = run_child(name, seed, deadline, "--traced", trace_out=trace_path)
    try:
        result = layer_metrics(base, traced)
    except BenchError as exc:
        raise BenchError(f"{name}: {exc}") from None
    result["diagnostics"]["chrome_trace"] = str(trace_path.relative_to(ROOT))
    return result


def result_line(result: dict, declared: list[dict]) -> dict:
    """The result line: every declared metric, in order, with its unit."""
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_table(name: str, seed: int, line: dict, result: dict) -> None:
    print(f"== {name} (seed {seed}): {line['attempted']} operations, "
          f"{line['failed']} failed")
    for metric, entry in line["metrics"].items():
        value = entry["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {metric:<36} {text:>14} {entry['unit']}")
    for key, value in result["diagnostics"].items():
        if isinstance(value, list):
            value = ", ".join(f"{v:.4g}" if isinstance(v, float) else str(v)
                              for v in value) or "-"
        elif isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  ({key}: {value})")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def update_expected(names: list[str]) -> None:
    """Rewrite bench/expected/<workload>.json from single-round runs at
    seeds 0 and 1 (the digests any later commit must reproduce)."""
    for name in names:
        table = {}
        for seed in ((0,) if name == "paper-regen" else (0, 1)):
            raw = run_child(name, seed, Deadline(WORKLOAD_LIMIT_S),
                            "--single-round", "--no-expected")
            if raw["failed"]:
                raise BenchError(f"{name} seed {seed}: {raw['errors']}")
            table[str(seed)] = dict(sorted(raw["checked"].items()))
        path = BENCH / "expected" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)} "
              f"({sum(len(v) for v in table.values())} digests)")


def main(argv: "list[str] | None" = None) -> int:
    declaration = json.loads(DECLARATION.read_text()) if DECLARATION.exists() else {}
    names = [w["name"] for w in declaration.get("workloads", [])]
    p = argparse.ArgumentParser(
        description="Run the benchmark workloads and print their metrics.")
    p.add_argument("--workload", choices=names or None,
                   help="one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0,
                   help="offsets every spec seed (paper-regen is fixed at 0)")
    p.add_argument("--seconds", type=float,
                   help="accepted for the standard benchmark command line; "
                        "the rounds are fixed, so it changes nothing")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced pass")
    p.add_argument("--out", type=Path, default=None,
                   help="also write all results as JSON for bench/compare.py")
    p.add_argument("--update-expected", action="store_true",
                   help="rewrite the committed output digests and exit")
    args = p.parse_args(argv)
    if not (SRC / "repro").is_dir() or not names:
        print(f"error: {SRC / 'repro'} or {DECLARATION.name} not found; run "
              "from a full checkout", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    try:
        if args.update_expected:
            update_expected(selected)
            return 0
        declared = declaration["per_layer" if args.trace else "end_to_end"]
        results = {}
        for name in selected:
            result = (measure_traced if args.trace else measure)(name, args.seed)
            line = result_line(result, declared)
            print_table(name, args.seed, line, result)
            print(json.dumps(line), flush=True)
            results[name] = {**line, "diagnostics": result["diagnostics"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "workloads": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
