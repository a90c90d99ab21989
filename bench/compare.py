"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/run.py --seed 0 --out .bench_work/results/A/0.json   # ...
    python3 bench/compare.py .bench_work/results/A .bench_work/results/B

``A`` (the baseline, e.g. the parent commit) and ``B`` (the change) are
result files written by ``bench/run.py --out``, or directories searched
for them.  For every workload × end-to-end metric of ``BENCHMARK.json``
it prints each side's median and quartiles, B's change against A, the
metric's bound, and a verdict:

* ``unresolved`` - either side's quartile spread (Q3 - Q1 over the
  median) is wider than the bound, unless every run of B is better than
  every run of A;
* ``regressed`` - B's median is worse than A's by more than the bound;
* ``ok`` - otherwise.

A ``failed_frac`` row per workload regresses on any increase in failed
operations.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> untraced results from one file or a directory tree."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        data = json.loads(file.read_text())
        if data.get("trace") != 0 or "workloads" not in data:
            continue
        for name, result in data["workloads"].items():
            runs.setdefault(name, []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile spread as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[float, str]:
    """(B's change against A's median, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    b_always_better = all(sign * (x - y) < 0 for x in b for y in a)
    if max(spread(a), spread(b)) > bound and not b_always_better:
        return change, "unresolved"
    if sign * change > bound:
        return change, "regressed"
    return change, "ok"


def _failed_frac(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(a_runs: dict, b_runs: dict, declared: list[dict]) -> list[dict]:
    rows = []
    for name in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[name], b_runs[name]
        for metric in declared:
            key = metric["name"]
            a_vals = [r["metrics"][key]["value"] for r in a if key in r["metrics"]]
            b_vals = [r["metrics"][key]["value"] for r in b if key in r["metrics"]]
            if not a_vals or not b_vals:
                continue
            change, word = verdict(a_vals, b_vals, metric["bound"], metric["better"])
            rows.append({"workload": name, "metric": key, "unit": metric["unit"],
                         "a": quartiles(a_vals), "b": quartiles(b_vals),
                         "n": (len(a_vals), len(b_vals)), "change": change,
                         "bound": metric["bound"], "verdict": word})
        fa, fb = _failed_frac(a), _failed_frac(b)
        rows.append({"workload": name, "metric": "failed_frac", "unit": "ratio",
                     "a": (fa, fa, fa), "b": (fb, fb, fb), "n": (len(a), len(b)),
                     "change": fb - fa, "bound": 0.0,
                     "verdict": "regressed" if fb > fa else "ok"})
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    header = ("workload", "metric", "unit", "n A/B", "A median [Q1, Q3]",
              "B median [Q1, Q3]", "change", "bound", "verdict")
    table = [header] + [(
        r["workload"], r["metric"], r["unit"], f"{r['n'][0]}/{r['n'][1]}",
        q(r["a"]), q(r["b"]), f"{r['change']:+.2%}", f"{r['bound']:.0%}",
        r["verdict"]) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in table)


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of bench/run.py results.")
    p.add_argument("a", type=Path, help="baseline results (file or directory)")
    p.add_argument("b", type=Path, help="changed results (file or directory)")
    args = p.parse_args(argv)
    declared = json.loads(DECLARATION.read_text())["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    rows = compare(a_runs, b_runs, declared)
    if not rows:
        print("error: no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
