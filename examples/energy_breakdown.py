#!/usr/bin/env python
"""Fig.-4-style energy analysis across architectures.

For one light (count) and one heavy (gda) benchmark, prints the stacked
energy components the paper plots - core dynamic, idle dynamic, DRAM, and
leakage - and the mechanism behind each architecture's bill:

* GPGPU pays shared-memory crossbar energy and divergence idle energy;
* SSMC pays DRAM activation energy for its block-granular row misses
  ("hidden in execution time but not in energy" for the heavy benchmarks);
* Millipede pays the least, and rate matching trims its idle energy.

Run:
    python examples/energy_breakdown.py
"""

from __future__ import annotations

from repro import api

ARCHES = ["gpgpu", "ssmc", "millipede", "millipede-rm"]


def show(workload: str, n_records: int) -> None:
    grid = api.sweep(ARCHES, [workload], n_records=n_records)
    results = {arch: r for (arch, _), r in grid.items()}
    print(f"=== {workload} ({n_records} records) ===")
    print(f"{'arch':>14s} {'core dyn':>9s} {'idle':>8s} {'dram':>8s} "
          f"{'leakage':>8s} {'total':>8s} {'runtime':>9s}")
    for arch in ARCHES:
        r = results[arch]
        e = r.energy
        print(
            f"{arch:>14s} {e.core_dynamic_j * 1e6:7.2f}uJ {e.idle_j * 1e6:6.2f}uJ "
            f"{e.dram_j * 1e6:6.2f}uJ {e.leakage_j * 1e6:6.2f}uJ "
            f"{e.total_j * 1e6:6.2f}uJ {r.runtime_s * 1e6:7.1f}us"
        )
    gp, mi = results["gpgpu"].energy, results["millipede-rm"].energy
    ss = results["ssmc"].energy
    print(f"millipede-rm vs gpgpu: {mi.total_j / gp.total_j:.2f}x total energy; "
          f"vs ssmc: {mi.total_j / ss.total_j:.2f}x")
    print(f"dram energy: ssmc/gpgpu = {ss.dram_j / gp.dram_j:.2f}x  "
          "(SSMC's row misses cost energy even when latency hides them)\n")


if __name__ == "__main__":
    show("count", 16384)
    show("gda", 2048)
