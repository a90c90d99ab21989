#!/usr/bin/env python
"""Quickstart: run one BMLA benchmark on Millipede and the baselines.

Simulates the `count` benchmark (movie-rating histogram) on the GPGPU,
plain-SSMC, and Millipede PNM architectures, validates every simulated
reduction against the golden NumPy result, and prints the Fig. 3-style
comparison.

Run:
    python examples/quickstart.py [records]
"""

from __future__ import annotations

import sys

from repro import api

ARCHES = ["gpgpu", "ssmc", "millipede"]


def main() -> None:
    n_records = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    print(f"simulating `count` over {n_records} records on {', '.join(ARCHES)}...\n")

    grid = api.sweep(ARCHES, ["count"], n_records=n_records)
    results = {arch: r for (arch, _), r in grid.items()}

    base = results["gpgpu"].throughput_words_per_s
    print(f"{'arch':>12s} {'runtime':>10s} {'throughput':>12s} {'vs gpgpu':>9s} "
          f"{'energy':>9s} {'row miss':>9s} {'validated':>9s}")
    for arch in ARCHES:
        r = results[arch]
        print(
            f"{arch:>12s} {r.runtime_s * 1e6:8.1f}us "
            f"{r.throughput_words_per_s / 1e9:9.2f}Gw/s "
            f"{r.throughput_words_per_s / base:8.2f}x "
            f"{r.energy.total_j * 1e6:7.1f}uJ "
            f"{r.row_miss_rate:9.3f} {str(r.validated):>9s}"
        )

    mill = results["millipede"]
    print(
        f"\nMillipede processed {mill.input_words} input words in "
        f"{mill.runtime_s * 1e6:.1f} us simulated time "
        f"({mill.collected['instructions']:.0f} instructions, "
        f"{mill.insts_per_word:.1f} per input word)."
    )
    counts = mill.reduced["counts"]
    print(f"reduced histogram (first 8 bins): {counts[:8].tolist()}")
    print(f"invalid records: {int(mill.reduced['invalid'])}")


if __name__ == "__main__":
    main()
