"""Scaling validity check (section V).

The paper runs 128 MB inputs and argues "BMLAs behave identically for
large-enough and larger inputs... the steady-state behavior (achieved well
before 128 MB) will not change with larger datasets".  The reproduction
runs much smaller inputs; this benchmark verifies that the *normalized*
metrics the figures report (throughput, relative speedups, row-miss rate)
are already stable in input size at the sizes the harness uses.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.api import run

SIZES = [2048, 4096, 8192, 16384]


@pytest.fixture(scope="module")
def scaling_runs():
    out = {}
    for n in SIZES:
        out[n] = {
            arch: run(arch, "count", n_records=n)
            for arch in ("gpgpu", "ssmc", "millipede")
        }
    return out


def test_steady_state_regenerates(benchmark, scaling_runs):
    def table():
        rows = []
        for n in SIZES:
            r = scaling_runs[n]
            rows.append((
                n,
                r["millipede"].throughput_words_per_s / 1e9,
                r["millipede"].throughput_words_per_s
                / r["gpgpu"].throughput_words_per_s,
            ))
        return rows

    rows = run_once(benchmark, table)
    print()
    print(f"{'records':>8s} {'millipede Gw/s':>15s} {'speedup vs gpgpu':>17s}")
    for n, tput, sp in rows:
        print(f"{n:8d} {tput:15.2f} {sp:17.2f}")


class TestSteadyState:
    def test_throughput_stable_in_input_size(self, benchmark, scaling_runs):
        tputs = [scaling_runs[n]["millipede"].throughput_words_per_s for n in SIZES[1:]]
        assert max(tputs) / min(tputs) < 1.15, "throughput not steady in input size"

    def test_relative_speedup_stable(self, benchmark, scaling_runs):
        speedups = [
            scaling_runs[n]["millipede"].throughput_words_per_s
            / scaling_runs[n]["gpgpu"].throughput_words_per_s
            for n in SIZES[1:]
        ]
        assert max(speedups) / min(speedups) < 1.15

    def test_larger_inputs_amortize_warmup(self, benchmark, scaling_runs):
        small = scaling_runs[SIZES[0]]["millipede"].throughput_words_per_s
        large = scaling_runs[SIZES[-1]]["millipede"].throughput_words_per_s
        assert large >= small * 0.95
