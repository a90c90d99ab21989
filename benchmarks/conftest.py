"""Benchmark-suite fixtures.

Each benchmark regenerates one of the paper's tables/figures at a reduced
input size (full-size regeneration is ``python -m repro.experiments all``),
asserts the paper's *shape* on the result, and reports the wall time of
the regeneration through pytest-benchmark (single round - these are
simulations, not microbenchmarks).

Two committed trajectory files live at the repo root:

* ``BENCH_interp.json``   - interpreter-backend speedups
* ``BENCH_campaign.json`` - campaign-runner batch/store timings

They are the regression baseline that ``test_bench_gate.py`` compares
freshly recorded numbers against (>25% speedup regression fails).  A
session never rewrites them: ``record_bench`` merges its sections into
the git-ignored copies under ``.bench_work/`` (CI uploads those as
artifacts), so a second session in the same checkout still gates against
the committed numbers.  Re-baselining is a deliberate copy of a
``.bench_work/BENCH_*.json`` over the committed file.
"""

from __future__ import annotations

import datetime
import json
import time
from pathlib import Path

import pytest

#: records per benchmark for the CI-speed figure regenerations
FAST_RECORDS = 4096

_ROOT = Path(__file__).resolve().parent.parent

#: the committed perf-trajectory files (the baselines), by short name
BENCH_PATHS = {
    "interp": _ROOT / "BENCH_interp.json",
    "campaign": _ROOT / "BENCH_campaign.json",
}

#: where a session records its numbers (git-ignored)
WORK_DIR = _ROOT / ".bench_work"


def _load(path: Path) -> dict:
    if path.exists():
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


#: the committed numbers, snapshotted at collection time so a session
#: that re-records a file still gates against what it started from
BASELINES: dict[str, dict] = {name: _load(path)
                              for name, path in BENCH_PATHS.items()}

#: sections recorded by *this* session, file -> section -> payload;
#: the regression gate only judges freshly measured numbers
RECORDED: dict[str, dict] = {name: {} for name in BENCH_PATHS}


def record_bench(section: str, payload: dict, file: str = "interp") -> Path:
    """Merge one named section into the session copy of a bench
    trajectory file, ``.bench_work/BENCH_<file>.json`` (seeded from the
    committed file the first time).

    Sections are replaced wholesale (a re-run overwrites its own numbers,
    never another benchmark's), so recorders can land in any order."""
    path = WORK_DIR / BENCH_PATHS[file].name
    data = _load(path) or _load(BENCH_PATHS[file])
    # bench trajectory timestamps are calendar metadata, never sim input;
    # see docs/linting.md
    now = time.time()  # repro-lint: disable=DET002
    # schema 2: the interp section nests per-arch sections under "arches"
    # (schema 1 was one flat millipede section)
    data["schema"] = 2
    data["generated_unix"] = now
    # human-readable ISO-8601 UTC alongside the raw float
    data["generated_iso"] = datetime.datetime.fromtimestamp(
        now, datetime.timezone.utc).isoformat(timespec="seconds")
    data[section] = payload
    WORK_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    RECORDED[file][section] = payload
    return path


@pytest.fixture
def fast_records() -> int:
    return FAST_RECORDS


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def pytest_collection_modifyitems(items):
    """The shape-assertion tests take the ``benchmark`` fixture only so
    ``--benchmark-only`` runs them (they assert on module-scoped results
    rather than timing anything); silence the unused-fixture warning.
    The regression gate sorts last so every recorder has run first."""
    import pytest

    for item in items:
        item.add_marker(
            pytest.mark.filterwarnings("ignore:Benchmark fixture was not used")
        )
    items.sort(key=lambda item: item.module.__name__ == "test_bench_gate")
