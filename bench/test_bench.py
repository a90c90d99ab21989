"""Checks of the benchmark harness at tiny sizes: ``python -m pytest bench/``.

Not part of the tier-1 suite (``pytest`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_closed_loop():
    return harness.ClosedLoop("tiny", ("millipede", "gpgpu"), ("count",), 64,
                              "vector")


def tiny_campaign():
    return harness.CampaignStore(n_records=64, arches=("ssmc", "gpgpu"),
                                 kernels=("count",))


def run_tiny(workload, tmp_path, **kwargs):
    kwargs.setdefault("single_round", True)
    return harness.run_workload(workload, 0, tmp_path / "work", **kwargs)


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """An untraced and a traced single round of the tiny campaign."""
    tmp = tmp_path_factory.mktemp("traced")
    base = harness.run_workload(tiny_campaign(), 0, tmp / "base",
                                single_round=True)
    traced = harness.run_workload(tiny_campaign(), 0, tmp / "traced",
                                  traced=True, trace_path=tmp / "t.json")
    return base, traced, tmp / "t.json"


def test_declaration_shape():
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(harness.WORKLOADS) == list(run.SETUP_BACKEND)
    for workload in DECLARED["workloads"]:
        # the declaration records each workload's fixed round count R
        rounds = re.search(r"\bR=(\d+)\b", workload["why"])
        assert rounds and int(rounds[1]) == harness.WORKLOADS[workload["name"]].rounds
        assert run.SETUP_BACKEND[workload["name"]] == harness.WORKLOADS[workload["name"]].backend
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    # set-up time has the loosest bound: its spread is not gated, only its
    # median, and work moved into set-up must still show
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = DECLARED["workloads"] + DECLARED["end_to_end"] + DECLARED["per_layer"]
    assert len({m["name"] for m in every}) == len(every)
    assert all(NAME_RE.fullmatch(m["name"]) for m in every)


def test_end_to_end_metrics_are_declared(tmp_path):
    raw = run_tiny(tiny_closed_loop(), tmp_path)
    raw["checked_against"] = "determinism"
    result = run.e2e_metrics(raw, [0.5, 0.4, 0.6])
    declared = {m["name"]: m for m in DECLARED["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, value in result["metrics"].items():
        assert NAME_RE.fullmatch(name)
        assert declared[name]["unit"] and declared[name]["bound"] > 0
        assert value > 0, name  # a declared metric must never read 0
    line = run.result_line(result, DECLARED["end_to_end"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_layer_metrics_are_declared(traced_pair):
    base, traced, _ = traced_pair
    result = run.layer_metrics(base, traced)
    declared = {m["name"]: m for m in DECLARED["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    assert all(NAME_RE.fullmatch(name) and declared[name]["unit"]
               for name in result["metrics"])
    metrics = result["metrics"]
    assert metrics["sim.store.put_calls"] == 4 and metrics["sim.store.claim_calls"] == 4
    assert metrics["engine.events"] > 0 and metrics["workloads.build_calls"] > 0


def test_layer_self_times_partition_the_traced_wall(traced_pair):
    _, traced, _ = traced_pair
    assert traced["trace_partition_ns"] == 0
    layers = traced["layers"]
    total = sum(layers[name] for name in set(tracing.SELF_METRICS.values()))
    assert total == pytest.approx(traced["trace_wall_s"], abs=1e-6)


def test_traced_pass_is_transparent_and_writes_a_chrome_trace(traced_pair):
    base, traced, path = traced_pair
    assert traced["digests"] == base["digests"] and traced["failed"] == 0
    assert traced["trace_missing"] == []
    events = json.loads(path.read_text())["traceEvents"]
    assert {"run_campaign", "Engine.run", "Workload.build"} <= {e["name"] for e in events}


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    import repro.api
    import repro.experiments.common
    from repro.engine.events import Engine

    def snapshot():
        found = {}
        for module, path, _, _ in tracing.TARGETS:
            owner, attr = tracing._resolve(module, path)
            found[(module, path)] = vars(owner).get(attr)
        found["common.run_campaign"] = repro.experiments.common.run_campaign
        found["api.run_campaign"] = repro.api._campaign_run_campaign
        return found

    before = snapshot()
    with tracing.Tracer() as tracer:
        assert Engine.run is not before[("repro.engine.events", "Engine.run")]
        assert repro.experiments.common.run_campaign is not before["common.run_campaign"]
        assert not tracer.missing
    assert snapshot() == before
    run_tiny(tiny_closed_loop(), tmp_path, traced=True)
    assert snapshot() == before
    engine = Engine()
    engine.run()
    assert engine.observer is None


def test_forced_digest_mismatch_counts_as_failed(tmp_path):
    workload = tiny_closed_loop()
    keys = [str(s) for s in workload.specs(0)]
    bogus = {key: "0" * 64 for key in keys}
    raw = run_tiny(workload, tmp_path, expected=bogus)
    # every spec and every warm resume fails its digest check
    assert raw["failed"] == raw["attempted"] == len(keys) + workload.resumes
    raw["checked_against"] = "committed"
    result = run.e2e_metrics(raw, [0.5])
    assert result["diagnostics"]["failed_frac"] == 1.0
    assert not run.result_line(result, DECLARED["end_to_end"])["correct"]
    good = run_tiny(workload, tmp_path / "again", expected=raw["checked"])
    assert good["failed"] == 0


def test_committed_digests_cover_seeds_zero_and_one():
    for name, workload in harness.WORKLOADS.items():
        table = json.loads((BENCH / "expected" / f"{name}.json").read_text())
        seeds = ["0"] if not getattr(workload, "seed_dependent", True) else ["0", "1"]
        assert sorted(table) == seeds
        if isinstance(workload, harness.PaperRegen):
            assert sorted(table["0"]) == sorted(workload.experiments)
        else:
            assert sorted(table["1"]) == sorted(str(s) for s in workload.specs(1))


def test_traced_digest_difference_aborts(traced_pair):
    base, traced, _ = traced_pair
    changed = dict(traced, digests={k: "x" for k in traced["digests"]})
    with pytest.raises(run.BenchError, match="changed"):
        run.layer_metrics(base, changed)


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], 0.1, "lower")[1] == "ok"
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], 0.1, "lower")[1] == "regressed"
    assert compare.verdict([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], 0.1, "higher")[1] == "regressed"
    assert compare.verdict([1.0, 2.0, 1.5], [1.1, 2.1, 1.6], 0.1, "lower")[1] == "unresolved"
    # every B run better than every A run resolves a wide spread
    assert compare.verdict([2.0, 3.0, 2.5], [1.0, 1.5, 1.2], 0.1, "lower")[1] == "ok"


def test_compare_cli_exit_codes(tmp_path):
    def write(side, seed, wall, failed=0):
        metrics = {m["name"]: {"value": wall if m["name"] == "wall_s" else 1.0,
                               "unit": m["unit"]} for m in DECLARED["end_to_end"]}
        path = tmp_path / side / f"{seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": seed, "trace": 0, "workloads": {
            "w": {"correct": not failed, "attempted": 10, "failed": failed,
                  "metrics": metrics}}}))

    for seed, wall in enumerate([1.0, 1.01, 0.99]):
        write("a", seed, wall)
        write("b", seed, wall * 1.02)
        write("c", seed, wall * 1.5)
        write("d", seed, wall, failed=1)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "b"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "d")]) == 1


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "membound-vector", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
