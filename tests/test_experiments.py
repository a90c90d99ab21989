"""Tests for the experiment harness plumbing (fast paths only; the full
figure regenerations are exercised by benchmarks/)."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.experiments import EXPERIMENTS, table3
from repro.experiments.common import (
    ExperimentResult,
    ascii_bars,
    batch_run,
    format_table,
    geomean,
    markdown_table,
)
from repro.experiments.report import write_markdown
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore


class TestFormatting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yy", 22.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "22.25" in lines[-1]

    def test_markdown_table(self):
        out = markdown_table(["a"], [[1.0]])
        assert out.splitlines()[1] == "|---|"

    def test_ascii_bars_scale_to_max(self):
        out = ascii_bars(["x", "y"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([2.0]) == 2.0


class TestExperimentResult:
    def test_text_and_markdown_render(self):
        res = ExperimentResult(
            name="x", title="T", headers=["h"], rows=[[1.0]],
            notes=["n"], extra_sections=["sec"],
        )
        assert "T" in res.text() and "sec" in res.text()
        md = res.markdown()
        assert md.startswith("### T")
        assert "*n*" in md


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7"
        }

    def test_table3_needs_no_simulation(self):
        res = table3.run_experiment(SystemConfig())
        assert any("700 MHz" in str(c) for row in res.rows for c in row)


class TestCachedRun:
    def test_cache_hit_skips_simulation(self, tmp_path):
        spec = RunSpec("millipede", "count", n_records=1024)
        with FingerprintStore(tmp_path) as store:
            first = batch_run([spec], store=store)[spec]
            second = batch_run([spec], store=store)[spec]
            assert second.finish_ps == first.finish_ps
            # one record: the second run was served from the store
            assert len(list(store.records())) == 1


class TestReport:
    def test_write_markdown(self, tmp_path):
        res = ExperimentResult("x", "Title", ["h"], [[1.0]])
        path = write_markdown([res], tmp_path / "out.md")
        text = path.read_text()
        assert "### Title" in text
        assert "Calibration record" in text


class TestRunnerCli:
    def test_parser_accepts_all(self):
        from repro.experiments.runner import build_parser

        p = build_parser()
        args = p.parse_args(["table3", "--records", "512"])
        assert args.which == "table3" and args.records == 512

    def test_cli_table3_runs(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)  # the default store lands in the CWD
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "hardware parameters" in out

    def test_cli_options_are_part_of_the_fingerprint(self, tmp_path,
                                                     monkeypatch):
        """A sanitized re-run after a plain one must simulate under the
        sanitizer, not be served the plain run's results: every
        execution option is part of the fingerprint the default store
        keys on."""
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)
        assert main(["table4", "--records", "64"]) == 0
        with FingerprintStore(".repro_cache") as store:
            plain = set(store.fingerprints())
        assert len(plain) == 16  # 8 workloads x (ssmc, millipede-rm)

        assert main(["table4", "--records", "64", "--sanitize"]) == 0
        with FingerprintStore(".repro_cache") as store:
            specs = [RunSpec.from_dict(rec["spec"]) for rec in store.records()]
        fresh = [s for s in specs if s.content_hash() not in plain]
        assert len(fresh) == 16 and all(s.sanitize for s in fresh)
