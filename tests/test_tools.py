"""Tests for the developer-tools CLI."""

from __future__ import annotations

import pytest

from repro.tools.cli import build_parser, main


class TestToolsCli:
    def test_disasm(self, capsys):
        assert main(["disasm", "count", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "ldg" in out and "reconv" in out

    def test_disasm_interleaved_traversal(self, capsys):
        assert main(["disasm", "count", "--threads", "16",
                     "--traversal", "interleaved"]) == 0
        out = capsys.readouterr().out
        # interleaved init loads the base then adds tid (chunked scales tid)
        assert "mov r10, r4" in out

    def test_layout(self, capsys):
        assert main(["layout", "nbayes", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "word addr" in out

    def test_arches(self, capsys):
        assert main(["arches"]) == 0
        out = capsys.readouterr().out
        assert "millipede" in out and "gpgpu" in out

    def test_inspect_runs_simulation(self, capsys):
        assert main(["inspect", "millipede", "count", "--records", "1024"]) == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "roofline" in out

    def test_inspect_stats_dump(self, capsys):
        assert main(["inspect", "ssmc", "count", "--records", "1024", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "dram.requests" in out

    def test_unknown_workload_errors(self):
        with pytest.raises(KeyError):
            main(["disasm", "nope"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestInspectStore:
    def test_inspect_store_records_then_hits_no_manifest(self, tmp_path,
                                                         capsys):
        """`inspect --store` is not a campaign: it records/serves through
        the store but must not write any manifest (a fixed manifest name
        would clobber the previous inspection's checkpoint)."""
        store_dir = tmp_path / "store"
        argv = ["inspect", "ssmc", "count", "--records", "512",
                "--store", str(store_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "store: miss" in out and "roofline" in out
        assert list((store_dir / "manifests").glob("*")) == []

        # the repeat is a store hit, not a re-simulation
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "store: hit" in out
        assert list((store_dir / "manifests").glob("*")) == []

    def test_inspect_store_ignored_for_traced_runs(self, tmp_path, capsys):
        assert main(["inspect", "ssmc", "count", "--records", "512",
                     "--store", str(tmp_path / "s"),
                     "--trace", str(tmp_path / "traces")]) == 0
        out = capsys.readouterr().out
        assert "store:" not in out and "trace:" in out


class TestStoreCommand:
    def test_store_info_compact_gc(self, tmp_path, capsys):
        from repro.sim.spec import RunSpec
        from repro.sim.store import FingerprintStore, canonical_result_blob

        from tests.test_store import make_result

        store_dir = tmp_path / "store"
        specs = [RunSpec(a, "count", n_records=512)
                 for a in ("ssmc", "millipede")]
        for spec in specs:  # one writer instance each -> two segments
            with FingerprintStore(store_dir) as writer:
                writer.put(spec, make_result(spec))

        assert main(["store", str(store_dir), "info"]) == 0
        out = capsys.readouterr().out
        assert "records:       2" in out and "segments:      2" in out

        assert main(["store", str(store_dir), "compact"]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 records: 2 -> 1 segments" in out
        reader = FingerprintStore(store_dir)
        assert len(reader.segments()) == 1
        for spec in specs:
            assert canonical_result_blob(reader.get_spec(spec)) == \
                canonical_result_blob(make_result(spec))

        # a second compact is a no-op; gc reports a clean store
        assert main(["store", str(store_dir), "compact"]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert main(["store", str(store_dir), "gc"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 temp files, 0 stale claims" in out
