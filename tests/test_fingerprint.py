"""Fingerprints are computed once per frozen value and never go stale.

``SystemConfig.canonical_json()`` and ``RunSpec.content_hash()`` keep
their result on the (frozen) instance.  These tests recompute every
fingerprint from scratch - ``dataclasses.asdict`` and ``json.dumps``, no
memo - and require the memoised value to match across every way a value
is derived or copied, pin how much encoding an all-hit campaign does, and
check that the compact store metadata stays one format with old stores.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle

import pytest

import repro.sim.store as store_mod
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.campaign import dedup_specs, run_campaign
from repro.sim.driver import ARCHITECTURES
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore, result_to_payload
from repro.workloads.registry import workload_names
from tests.test_store import make_result

VECTOR = ExecOptions(backend="vector")


def campaign_store_specs(config: SystemConfig = DEFAULT_CONFIG) -> list[RunSpec]:
    """The benchmark's campaign: 9 arches x 8 kernels x 2 seeds."""
    return [RunSpec(a, k, config=config, n_records=256, seed=s,
                    options=VECTOR)
            for s in (0, 1) for k in workload_names() for a in ARCHITECTURES]


def scratch_dict(spec: RunSpec) -> dict:
    """``RunSpec.to_dict()`` rebuilt without any memoised encoding."""
    return {"arch": spec.arch, "workload": spec.workload,
            "config": dataclasses.asdict(spec.config),
            "n_records": spec.n_records, "seed": spec.seed,
            **spec.options.to_dict()}


def scratch_hash(spec: RunSpec) -> str:
    blob = json.dumps(scratch_dict(spec), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def scratch_json(config: SystemConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)


CONFIGS = {
    "default": DEFAULT_CONFIG,
    "t_cas=10": SystemConfig().with_dram(t_cas=10),
    "scaled-64": SystemConfig().scaled_system_size(64),
}


def _derived(spec: RunSpec) -> list[RunSpec]:
    """Values derived from an already-memoised spec, all ways a campaign
    or a worker produces them."""
    return [
        spec.replace(seed=spec.seed + 7),
        dataclasses.replace(spec, n_records=128),
        spec.replace(config=spec.config.with_dram(t_cas=11)),
        dataclasses.replace(spec, config=dataclasses.replace(
            spec.config, n_processors=spec.config.n_processors + 1)),
        pickle.loads(pickle.dumps(spec)),
        copy.copy(spec),
        RunSpec.from_dict(spec.to_dict()),
    ]


class TestMemoNeverStale:
    def test_campaign_store_specs(self):
        for spec in campaign_store_specs():
            assert spec.to_dict() == scratch_dict(spec)
            assert spec.content_hash() == scratch_hash(spec), spec
            for other in _derived(spec):
                assert other.content_hash() == scratch_hash(other), other

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_configs(self, name):
        config = CONFIGS[name]
        assert config.canonical_json() == scratch_json(config)
        for other in (dataclasses.replace(config, n_processors=4),
                      config.with_core(n_threads=2),
                      pickle.loads(pickle.dumps(config)),
                      copy.copy(config)):
            assert other.canonical_json() == scratch_json(other)
            assert other.fingerprint() == hashlib.sha256(
                scratch_json(other).encode()).hexdigest()[:16]
        spec = RunSpec("millipede", "count", config=config, n_records=512)
        assert spec.content_hash() == scratch_hash(spec)
        for other in _derived(spec):
            assert other.content_hash() == scratch_hash(other), other

    def test_distinct_configs_distinct_fingerprints(self):
        fps = {name: c.fingerprint() for name, c in CONFIGS.items()}
        assert len(set(fps.values())) == len(fps), fps

    def test_returned_dicts_are_private(self):
        spec = RunSpec("ssmc", "kmeans", config=CONFIGS["t_cas=10"],
                       n_records=512, seed=3)
        fp = spec.content_hash()
        before = spec.to_dict()
        out = spec.to_dict()
        out["seed"] = 99
        out["config"]["dram"]["t_cas"] = 1
        out["config"]["core"].clear()
        cfg = spec.config.as_canonical_dict()
        cfg["dram"]["t_cas"] = 2
        cfg["n_processors"] = 0
        assert spec.to_dict() == before == scratch_dict(spec)
        assert spec.config.as_canonical_dict() == dataclasses.asdict(spec.config)
        assert spec.content_hash() == fp == scratch_hash(spec)


class TestCampaignTraffic:
    @pytest.mark.parametrize("fresh_config", [False, True])
    def test_all_hit_campaign_encodes_each_config_once(
            self, tmp_path, monkeypatch, fresh_config):
        with FingerprintStore(tmp_path) as filler:
            for spec in campaign_store_specs():
                filler.put(spec, make_result(spec))
            filler.write_index()

        config = SystemConfig() if fresh_config else DEFAULT_CONFIG
        specs = campaign_store_specs(config)  # freshly built, nothing memoised
        encoded: dict[int, int] = {}
        real_asdict = dataclasses.asdict

        def spy_asdict(obj, *args, **kwargs):
            if isinstance(obj, SystemConfig):
                encoded[id(obj)] = encoded.get(id(obj), 0) + 1
            return real_asdict(obj, *args, **kwargs)

        writes: list[str] = []
        real_write = store_mod.atomic_write_text

        def spy_write(path, text):
            writes.append(path.parent.name if path.parent != tmp_path
                          else path.name)
            return real_write(path, text)

        monkeypatch.setattr(dataclasses, "asdict", spy_asdict)
        monkeypatch.setattr(store_mod, "atomic_write_text", spy_write)
        report = run_campaign(specs, FingerprintStore(tmp_path))
        monkeypatch.undo()

        assert (report.hits, report.misses) == (len(specs), 0)
        assert all(n <= 1 for n in encoded.values()), encoded
        if fresh_config:
            assert encoded == {id(config): 1}
        assert sorted(writes) == ["index.json", "manifests"]


class TestStoreFormat:
    def _indent_like_old_stores(self, path):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1,
                                   sort_keys=True))

    def test_indented_metadata_still_loads(self, tmp_path, monkeypatch):
        specs = campaign_store_specs()[:24]
        with FingerprintStore(tmp_path) as writer:
            for spec in specs:
                writer.put(spec, make_result(spec))
            index = writer.write_index()
            manifest = writer.write_manifest("old", specs + specs[:3])
        for path in (index, manifest):
            assert "\n" not in path.read_text()  # compact single line
            self._indent_like_old_stores(path)

        found: list[int] = []
        real_refresh = FingerprintStore.refresh

        def spy_refresh(self):
            found.append(real_refresh(self))
            return found[-1]

        monkeypatch.setattr(FingerprintStore, "refresh", spy_refresh)
        reader = FingerprintStore(tmp_path)
        assert found == [0]  # the index snapshot covered every record
        assert reader.fingerprints() == frozenset(dedup_specs(specs))
        assert reader.manifest_specs("old") == list(dedup_specs(specs).values())

    def test_record_lines_match_scratch_encoding(self, tmp_path):
        specs = campaign_store_specs()[::9] + [
            RunSpec("millipede", "count", config=c, n_records=512)
            for c in CONFIGS.values()]
        with FingerprintStore(tmp_path) as store:
            for spec in specs:
                store.put(spec, make_result(spec))
            segment = store.log_dir / store.segments()[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(specs)
        for spec, line in zip(specs, lines):
            rec = {"schema": store_mod.SCHEMA,
                   "fingerprint": scratch_hash(spec),
                   "spec": scratch_dict(spec),
                   "result": result_to_payload(make_result(spec))}
            assert line == (json.dumps(rec, sort_keys=True) + "\n").encode()
