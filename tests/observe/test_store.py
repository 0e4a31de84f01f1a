"""The persisted stats store: recording, caps, persistence, refusals."""

import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import ValidationError
from repro.observe import StatsStore, configure_store, default_store
from repro.observe import store as store_module
from repro.observe.store import MAX_SAMPLES, STATS_SCHEMA


@dataclass
class FakeExecuted:
    """The duck-typed executed-plan surface ``record`` consumes."""

    fingerprint: str = "kind=min_cost|mode=exact|sense=min|d=3|n=32|m=32"
    solver_name: str = "efficient"
    total_seconds: float = 0.002
    evaluations: int = 19


class TestRecording:
    def test_record_and_read_back(self):
        store = StatsStore(None)
        store.record(FakeExecuted())
        samples = store.samples(FakeExecuted.fingerprint)
        assert list(samples) == ["efficient"]
        assert samples["efficient"][0] == {"seconds": 0.002, "evaluations": 19}

    def test_empty_fingerprint_not_recorded(self):
        store = StatsStore(None)
        store.record(FakeExecuted(fingerprint=""))
        assert store.fingerprints() == []

    def test_sample_cap_keeps_newest(self):
        store = StatsStore(None)
        for i in range(MAX_SAMPLES + 5):
            store.record(FakeExecuted(total_seconds=float(i)))
        samples = store.samples(FakeExecuted.fingerprint)["efficient"]
        assert len(samples) == MAX_SAMPLES
        assert samples[-1]["seconds"] == float(MAX_SAMPLES + 4)
        assert samples[0]["seconds"] == 5.0  # oldest five evicted


    def test_unknown_fingerprint_is_empty(self):
        store = StatsStore(None)
        assert store.samples("nope") == {}
        assert store.fingerprints() == []


class TestPersistence:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatsStore(path)
        store.record(FakeExecuted())
        reloaded = StatsStore(path)
        fingerprint = FakeExecuted.fingerprint
        assert reloaded.samples(fingerprint) == store.samples(fingerprint)
        assert reloaded.fingerprints() == [fingerprint]

    def test_file_from_an_older_version_still_loads(self, tmp_path):
        # Earlier versions recorded the index's shard count in each sample.
        path = tmp_path / "stats.json"
        old = {"seconds": 0.5, "evaluations": 7, "shards": 1}
        fingerprint = FakeExecuted.fingerprint
        path.write_text(json.dumps(
            {"schema": STATS_SCHEMA, "workloads": {fingerprint: {"efficient": [old]}}}
        ))
        store = StatsStore(path)
        assert store.samples(fingerprint) == {"efficient": [old]}
        store.record(FakeExecuted())
        assert StatsStore(path).samples(fingerprint)["efficient"] == [
            old, {"seconds": 0.002, "evaluations": 19},
        ]

    def test_save_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "stats.json"
        StatsStore(path).record(FakeExecuted())
        assert os.listdir(tmp_path) == ["stats.json"]

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "stats.json"
        StatsStore(path).record(FakeExecuted())
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="disk full"):
            StatsStore(path).record(FakeExecuted(total_seconds=9.0))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["stats.json"]

    def test_save_writes_schema_tag(self, tmp_path):
        path = tmp_path / "stats.json"
        StatsStore(path).record(FakeExecuted())
        payload = json.loads(path.read_text())
        assert payload["schema"] == STATS_SCHEMA
        assert FakeExecuted.fingerprint in payload["workloads"]

    def test_memory_store_never_touches_disk(self):
        store = StatsStore(None)
        store.record(FakeExecuted())
        store.save()  # no path: must be a no-op, not an error
        assert store.path is None


class TestDefaultStore:
    def test_configure_store_rebinds_the_default(self, tmp_path):
        original = default_store()
        try:
            bound = configure_store(tmp_path / "s.json")
            assert default_store() is bound
            assert str(bound.path) == str(tmp_path / "s.json")
        finally:
            # Restore a fresh memory-only default for test isolation.
            configure_store(None)
        assert default_store() is not original


#: Files the store did not write: each must be refused, never rewritten.
FOREIGN_FILES = {
    "other_schema": json.dumps({"schema": "repro-bench-regression/1", "records": []}),
    "malformed_json": '{"schema": "repro-stats/1", "workloads": ',
    "top_level_list": "[1, 2, 3]",
    "non_list_samples": json.dumps(
        {"schema": STATS_SCHEMA, "workloads": {"fp": {"efficient": {"seconds": 1}}}}
    ),
    "non_object_sample": json.dumps(
        {"schema": STATS_SCHEMA, "workloads": {"fp": {"efficient": [1]}}}
    ),
}


class TestForeignFiles:
    @pytest.mark.parametrize("case", sorted(FOREIGN_FILES))
    def test_library_refuses_and_leaves_the_file(self, tmp_path, case):
        path = tmp_path / "stats.json"
        path.write_text(FOREIGN_FILES[case])
        before = path.read_bytes()
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            StatsStore(path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("case", sorted(FOREIGN_FILES))
    def test_repro_stats_refuses_and_leaves_the_file(self, tmp_path, monkeypatch, rng, case):
        path = tmp_path / "stats.json"
        path.write_text(FOREIGN_FILES[case])
        before = path.read_bytes()
        monkeypatch.setenv("REPRO_STATS", str(path))
        monkeypatch.setattr(store_module, "_DEFAULT", None)
        engine = ImprovementQueryEngine(
            Dataset(rng.random((12, 3))), QuerySet(rng.random((10, 3)), ks=np.full(10, 2))
        )
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            engine.analyze(0, tau=3)
        assert path.read_bytes() == before
