"""The persisted stats store: recording, medians, caps, persistence."""

import json
from dataclasses import dataclass

import pytest

from repro.observe import StatsStore, configure_store, default_store
from repro.observe.store import MAX_SAMPLES, STATS_SCHEMA


@dataclass
class FakeExecuted:
    """The duck-typed executed-plan surface ``record`` consumes."""

    fingerprint: str = "kind=min_cost|mode=exact|sense=min|d=3|n=32|m=32"
    solver_name: str = "efficient"
    total_seconds: float = 0.002
    evaluations: int = 19
    kernel_backend: str = "python"
    workers: int = 0
    shards: int = 0


class TestRecording:
    def test_record_and_read_back(self):
        store = StatsStore(None)
        store.record(FakeExecuted())
        samples = store.samples(FakeExecuted.fingerprint)
        assert list(samples) == ["efficient"]
        assert samples["efficient"][0]["seconds"] == 0.002
        assert samples["efficient"][0]["kernel"] == "python"

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


class TestMedians:
    def test_knob_medians_group_across_methods(self):
        store = StatsStore(None)
        for seconds in (0.03, 0.01, 0.02):
            store.record(FakeExecuted(kernel_backend="python", total_seconds=seconds))
        store.record(
            FakeExecuted(
                solver_name="rta", kernel_backend="native", total_seconds=0.001
            )
        )
        ranked = store.knob_medians(FakeExecuted.fingerprint, "kernel")
        assert [value for value, _, _ in ranked] == ["native", "python"]
        assert ranked[1][1] == 0.02  # median of the three python samples
        assert ranked[1][2] == 3

    def test_unknown_fingerprint_is_empty(self):
        store = StatsStore(None)
        assert store.samples("nope") == {}
        assert store.knob_medians("nope", "kernel") == []


class TestPersistence:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatsStore(path)
        store.record(FakeExecuted())
        reloaded = StatsStore(path)
        fingerprint = FakeExecuted.fingerprint
        assert reloaded.samples(fingerprint) == store.samples(fingerprint)
        assert reloaded.knob_medians(fingerprint, "kernel") == store.knob_medians(
            fingerprint, "kernel"
        )

    def test_foreign_schema_ignored(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({"schema": "other/9", "workloads": {"x": {}}}))
        store = StatsStore(path)
        assert store.fingerprints() == []

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
