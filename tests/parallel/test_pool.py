"""Worker-count resolution, the start method and chunked dispatch."""

import os

import pytest

from repro.errors import ValidationError
from repro.parallel import pool_start_method, resolve_workers
from repro.parallel.persistent import chunk_bounds


def ceiling():
    """The clamp resolve_workers applies: cpu_count, never below 2."""
    return max(2, os.cpu_count() or 1)


class TestResolveWorkers:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == min(3, ceiling())
        assert resolve_workers(0) == 0

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == min(5, ceiling())

    def test_serial_counts_pass_through_unclamped(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1

    def test_oversized_request_clamped_to_cpu_ceiling(self):
        assert resolve_workers(10_000) == ceiling()

    def test_two_workers_always_allowed(self):
        # The clamp floor: explicit parallelism exercises the pool even
        # on a single-core host.
        assert resolve_workers(2) == 2

    def test_auto_means_all_cores(self, monkeypatch):
        cpus = os.cpu_count() or 1
        expected = cpus if cpus >= 2 else 0
        assert resolve_workers("auto") == expected
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers(None) == expected

    def test_string_integers_accepted(self):
        assert resolve_workers("0") == 0
        assert resolve_workers("2") == 2

    def test_bad_string_argument_rejected(self):
        with pytest.raises(ValidationError, match="auto"):
            resolve_workers("many")

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(ValidationError):
            resolve_workers(-1)

    def test_bad_environment_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValidationError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_negative_environment_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValidationError):
            resolve_workers(None)


class TestPoolStartMethod:
    def test_is_a_known_method(self):
        assert pool_start_method() in ("fork", "forkserver", "spawn")


class TestChunkBounds:
    def test_covers_range_contiguously(self):
        bounds = list(chunk_bounds(10, 3))
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (__, stop), (start, __) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_more_chunks_than_items(self):
        bounds = list(chunk_bounds(2, 5))
        assert all(stop > start for start, stop in bounds)
        assert bounds[-1][1] == 2

    def test_empty_total(self):
        assert list(chunk_bounds(0, 4)) == []

    def test_nonpositive_chunk_count_rejected(self):
        with pytest.raises(ValidationError):
            list(chunk_bounds(5, 0))
