"""Worker-count resolution and the start method."""

import os

import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import ValidationError
from repro.parallel import PersistentPool, pool_start_method, resolve_workers


def ceiling():
    """The clamp resolve_workers applies: cpu_count, never below 2."""
    return max(2, os.cpu_count() or 1)


class TestResolveWorkers:
    def test_defaults_to_serial(self, monkeypatch, small_market):
        # Only an explicit argument sizes a pool: the variable that once
        # set an ambient default is ignored.
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 0
        objects, queries, ks = small_market
        engine = ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))
        with PersistentPool(engine) as pool:
            assert pool.workers == 0

    def test_explicit_argument_wins(self):
        assert resolve_workers(3) == min(3, ceiling())
        assert resolve_workers(0) == 0

    def test_serial_counts_pass_through_unclamped(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1

    def test_oversized_request_clamped_to_cpu_ceiling(self):
        assert resolve_workers(10_000) == ceiling()

    def test_two_workers_always_allowed(self):
        # The clamp floor: explicit parallelism exercises the pool even
        # on a single-core host.
        assert resolve_workers(2) == 2

    def test_auto_means_all_cores(self):
        cpus = os.cpu_count() or 1
        expected = cpus if cpus >= 2 else 0
        assert resolve_workers("auto") == expected

    def test_string_integers_accepted(self):
        assert resolve_workers("0") == 0
        assert resolve_workers("2") == 2

    def test_bad_string_argument_rejected(self):
        with pytest.raises(ValidationError, match="auto"):
            resolve_workers("many")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            resolve_workers(-1)


class TestPoolStartMethod:
    def test_is_a_known_method(self):
        assert pool_start_method() in ("fork", "forkserver", "spawn")
