"""The persistent pool must reproduce the serial reference exactly —
across batches, across index mutations, and across worker crashes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import ReproError, ValidationError
from repro.parallel import IQRequest, PersistentPool, pool_start_method, run_batch


@pytest.fixture
def engine(small_market):
    objects, queries, ks = small_market
    return ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))


def requests_for(engine, count=6):
    targets = range(min(count, engine.dataset.n))
    return [IQRequest("min_cost", t, 5.0) for t in targets] + [
        IQRequest("max_hit", t, 0.8) for t in targets
    ]


def assert_results_match(serial, pooled):
    assert len(serial) == len(pooled)
    for ours, theirs in zip(serial, pooled):
        assert ours.target == theirs.target
        assert ours.hits_before == theirs.hits_before
        assert ours.hits_after == theirs.hits_after
        assert ours.total_cost == theirs.total_cost  # byte-identical, not approx
        assert ours.satisfied == theirs.satisfied
        assert np.array_equal(ours.strategy.vector, theirs.strategy.vector)


class TestParity:
    def test_pooled_matches_serial_reference(self, engine):
        batch = requests_for(engine)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            assert_results_match(serial, pool.run(batch))

    def test_serial_mode_pool_matches_reference(self, engine):
        batch = requests_for(engine)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=0) as pool:
            assert pool.workers == 0
            assert_results_match(serial, pool.run(batch))

    def test_repeated_batches_stay_consistent(self, engine):
        batch = requests_for(engine, count=3)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            first = pool.run(batch)
            second = pool.run(batch)
        assert_results_match(serial, first)
        assert_results_match(first, second)
        assert pool.generation == 1  # no refresh between clean batches

    def test_run_batch_delegates_to_pool(self, engine):
        batch = requests_for(engine, count=3)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            assert_results_match(serial, run_batch(engine, batch, pool=pool))

    def test_run_batch_rejects_foreign_pool(self, engine, small_market):
        objects, queries, ks = small_market
        other = ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))
        with PersistentPool(other, workers=0) as pool:
            with pytest.raises(ValidationError, match="different engine"):
                run_batch(engine, requests_for(engine, count=2), pool=pool)

    def test_engine_pool_factory(self, engine):
        with engine.pool(workers=2) as pool:
            assert pool.engine is engine
            assert pool.workers == 2

    def test_pool_start_builds_the_prefix_table(self, engine):
        # Workers inherit the table kth_other reads, ranked before forking.
        index = engine.index
        assert (index.prefix_lengths == -1).all()
        with PersistentPool(engine, workers=0):
            assert (index.prefix_lengths > 0).all()
            assert index.representative_evaluations == index.num_subdomains


class TestErrors:
    def test_bad_request_surfaces_and_pool_survives(self, engine):
        good = requests_for(engine, count=2)
        poisoned = good[:2] + [IQRequest("min_cost", 10_000, 5.0)] + good[2:]
        with PersistentPool(engine, workers=2) as pool:
            with pytest.raises(ReproError):
                pool.run(poisoned)
            # The worker that hit the error kept running; the pool is
            # still the same fork generation and still serves.
            assert pool.generation == 1
            assert_results_match(run_batch(engine, good), pool.run(good))

    def test_run_outcomes_isolates_failures(self, engine):
        batch = [
            IQRequest("min_cost", 0, 5.0),
            IQRequest("min_cost", 10_000, 5.0),  # out of range
            IQRequest("max_hit", 1, 0.8),
        ]
        with PersistentPool(engine, workers=2) as pool:
            outcomes = pool.run_outcomes(batch)
        assert [ok for ok, __ in outcomes] == [True, False, True]
        assert isinstance(outcomes[1][1], Exception)

    def test_unknown_kind_rejected_before_dispatch(self, engine):
        with PersistentPool(engine, workers=0) as pool:
            with pytest.raises(ValidationError, match="kind"):
                pool.run([IQRequest("median", 0, 5.0)])

    def test_unknown_method_rejected_before_dispatch(self, engine):
        with PersistentPool(engine, workers=0) as pool:
            with pytest.raises(ValidationError):
                pool.run([IQRequest("min_cost", 0, 5.0, method="quantum")])

    def test_not_reentrant(self, engine):
        with PersistentPool(engine, workers=0) as pool:
            acquired = pool._lock.acquire(blocking=False)
            assert acquired
            try:
                with pytest.raises(ReproError, match="reentrant"):
                    pool.run(requests_for(engine, count=2))
            finally:
                pool._lock.release()


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, engine):
        pool = PersistentPool(engine, workers=2)
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ReproError, match="closed"):
            pool.run(requests_for(engine, count=2))
        with pytest.raises(ReproError, match="closed"):
            pool.refresh()

    def test_context_manager_closes(self, engine):
        with PersistentPool(engine, workers=0) as pool:
            pass
        assert pool.closed

    def test_empty_batch(self, engine):
        with PersistentPool(engine, workers=2) as pool:
            assert pool.run([]) == []

    def test_manual_refresh_bumps_generation(self, engine):
        batch = requests_for(engine, count=2)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            pool.refresh()
            assert pool.generation == 2
            assert_results_match(serial, pool.run(batch))


class TestEpoch:
    def test_mutation_marks_pool_stale(self, engine):
        with PersistentPool(engine, workers=2) as pool:
            assert not pool.stale
            engine.add_query(np.full(engine.dataset.dim, 0.5), 2)
            assert pool.stale

    def test_stale_pool_refreshes_and_serves_fresh_answers(self, engine):
        batch = requests_for(engine, count=3)
        with PersistentPool(engine, workers=2) as pool:
            pool.run(batch)
            engine.add_query(np.full(engine.dataset.dim, 0.5), 2)
            serial = run_batch(engine, batch)
            pooled = pool.run(batch)  # must re-fork, not serve stale hits
            assert pool.generation == 2
            assert not pool.stale
            assert_results_match(serial, pooled)

    def test_direct_index_mutation_also_invalidates(self, engine):
        from repro.core import updates

        with PersistentPool(engine, workers=2) as pool:
            updates.remove_object(engine.index, engine.dataset.n - 1)
            assert pool.stale


class TestStartFailure:
    def test_failed_start_unregisters_engine(self, engine, monkeypatch):
        from repro.parallel import persistent as persistent_mod

        def refuse(*args, **kwargs):
            raise RuntimeError("no workers today")

        monkeypatch.setattr(persistent_mod, "ProcessPoolExecutor", refuse)
        with pytest.raises(RuntimeError):
            PersistentPool(engine, workers=2)
        assert engine not in persistent_mod._POOL_ENGINES.values()


class TestCrashRecovery:
    def test_killed_workers_are_replaced(self, engine):
        batch = requests_for(engine, count=3)
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            pool.run(batch)
            for pid in list(pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            pooled = pool.run(batch)  # detects the broken pool, re-forks
            assert pool.restarts == 1
            assert pool.generation == 2
            assert_results_match(serial, pooled)


#: Runs in a fresh interpreter: a pool on a built index, through a
#: batch, a killed worker and an update, recording after each step the
#: ``psm_*`` shared-memory segments and the command line of every child
#: process.
POOL_LIFECYCLE = '''\
import json
import os
import signal
import time
from pathlib import Path

import numpy as np

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.parallel import IQRequest, PersistentPool, run_batch

SHM = Path("/dev/shm")


def segments():
    if not SHM.is_dir():
        return []
    return sorted(p.name for p in SHM.iterdir() if p.name.startswith("psm_"))


def children():
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[1]) != os.getpid():
                continue
            found.append(
                (stat.parent / "cmdline").read_bytes().replace(bytes(1), b" ").decode()
            )
        except (OSError, IndexError, ValueError):
            continue
    return found


def agrees(pooled):
    return all(
        ours.hits_after == theirs.hits_after
        and ours.total_cost == theirs.total_cost
        and np.array_equal(ours.strategy.vector, theirs.strategy.vector)
        for ours, theirs in zip(run_batch(engine, batch), pooled)
    )


rng = np.random.default_rng(5)
engine = ImprovementQueryEngine(
    Dataset(rng.random((30, 3))), QuerySet(rng.random((40, 3)), rng.integers(1, 6, 40))
)
batch = [IQRequest("min_cost", t, 5.0) for t in range(3)] + [
    IQRequest("max_hit", t, 0.8) for t in range(3)
]
before = segments()
steps = []
with PersistentPool(engine, workers=2) as pool:
    same = [agrees(pool.run(batch))]
    steps.append((segments(), children()))
    os.kill(next(iter(pool._executor._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    same.append(agrees(pool.run(batch)))
    steps.append((segments(), children()))
    engine.add_query(np.full(3, 0.5), 2)
    same.append(agrees(pool.run(batch)))
    steps.append((segments(), children()))
    counters = [pool.workers, pool.restarts, pool.generation]
print(json.dumps({"before": before, "steps": steps, "same": same, "counters": counters}))
'''


class TestNoSharedMemory:
    @pytest.mark.skipif(
        not (os.path.isdir("/dev/shm") and os.path.isdir("/proc")),
        reason="needs /dev/shm and /proc",
    )
    def test_pool_creates_no_segment_and_no_resource_tracker(self):
        """Workers read the index from fork-inherited pages: the pool
        creates no shared-memory segment, so nothing can leak, and never
        starts multiprocessing's resource-tracker process."""
        if pool_start_method() != "fork":
            pytest.skip("fork start method unavailable")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", POOL_LIFECYCLE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["counters"] == [2, 1, 3]  # pooled, one crash, one refresh
        assert report["same"] == [True, True, True]
        before = set(report["before"])
        for segments, children in report["steps"]:
            assert set(segments) <= before, sorted(set(segments) - before)
            assert not [c for c in children if "resource_tracker" in c], children
