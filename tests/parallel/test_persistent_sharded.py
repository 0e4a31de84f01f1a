"""Scoped refresh: a sharded pool re-shares only the mutated shard's segments."""

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.parallel import IQRequest, PersistentPool, run_batch


SHARDS = 3


@pytest.fixture
def sharded_engine(small_market):
    objects, queries, ks = small_market
    return ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks), shards=SHARDS)


def requests_for(engine, count=5):
    targets = range(min(count, engine.dataset.n))
    return [IQRequest("min_cost", t, 5.0) for t in targets] + [
        IQRequest("max_hit", t, 0.8) for t in targets
    ]


def assert_results_match(serial, pooled):
    assert len(serial) == len(pooled)
    for ours, theirs in zip(serial, pooled):
        assert ours.hits_after == theirs.hits_after
        assert ours.total_cost == theirs.total_cost
        assert np.array_equal(ours.strategy.vector, theirs.strategy.vector)


class TestShardedPool:
    def test_sharded_pool_matches_serial_reference(self, sharded_engine):
        batch = requests_for(sharded_engine)
        serial = run_batch(sharded_engine, batch, workers=0)
        with PersistentPool(sharded_engine, workers=2) as pool:
            assert_results_match(serial, pool.run(batch))

    def test_routed_insert_reshares_only_the_owning_shard(self, sharded_engine):
        batch = requests_for(sharded_engine, count=3)
        with PersistentPool(sharded_engine, workers=2) as pool:
            pool.run(batch)
            assert pool.partial_refreshes == 0
            sharded_engine.add_query(np.array([0.5, 0.3, 0.2]), 2)
            pooled = pool.run(batch)
            assert pool.partial_refreshes == 1
            assert pool.shards_reshared == 1  # only the owner's group moved
        serial = run_batch(sharded_engine, batch, workers=0)
        assert_results_match(serial, pooled)

    def test_object_mutation_fans_out_to_every_shard(self, sharded_engine):
        batch = requests_for(sharded_engine, count=3)
        with PersistentPool(sharded_engine, workers=2) as pool:
            pool.run(batch)
            sharded_engine.add_object(np.array([0.4, 0.5, 0.6]))
            pooled = pool.run(batch)
            # every shard's epoch moved, so every shard group re-exports
            assert pool.shards_reshared == SHARDS
        serial = run_batch(sharded_engine, batch, workers=0)
        assert_results_match(serial, pooled)

    def test_monolithic_pool_never_counts_partial_refreshes(self, small_market):
        objects, queries, ks = small_market
        engine = ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))
        batch = requests_for(engine, count=3)
        with PersistentPool(engine, workers=2) as pool:
            pool.run(batch)
            engine.add_query(np.array([0.5, 0.3, 0.2]), 2)
            pool.run(batch)
            # the single global+shard:0 pair is fully stale — nothing kept
            assert pool.partial_refreshes == 0
