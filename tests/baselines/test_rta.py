import numpy as np
import pytest

from repro.baselines.rta import ReverseTopK, RTAEvaluator
from repro.core.cost import euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.mincost import min_cost_iq
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.solvers import get_solver
from repro.core.subdomain import SubdomainIndex
from repro.topk.evaluate import top_k


@pytest.fixture
def world(rng):
    dataset = Dataset(rng.random((20, 3)))
    queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
    index = SubdomainIndex(dataset, queries)
    return dataset, queries, index


class TestReverseTopK:
    def test_counts_match_brute_force(self, world, rng):
        dataset, queries, __ = world
        rta = ReverseTopK(dataset.matrix, queries)
        for target in range(0, 20, 4):
            point = dataset.matrix[target]
            expected = 0
            for j in range(queries.m):
                weights, k = queries.query(j)
                if target in top_k(dataset.matrix, weights, k):
                    expected += 1
            assert rta.count_hits(point, exclude=target) == expected

    def test_moved_point_counts(self, world, rng):
        dataset, queries, index = world
        rta = ReverseTopK(dataset.matrix, queries)
        ese = StrategyEvaluator(index)
        target = 3
        for __ in range(10):
            position = dataset.matrix[target] + rng.normal(scale=0.3, size=3)
            assert rta.count_hits(position, exclude=target) == ese.hits(target, position)

    def test_pruning_happens(self, world):
        dataset, queries, __ = world
        rta = ReverseTopK(dataset.matrix, queries)
        # A hopeless point far above everything: most queries get pruned.
        rta.count_hits(np.full(3, 100.0), exclude=0)
        assert rta.pruned_queries > 0
        assert rta.evaluated_queries < queries.m

    def test_no_exclusion(self, world):
        dataset, queries, __ = world
        rta = ReverseTopK(dataset.matrix, queries)
        # Counting an existing object without exclusion treats the point
        # as an additional candidate; it can only do worse than with the
        # duplicate removed.
        with_dup = rta.count_hits(dataset.matrix[0])
        without = rta.count_hits(dataset.matrix[0], exclude=0)
        assert with_dup <= without


class TestRTAEvaluator:
    def test_hits_match_ese(self, world):
        __, __, index = world
        rta = RTAEvaluator(index)
        ese = StrategyEvaluator(index)
        for target in range(0, 20, 5):
            assert rta.hits(target) == ese.hits(target)

    def test_evaluate_many_matches(self, world, rng):
        dataset, __, index = world
        rta = RTAEvaluator(index)
        ese = StrategyEvaluator(index)
        positions = dataset.matrix[2] + rng.normal(scale=0.2, size=(6, 3))
        assert rta.evaluate_many(2, positions).tolist() == ese.evaluate_many(2, positions).tolist()


class TestRTAIQ:
    def test_same_strategy_as_efficient(self, world):
        """The paper: RTA-IQ and Efficient-IQ share the search, so the
        found strategies (and quality) are identical."""
        __, __, index = world
        cost = euclidean_cost(3)
        efficient = min_cost_iq(StrategyEvaluator(index), 1, 12, cost)
        rta = get_solver("rta").min_cost(RTAEvaluator(index), 1, 12, cost)
        assert rta.satisfied == efficient.satisfied
        assert rta.total_cost == pytest.approx(efficient.total_cost)
        assert np.allclose(rta.strategy.vector, efficient.strategy.vector)
