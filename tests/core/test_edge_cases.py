"""Edge cases and failure injection across the core modules."""

import numpy as np
import pytest

import repro.core.ese as ese_module
from repro.core.cost import euclidean_cost
from repro.core.engine import ImprovementQueryEngine
from repro.core.ese import StrategyEvaluator
from repro.core.mincost import min_cost_iq
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex
from repro.errors import IndexCorruptionError
from repro.topk.evaluate import top_k


class TestChunkedEvaluation:
    def test_tiny_chunk_budget_same_results(self, rng, monkeypatch):
        """Chunking the candidate batch must not change any count."""
        dataset = Dataset(rng.random((12, 3)))
        queries = QuerySet(rng.random((25, 3)), ks=2)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        positions = dataset.matrix[0] + rng.normal(scale=0.2, size=(9, 3))
        expected = evaluator.evaluate_many(0, positions).tolist()
        monkeypatch.setattr(ese_module, "_CHUNK_BUDGET", 10)  # force many chunks
        fresh = StrategyEvaluator(SubdomainIndex(dataset, queries))
        assert fresh.evaluate_many(0, positions).tolist() == expected


class TestDegenerateWorkloads:
    def test_single_object(self, rng):
        """One object hits every query trivially (k >= 1)."""
        dataset = Dataset(rng.random((1, 2)))
        queries = QuerySet(rng.random((5, 2)), ks=1)
        index = SubdomainIndex(dataset, queries)
        assert index.num_hyperplanes == 0
        assert index.hits(0) == 5

    def test_single_query(self, rng):
        dataset = Dataset(rng.random((10, 2)))
        queries = QuerySet(rng.random((1, 2)), ks=3)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        result = min_cost_iq(evaluator, 0, 1, euclidean_cost(2))
        assert result.satisfied

    def test_all_identical_objects(self, rng):
        """Every object ties everywhere: ranks resolve by id."""
        dataset = Dataset(np.tile(rng.random(2), (6, 1)))
        queries = QuerySet(rng.random((8, 2)), ks=2)
        index = SubdomainIndex(dataset, queries)
        assert index.num_hyperplanes == 0
        assert index.hits(0) == 8 and index.hits(1) == 8
        assert index.hits(2) == 0  # ids 0 and 1 take the two slots

    def test_zero_weight_query(self, rng):
        """An all-zero query scores everything 0; ids break the tie and
        no strategy can change its result."""
        dataset = Dataset(rng.random((5, 2)))
        queries = QuerySet(np.zeros((1, 2)), ks=1)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        assert evaluator.hits(0) == 1  # id 0 wins the tie
        assert evaluator.hits(3) == 0
        result = min_cost_iq(evaluator, 3, 1, euclidean_cost(2))
        assert not result.satisfied  # provably unreachable

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    @pytest.mark.parametrize("extra", [-1, 0, 7], ids=["n-1", "n", "n+7"])
    def test_k_larger_than_n(self, rng, mode, extra):
        n = 3
        k = n + extra
        dataset = Dataset(rng.random((n, 2)))
        queries = QuerySet(rng.random((4, 2)), ks=k)
        index = SubdomainIndex(dataset, queries, mode=mode)
        for t in range(n):
            kth_ids, theta = index.kth_other(t)
            for j in range(queries.m):
                weights, __ = queries.query(j)
                others = [o for o in top_k(dataset.matrix, weights, n) if o != t]
                if k <= len(others):
                    assert kth_ids[j] == others[k - 1]
                    assert theta[j] == pytest.approx(dataset.matrix[others[k - 1]] @ weights)
                else:  # fewer than k other objects: the target is always in
                    assert kth_ids[j] == -1 and theta[j] == np.inf
            expected = sum(
                t in top_k(dataset.matrix, queries.query(j)[0], k) for j in range(queries.m)
            )
            assert index.hits(t) == expected
        if extra >= 0:
            assert all(index.hits(t) == queries.m for t in range(n))


class TestFailureInjection:
    def test_partition_corruption_detected(self, rng):
        index = SubdomainIndex(
            Dataset(rng.random((5, 2))), QuerySet(rng.random((10, 2)), ks=1)
        )
        # Sabotage: a representative moved outside its own cell.
        assert index.num_subdomains > 1
        index.representatives[0] = int(np.flatnonzero(index.subdomain_of == 1)[0])
        with pytest.raises(IndexCorruptionError, match="another cell"):
            index.validate()

    def test_parent_pointer_corruption_detected(self, rng):
        from repro.index.rtree import RTree

        tree = RTree.bulk_load(2, [(p, i) for i, p in enumerate(rng.random((50, 2)))], max_entries=4)
        # Break a parent pointer in the first internal child.
        root = tree._root
        if not root.leaf:
            root.entries[0][1].parent = None
            with pytest.raises(IndexCorruptionError):
                tree.validate()


class TestEngineExhaustiveDispatch:
    def test_exhaustive_method_through_engine(self, rng):
        dataset = Dataset(rng.random((8, 2)))
        queries = QuerySet(rng.random((6, 2)), ks=2)
        engine = ImprovementQueryEngine(dataset, queries)
        exact = engine.min_cost(0, tau=3, method="exhaustive")
        heuristic = engine.min_cost(0, tau=3)
        assert exact.satisfied
        assert exact.total_cost <= heuristic.total_cost + 1e-6
        exact_mh = engine.max_hit(0, budget=0.4, method="exhaustive")
        assert exact_mh.total_cost <= 0.4 + 1e-9
