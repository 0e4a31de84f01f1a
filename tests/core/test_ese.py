import numpy as np
import pytest

from repro.constants import EPS_TIE
from repro.core.ese import StrategyEvaluator, _slab_crossings
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex
from repro.errors import ValidationError
from repro.topk.evaluate import top_k


def brute_force_hits(matrix, queries, target, position=None):
    """Ground truth H: replace the target row and count top-k memberships."""
    matrix = matrix.copy()
    if position is not None:
        matrix[target] = position
    hits = 0
    for j in range(queries.m):
        weights, k = queries.query(j)
        if target in top_k(matrix, weights, k):
            hits += 1
    return hits


@pytest.fixture
def setup(rng):
    dataset = Dataset(rng.random((15, 3)))
    queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
    index = SubdomainIndex(dataset, queries)
    return dataset, queries, index, StrategyEvaluator(index)


class TestHitCounting:
    def test_baseline_hits_match_brute_force(self, setup):
        dataset, queries, __, evaluator = setup
        for target in range(dataset.n):
            assert evaluator.hits(target) == brute_force_hits(
                dataset.matrix, queries, target
            )

    def test_evaluate_strategy_matches_brute_force(self, setup, rng):
        dataset, queries, __, evaluator = setup
        target = 4
        for __ in range(20):
            s = rng.normal(scale=0.3, size=3)
            expected = brute_force_hits(
                dataset.matrix, queries, target, dataset.matrix[target] + s
            )
            assert evaluator.evaluate(target, s) == expected

    def test_evaluate_many_matches_single(self, setup, rng):
        dataset, __, __, evaluator = setup
        target = 7
        positions = dataset.matrix[target] + rng.normal(scale=0.3, size=(12, 3))
        batch = evaluator.evaluate_many(target, positions)
        singles = [evaluator.hits(target, p) for p in positions]
        assert batch.tolist() == singles

    def test_threshold_cache_reused(self, setup):
        __, __, index, evaluator = setup
        evaluator.hits(3)
        evals = index.representative_evaluations
        evaluator.hits(3)
        evaluator.evaluate(3, np.zeros(3))
        assert index.representative_evaluations == evals  # no re-evaluation

    def test_threshold_cache_is_bounded(self, rng):
        dataset = Dataset(rng.random((300, 2)))
        queries = QuerySet(rng.random((20, 2)), ks=rng.integers(1, 5, 20))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        evaluator = StrategyEvaluator(index)
        moved = rng.normal(scale=0.2, size=2)
        answers = [evaluator.evaluate(t, moved) for t in range(300)]
        assert len(evaluator._target_cache) == 256
        assert list(evaluator._target_cache) == list(range(44, 300))  # oldest dropped
        fresh = StrategyEvaluator(index)
        assert answers == [fresh.evaluate(t, moved) for t in range(300)]
        assert [evaluator.evaluate(t, moved) for t in range(300)] == answers

    def test_zero_strategy_is_identity(self, setup):
        __, __, __, evaluator = setup
        assert evaluator.evaluate(2, np.zeros(3)) == evaluator.hits(2)

    def test_position_shape_checked(self, setup):
        __, __, __, evaluator = setup
        with pytest.raises(ValidationError):
            evaluator.hits(0, np.zeros(5))
        with pytest.raises(ValidationError):
            evaluator.evaluate_many(0, np.zeros((2, 5)))


class TestAffectedSubspace:
    """The literal Algorithm 2 path must agree with the vectorized one."""

    def test_affected_evaluation_matches_direct(self, setup, rng):
        dataset, __, __, evaluator = setup
        target = 2
        old = dataset.matrix[target]
        base_mask = evaluator.hits_mask(target)
        for __ in range(10):
            new = old + rng.normal(scale=0.4, size=3)
            hits, mask = evaluator.evaluate_affected(target, old, new, base_mask)
            assert hits == evaluator.hits(target, new)
            assert np.array_equal(mask, evaluator.hits_mask(target, new))

    def test_no_move_affects_nothing(self, setup):
        dataset, __, __, evaluator = setup
        target = 5
        old = dataset.matrix[target]
        affected = evaluator.affected_queries(target, old, old)
        assert affected.size == 0

    def test_affected_set_is_sound(self, setup, rng):
        # Fact 1: any query whose membership changed must be affected.
        dataset, __, __, evaluator = setup
        target = 9
        old = dataset.matrix[target]
        for __ in range(5):
            new = old + rng.normal(scale=0.5, size=3)
            affected = set(evaluator.affected_queries(target, old, new).tolist())
            before = evaluator.hits_mask(target, old)
            after = evaluator.hits_mask(target, new)
            changed = set(np.flatnonzero(before != after).tolist())
            assert changed <= affected

    def test_counters_advance(self, setup, rng):
        dataset, __, __, evaluator = setup
        target = 1
        old = dataset.matrix[target]
        evaluator.evaluate_affected(target, old, old + rng.normal(scale=0.3, size=3))
        assert evaluator.incremental_evaluations == 1


class TestSlabCrossings:
    """The batched slab scan behind :meth:`StrategyEvaluator.affected_queries`."""

    def test_region_change_detected_both_directions(self):
        theta = np.array([1.0, 1.0, 1.0])
        band = EPS_TIE * 1.0
        old = np.array([2 * band, 2 * band, -2 * band])
        new = np.array([-2 * band, 2 * band, 0.0])
        out = _slab_crossings(old, new, theta)
        assert out.dtype == np.bool_
        # sign flip and band entry are crossings; unchanged region is not
        assert out.tolist() == [True, False, True]

    def test_entering_the_band_counts_without_sign_flip(self):
        # The tie-band region (-1/0/+1) is what matters: moving from
        # above the band to inside it flips membership through the id
        # tie-break even though the raw sign never changes.
        theta = np.array([1.0])
        band = EPS_TIE * 1.0
        out = _slab_crossings(np.array([2 * band]), np.array([band / 2]), theta)
        assert out.tolist() == [True]

    def test_empty(self):
        empty = np.empty(0)
        assert _slab_crossings(empty, empty, empty).shape == (0,)
