import numpy as np
import pytest

from repro.core.cost import AsymmetricLinearCost, euclidean_cost
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.strategy import StrategySpace
from repro.errors import ValidationError
from repro.topk.evaluate import top_k


@pytest.fixture
def engine(rng):
    dataset = Dataset(rng.random((18, 3)))
    queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
    return ImprovementQueryEngine(dataset, queries)


class TestConstruction:
    def test_no_construction_workers_argument(self, rng):
        dataset = Dataset(rng.random((6, 3)))
        queries = QuerySet(rng.random((5, 3)), ks=1)
        with pytest.raises(TypeError):
            ImprovementQueryEngine(dataset, queries, workers=2)


class TestReadSide:
    def test_hits_and_reverse_topk_consistent(self, engine):
        for target in range(0, 18, 3):
            hit_ids = engine.reverse_top_k(target)
            assert engine.hits(target) == hit_ids.shape[0]
            for j in hit_ids:
                weights, k = engine.queries.query(int(j))
                assert target in top_k(engine.dataset.matrix, weights, k)


class TestMethodDispatch:
    def test_all_methods_reach_goal(self, engine):
        for method in ("efficient", "rta", "greedy"):
            result = engine.min_cost(0, tau=10, method=method)
            assert result.satisfied, method
            assert result.hits_after >= 10

    def test_efficient_and_rta_same_quality(self, engine):
        """§6.3.2: RTA-IQ shares the search, so strategies coincide."""
        eff = engine.min_cost(2, tau=12, method="efficient")
        rta = engine.min_cost(2, tau=12, method="rta")
        assert eff.total_cost == pytest.approx(rta.total_cost)
        assert np.allclose(eff.strategy.vector, rta.strategy.vector)

    def test_quality_ordering(self, engine):
        """Efficient <= Greedy <= Random in cost-per-hit (paper Fig. 7-12)."""
        eff = engine.min_cost(1, tau=15)
        greedy = engine.min_cost(1, tau=15, method="greedy")
        rand = engine.min_cost(1, tau=15, method="random")
        assert eff.cost_per_hit <= greedy.cost_per_hit + 1e-9
        assert greedy.cost_per_hit <= rand.cost_per_hit * 1.05 + 1e-9

    def test_unknown_method(self, engine):
        with pytest.raises(ValidationError):
            engine.min_cost(0, tau=5, method="quantum")
        with pytest.raises(ValidationError):
            engine.max_hit(0, budget=1.0, method="quantum")

    def test_max_hit_methods(self, engine):
        for method in ("efficient", "rta", "greedy", "random"):
            result = engine.max_hit(3, budget=0.5, method=method)
            assert result.total_cost <= 0.5 + 1e-9


class TestGoalValidation:
    """Bad IQ goals raise ValidationError instead of a wrong answer."""

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 2.7])
    def test_tau_must_be_a_finite_whole_number(self, engine, tau):
        with pytest.raises(ValidationError, match="tau must be a whole number"):
            engine.min_cost(0, tau=tau)
        with pytest.raises(ValidationError, match="tau must be a whole number"):
            engine.explain(0, tau=tau)
        with pytest.raises(ValidationError, match="tau must be a whole number"):
            engine.min_cost_multi([0, 1], tau=tau)

    def test_integral_float_tau_is_accepted(self, engine):
        assert engine.min_cost(0, tau=5.0).hits_after == engine.min_cost(0, tau=5).hits_after

    def test_nan_budget_rejected(self, engine):
        with pytest.raises(ValidationError, match="budget must be a number"):
            engine.max_hit(0, budget=float("nan"))
        with pytest.raises(ValidationError, match="budget must be a number"):
            engine.max_hit_multi([0, 1], budget=float("nan"))

    def test_goal_beyond_float_range_rejected(self, engine):
        huge = 10**400
        with pytest.raises(ValidationError, match="tau is too large"):
            engine.min_cost(0, tau=huge)
        with pytest.raises(ValidationError, match="budget is too large"):
            engine.max_hit(0, budget=huge)
        with pytest.raises(ValidationError, match="tau is too large"):
            engine.explain(0, tau=huge)
        with pytest.raises(ValidationError, match="budget is too large"):
            engine.explain(0, budget=huge)
        with pytest.raises(ValidationError, match="budget is too large"):
            engine.analyze(0, budget=huge)
        with pytest.raises(ValidationError, match="tau is too large"):
            engine.min_cost_multi([0, 1], tau=huge)

    def test_infinite_budget_stays_legal(self, engine):
        result = engine.max_hit(0, budget=float("inf"))
        assert result.hits_after >= result.hits_before

    @pytest.mark.parametrize("tau", ["abc", "5", None, True, [5]])
    def test_non_numeric_tau_rejected(self, engine, tau):
        # A numeric string is refused too: it used to run silently as 5.
        with pytest.raises(ValidationError, match="tau must be a number"):
            engine.min_cost(0, tau=tau)
        with pytest.raises(ValidationError, match="tau must be a number"):
            engine.min_cost_multi([0, 1], tau=tau)
        if tau is not None:
            with pytest.raises(ValidationError, match="tau must be a number"):
                engine.explain(0, tau=tau)
            with pytest.raises(ValidationError, match="tau must be a number"):
                engine.analyze(0, tau=tau)

    @pytest.mark.parametrize("budget", ["abc", "0.5", None, False, [1]])
    def test_non_numeric_budget_rejected(self, engine, budget):
        with pytest.raises(ValidationError, match="budget must be a number"):
            engine.max_hit(0, budget=budget)
        with pytest.raises(ValidationError, match="budget must be a number"):
            engine.max_hit_multi([0, 1], budget=budget)
        if budget is not None:
            with pytest.raises(ValidationError, match="budget must be a number"):
                engine.explain(0, budget=budget)
            with pytest.raises(ValidationError, match="budget must be a number"):
                engine.analyze(0, budget=budget)

    def test_numpy_scalar_goals_are_accepted(self, engine):
        assert (
            engine.min_cost(0, tau=np.int64(5)).hits_after
            == engine.min_cost(0, tau=5).hits_after
        )
        assert (
            engine.max_hit(0, budget=np.float32(0.5)).total_cost
            == engine.max_hit(0, budget=float(np.float32(0.5))).total_cost
        )


class TestMaxSense:
    """The camera example convention: higher utility is better."""

    @pytest.fixture
    def max_engine(self, rng):
        dataset = Dataset(rng.random((15, 3)), sense="max")
        queries = QuerySet(rng.random((25, 3)), ks=rng.integers(1, 4, 25))
        return ImprovementQueryEngine(dataset, queries)

    def test_strategy_increases_utility(self, max_engine):
        target = min(range(15), key=max_engine.hits)
        result = max_engine.min_cost(target, tau=8)
        if result.satisfied and not result.strategy.is_zero():
            # In max-sense, improving means *raising* weighted attribute
            # values: the strategy must increase the target's score on
            # the queries it newly hits.
            new_point = result.improved_point(max_engine.dataset.point(target))
            gained = 0
            for j in range(25):
                weights, __ = max_engine.queries.query(j)
                gained += float(weights @ new_point) > float(
                    weights @ max_engine.dataset.point(target)
                )
            assert gained > 0

    def test_hits_after_verified_externally(self, max_engine):
        target = 4
        result = max_engine.min_cost(target, tau=10)
        improved = max_engine.dataset.improved(target, result.strategy.vector)
        hits = 0
        for j in range(25):
            weights, k = max_engine.queries.query(j)
            if target in top_k(improved.matrix, weights, k):
                hits += 1
        assert hits == result.hits_after

    def test_asymmetric_cost_flipped_correctly(self, rng):
        # In max-sense, "raising attribute 0 is expensive" must stay
        # expensive after internal conversion.
        dataset = Dataset(rng.random((10, 2)), sense="max")
        queries = QuerySet(rng.random((10, 2)), ks=2)
        engine = ImprovementQueryEngine(dataset, queries)
        pricey_up = AsymmetricLinearCost(2, up=[100.0, 100.0], down=[0.01, 0.01])
        cheap_up = AsymmetricLinearCost(2, up=[0.01, 0.01], down=[100.0, 100.0])
        target = min(range(10), key=engine.hits)
        expensive = engine.min_cost(target, tau=5, cost=pricey_up)
        cheap = engine.min_cost(target, tau=5, cost=cheap_up)
        if expensive.satisfied and cheap.satisfied:
            # Improving in max-sense means increasing values, which the
            # first pricing makes costly and the second nearly free.
            assert cheap.total_cost < expensive.total_cost


class TestMaintenance:
    def test_add_remove_query_keeps_consistency(self, engine, rng):
        before = engine.hits(0)
        qid = engine.add_query(rng.random(3), 2)
        engine.index.validate()
        after = engine.hits(0)
        assert after in (before, before + 1)
        engine.remove_query(qid)
        engine.index.validate()
        assert engine.hits(0) == before

    def test_add_remove_object_keeps_consistency(self, engine, rng):
        before = engine.hits(0)
        oid = engine.add_object(rng.random(3))
        engine.index.validate()
        engine.remove_object(oid)
        engine.index.validate()
        assert engine.hits(0) == before

    def test_updates_invalidate_caches(self, engine, rng):
        engine.hits(0)
        assert engine.evaluator._target_cache
        engine.add_query(rng.random(3), 1)
        # Epoch-based invalidation is lazy: the mutation advances the
        # index epoch, and the next read drops the stale cache.
        assert engine.evaluator._epoch != engine.index.epoch
        engine.hits(0)
        assert engine.evaluator._epoch == engine.index.epoch


class TestMultiTargetFacade:
    def test_min_cost_multi(self, engine):
        result = engine.min_cost_multi([0, 9], tau=12)
        assert result.satisfied
        assert result.hits_after >= 12

    def test_max_hit_multi(self, engine):
        result = engine.max_hit_multi([0, 9], budget=0.6)
        assert result.total_cost <= 0.6 + 1e-9

    def test_multi_respects_spaces(self, engine):
        space = StrategySpace(3, lower=np.full(3, -0.01), upper=np.full(3, 0.01))
        result = engine.max_hit_multi([0, 9], budget=2.0, spaces={0: space, 9: space})
        assert space.contains(result.strategies[0].vector)
        assert space.contains(result.strategies[9].vector)

    def test_default_cost_is_euclidean(self, engine):
        result = engine.min_cost(0, tau=5)
        manual = engine.min_cost(0, tau=5, cost=euclidean_cost(3))
        assert result.total_cost == pytest.approx(manual.total_cost)
