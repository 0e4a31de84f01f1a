"""Property-based tests for the core invariants the paper relies on."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.check.differential import brute_force_hits
from repro.core.cost import L1Cost, L2Cost, euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.mincost import min_cost_iq
from repro.core.maxhit import max_hit_iq
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex, _beats_batch
from repro.errors import InfeasibleError
from repro.optimize.hit_cost import min_cost_to_hit
from repro.topk.evaluate import top_k

# Grid-quantized values: every score difference is either exactly zero
# (handled by the documented tie rules) or at least 1/1024, far above
# the index's boundary tolerance.  Continuous adversarial inputs within
# ~1e-12 of a hyperplane are outside the library's contract (see the
# ties note in repro/core/subdomain.py).
unit = st.integers(0, 32).map(lambda i: i / 32.0)


def small_world(draw, st_module):
    n = draw(st_module.integers(4, 12))
    m = draw(st_module.integers(3, 10))
    d = draw(st_module.integers(2, 3))
    objects = draw(
        arrays(np.float64, (n, d), elements=unit, unique=False)
    )
    queries = draw(arrays(np.float64, (m, d), elements=unit))
    ks = draw(arrays(np.int64, (m,), elements=st_module.integers(1, 3)))
    return objects, queries, ks


@st.composite
def worlds(draw):
    return small_world(draw, st)


class TestSubdomainInvariant:
    """Paper §3.2: rankings are constant within a subdomain."""

    @given(world=worlds())
    @settings(max_examples=30, deadline=None)
    def test_shared_ranking_per_cell(self, world):
        objects, queries, ks = world
        dataset = Dataset(objects)
        query_set = QuerySet(queries, ks)
        index = SubdomainIndex(dataset, query_set)
        for members in index.cell_members():
            rankings = {
                tuple(top_k(dataset.matrix, queries[q], objects.shape[0]))
                for q in members
            }
            assert len(rankings) == 1

    @given(world=worlds())
    @settings(max_examples=30, deadline=None)
    def test_hits_equal_brute_force(self, world):
        objects, queries, ks = world
        dataset = Dataset(objects)
        query_set = QuerySet(queries, ks)
        index = SubdomainIndex(dataset, query_set)
        for target in range(objects.shape[0]):
            expected = sum(
                1
                for j in range(queries.shape[0])
                if target in top_k(objects, queries[j], int(ks[j]))
            )
            assert index.hits(target) == expected


class TestESEInvariant:
    """Fact 1: ESE's H equals full re-evaluation for ANY strategy."""

    @given(
        world=worlds(),
        strategy=arrays(
            np.float64,
            (3,),
            elements=st.floats(-1.0, 1.0, allow_nan=False, width=32),
        ),
    )
    @example(
        # A denormal move of a target tied with every object: its score
        # lies inside Eq. 6's tie band, where the id tie-break hits all
        # three queries although the strict top-k holds it in none.
        world=(
            np.zeros((4, 2)),
            np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]),
            np.array([1, 2, 3]),
        ),
        strategy=np.array([np.float32(2.55e-40), 0.0, 0.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_evaluate_equals_brute_force(self, world, strategy):
        # The strategy is not on the grid, so the moved target can score
        # within the tie band of its k-th other object; there the rule
        # is Eq. 6 with the id tie-break, as `repro check` compares it.
        objects, queries, ks = world
        strategy = strategy[: objects.shape[1]]
        dataset = Dataset(objects)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, QuerySet(queries, ks)))
        target = 0
        moved = objects.copy()
        moved[target] = moved[target] + strategy
        exact, ambiguous = brute_force_hits(moved, queries, ks, target)
        mask = evaluator.hits_mask(target, moved[target])
        assert np.array_equal(mask[~ambiguous], exact[~ambiguous])
        ids = np.arange(moved.shape[0])
        for j in np.flatnonzero(ambiguous):
            scores = moved @ queries[j]
            order = np.lexsort((ids, scores))
            kth = order[order != target][ks[j] - 1]
            reference = _beats_batch(scores[[target], None], scores[[kth]], target, np.array([kth]))
            assert mask[j] == reference[0, 0]
        assert evaluator.evaluate(target, strategy) == int(mask.sum())


class TestHitCostProperties:
    @given(
        q=arrays(np.float64, (3,), elements=st.floats(0.015625, 1.0, width=32)),
        gap=st.floats(-2.0, -0.015625, width=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_l2_solution_feasible_and_matches_formula(self, q, gap):
        s = min_cost_to_hit(L2Cost(3), q, gap)
        assert float(q @ s.vector) <= gap
        # Closed form: |gap| / ||q|| (up to the strictness margin).
        assert s.cost <= abs(gap) / np.linalg.norm(q) + 1e-4

    @given(
        q=arrays(np.float64, (3,), elements=st.floats(0.015625, 1.0, width=32)),
        gap=st.floats(-2.0, -0.015625, width=32),
        probe=arrays(np.float64, (3,), elements=st.floats(-3.0, 3.0, width=32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_l2_optimality_vs_random_feasible_points(self, q, gap, probe):
        """No feasible probe may be cheaper than the claimed optimum."""
        s = min_cost_to_hit(L2Cost(3), q, gap)
        if float(q @ probe) <= gap:  # probe is feasible
            assert L2Cost(3)(probe) >= s.cost - 1e-6

    @given(
        q=arrays(np.float64, (2,), elements=st.floats(0.015625, 1.0, width=32)),
        gap=st.floats(-2.0, -0.015625, width=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_l1_never_cheaper_than_l2(self, q, gap):
        l1 = min_cost_to_hit(L1Cost(2), q, gap)
        l2 = min_cost_to_hit(L2Cost(2), q, gap)
        assert l1.cost >= l2.cost - 1e-6


class TestSearchInvariants:
    @given(world=worlds(), tau=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_min_cost_result_is_self_consistent(self, world, tau):
        objects, queries, ks = world
        tau = min(tau, queries.shape[0])
        dataset = Dataset(objects)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, QuerySet(queries, ks)))
        try:
            result = min_cost_iq(evaluator, 0, tau, euclidean_cost(objects.shape[1]))
        except InfeasibleError:
            return
        # Reported hits must match an independent evaluation, and the
        # satisfied flag must be truthful.
        assert result.hits_after == evaluator.evaluate(0, result.strategy.vector)
        assert result.satisfied == (result.hits_after >= tau)
        assert result.total_cost >= 0

    @given(world=worlds(), budget=st.floats(0.0, 2.0, width=32))
    @settings(max_examples=20, deadline=None)
    def test_max_hit_never_overspends_or_regresses(self, world, budget):
        objects, queries, ks = world
        dataset = Dataset(objects)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, QuerySet(queries, ks)))
        result = max_hit_iq(evaluator, 0, budget, euclidean_cost(objects.shape[1]))
        assert result.total_cost <= budget + 1e-9
        assert result.hits_after >= result.hits_before
        assert result.hits_after == evaluator.evaluate(0, result.strategy.vector)
