"""Parity of batched vs per-query candidate generation (§5.1 step 1).

``generate_candidates(method="auto")`` must return exactly the same
candidate set — ids, vectors, costs, hits — as the per-query
``min_cost_to_hit`` loop, across plain and weighted L2, L1, asymmetric
and L-infinity costs, free and in bounded strategy boxes.
"""

import numpy as np
import pytest

from repro.constants import DEFAULT_MARGIN
from repro.core._search import SearchState, generate_candidates
from repro.core.cost import AsymmetricLinearCost, L1Cost, L2Cost, LInfCost, euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.errors import ValidationError
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch


def setup(rng, n=20, m=40, d=3):
    dataset = Dataset(rng.random((n, d)))
    queries = QuerySet(rng.random((m, d)), ks=rng.integers(1, 5, m))
    evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
    state = SearchState(
        target=0,
        base=dataset.matrix[0].copy(),
        applied=np.zeros(d),
        spent=0.0,
        mask=evaluator.hits_mask(0),
    )
    return evaluator, state


def assert_batches_equal(a, b):
    assert np.array_equal(a.query_ids, b.query_ids)
    assert np.allclose(a.vectors, b.vectors, atol=1e-9)
    assert np.allclose(a.costs, b.costs, atol=1e-9)
    assert np.array_equal(a.hits, b.hits)


class TestLoopBatchParity:
    def test_plain_l2_unbounded(self, rng):
        evaluator, state = setup(rng)
        cost = euclidean_cost(3)
        space = StrategySpace.unconstrained(3)
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert loop.size > 0
        assert_batches_equal(loop, auto)

    def test_weighted_l2_unbounded(self, rng):
        evaluator, state = setup(rng)
        cost = L2Cost(3, weights=np.array([1.0, 4.0, 0.25]))
        space = StrategySpace.unconstrained(3)
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert loop.size > 0
        assert_batches_equal(loop, auto)

    def test_weighted_l2_bounded_box(self, rng):
        evaluator, state = setup(rng)
        cost = L2Cost(3, weights=np.array([2.0, 1.0, 3.0]))
        # Tight enough that some closed-form optima fall outside and take
        # the clipped ray, loose enough that some stay in.
        space = StrategySpace(3, lower=np.full(3, -0.05), upper=np.full(3, 0.05))
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert_batches_equal(loop, auto)

    def test_l1_cost_unbounded(self, rng):
        evaluator, state = setup(rng, n=10, m=15)
        cost = L1Cost(3)
        space = StrategySpace.unconstrained(3)
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert loop.size > 0
        assert_batches_equal(loop, auto)

    @pytest.mark.parametrize(
        "cost",
        [
            L1Cost(3, weights=np.array([1.0, 2.0, 0.5])),
            AsymmetricLinearCost(3, up=np.array([1.0, 3.0, 0.5]), down=np.array([2.0, 0.5, 1.0])),
            LInfCost(3, weights=np.array([1.0, 2.0, 0.5])),
        ],
        ids=["l1", "asymmetric", "linf"],
    )
    def test_linear_and_linf_costs_in_a_box(self, rng, cost):
        evaluator, state = setup(rng)
        # One frozen attribute and a box tight enough that some rows
        # cannot be hit at all.
        space = StrategySpace(
            3, lower=np.array([-0.05, 0.0, -0.2]), upper=np.array([0.1, 0.0, 0.02])
        )
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert loop.size > 0
        assert loop.size < int((~state.mask).sum())
        assert_batches_equal(loop, auto)

    def test_linf_cost_unbounded(self, rng):
        evaluator, state = setup(rng)
        cost = LInfCost(3)
        space = StrategySpace.unconstrained(3)
        loop = generate_candidates(evaluator, state, cost, space, method="loop")
        auto = generate_candidates(evaluator, state, cost, space, method="auto")
        assert loop.size > 0
        assert_batches_equal(loop, auto)

    def test_unknown_method_rejected(self, rng):
        evaluator, state = setup(rng, n=6, m=8)
        with pytest.raises(ValidationError):
            generate_candidates(
                evaluator, state, euclidean_cost(3), StrategySpace.unconstrained(3),
                method="warp",
            )


class TestBatchClosedForm:
    def test_matches_scalar_solver(self, rng):
        cost = L2Cost(3, weights=np.array([1.0, 2.0, 0.5]))
        space = StrategySpace.unconstrained(3)
        weights_rows = rng.random((25, 3))
        gaps = rng.normal(scale=0.5, size=25)
        vectors, costs, feasible = min_cost_to_hit_batch(cost, weights_rows, gaps, space=space)
        assert feasible.all()
        for row in range(25):
            scalar = min_cost_to_hit(cost, weights_rows[row], float(gaps[row]), space=space)
            assert np.array_equal(vectors[row], scalar.vector)
            assert costs[row] == scalar.cost

    def test_zero_weight_rows_flagged_infeasible(self):
        cost = euclidean_cost(2)
        space = StrategySpace.unconstrained(2)
        weights_rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        gaps = np.array([-0.5, -0.5])  # both need a real move
        vectors, costs, feasible = min_cost_to_hit_batch(cost, weights_rows, gaps, space=space)
        assert feasible.tolist() == [False, True]
        assert np.array_equal(vectors[0], [0.0, 0.0]) and costs[0] == 0.0

    def test_already_hitting_rows_are_free(self):
        cost = euclidean_cost(2)
        space = StrategySpace.unconstrained(2)
        weights_rows = np.array([[1.0, 1.0]])
        gaps = np.array([1.0])  # gap > margin: already inside the top-k
        vectors, costs, feasible = min_cost_to_hit_batch(cost, weights_rows, gaps, space=space)
        assert feasible.all()
        assert np.allclose(vectors, 0.0) and costs[0] == 0.0

    def test_box_active_row_solved_exactly_and_unreachable_row_infeasible(self):
        cost = euclidean_cost(2)
        space = StrategySpace(2, lower=np.array([-0.002, -1.0]), upper=np.zeros(2))
        weights_rows = np.array([[1.0, 1.0], [1.0, 1.0]])
        # The free optimum of row 0 moves both attributes by -0.005, past
        # the first one's bound; row 1 needs more than the box holds.
        gaps = np.array([-0.01, -5.0])
        vectors, costs, feasible = min_cost_to_hit_batch(cost, weights_rows, gaps, space=space)
        assert feasible.tolist() == [True, False]
        bound = -0.01 - DEFAULT_MARGIN
        expected = np.array([-0.002, bound + 0.002])
        assert np.allclose(vectors[0], expected, rtol=0.0, atol=1e-15)
        assert costs[0] == pytest.approx(np.hypot(*expected), rel=1e-12)
        assert space.contains(vectors[0], tol=0.0)
        assert np.array_equal(vectors[1], [0.0, 0.0]) and costs[1] == 0.0
