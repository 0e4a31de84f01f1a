"""Parity of batched vs per-query candidate generation (§5.1 step 1),
and of the bounded candidate selections vs scoring every candidate.

``generate_candidates(method="auto")`` must return exactly the same
candidate set — ids, vectors, costs, hits — as the per-query
``min_cost_to_hit`` loop, across plain and weighted L2, L1, asymmetric
and L-infinity costs, free and in bounded strategy boxes.

Every candidate's hits must stay within its ``hit_bounds``, and
``best_ratio`` and ``cheapest_reaching`` run on those bounds must pick
what they pick with every candidate's count known.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_MARGIN
from repro.core import _search
from repro.core._search import (
    SearchState,
    best_ratio,
    cheapest_reaching,
    generate_candidates,
    hit_bounds,
)
from repro.core.cost import (
    AsymmetricLinearCost,
    CallableCost,
    L1Cost,
    L2Cost,
    LInfCost,
    euclidean_cost,
)
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


COST_KINDS = ("L2", "weighted L2", "L1", "LINF", "asymmetric", "callable")


def make_cost(kind, d, rng):
    prices = rng.uniform(0.5, 2.0, (2, d))
    if kind == "L2":
        return L2Cost(d)
    if kind == "weighted L2":
        return L2Cost(d, prices[0])
    if kind == "L1":
        return L1Cost(d, prices[0])
    if kind == "LINF":
        return LInfCost(d, prices[0])
    if kind == "asymmetric":
        return AsymmetricLinearCost(d, up=prices[0], down=prices[1])
    return CallableCost(d, lambda s: float(np.sum(np.abs(s)) + np.sum(s * s)))


@st.composite
def iterations(draw):
    """A greedy iteration part way into an IQ: evaluator, state, cost, box, budget."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(3, 14))
    m = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.random((n, d))
    weights = rng.random((m, d))
    if draw(st.booleans()):
        # Exact ties: a 0.1 grid, with some objects copies of others.
        points, weights = np.round(points, 1), np.round(weights, 1)
        copies = rng.integers(0, n, n // 3)
        points[rng.integers(0, n, copies.size)] = points[copies]
    mode = draw(st.sampled_from(["exact", "relevant"]))
    index = SubdomainIndex(Dataset(points), QuerySet(weights, ks=rng.integers(1, 4, m)), mode=mode)
    evaluator = StrategyEvaluator(index)
    cost = make_cost(draw(st.sampled_from(COST_KINDS)), d, rng)
    if draw(st.booleans()):
        space = StrategySpace(d, lower=-rng.uniform(0.02, 0.4, d), upper=rng.uniform(0.02, 0.4, d))
        applied = rng.uniform(space.lower, space.upper) / 2
        space = space.shifted(applied)
    else:
        space = StrategySpace.unconstrained(d)
        applied = rng.normal(scale=0.1, size=d)
    target = draw(st.integers(0, n - 1))
    base = index.dataset.matrix[target].copy()
    state = SearchState(target, base, applied, 0.0, evaluator.hits_mask(target, base + applied))
    # A Max-Hit budget that drops some of the candidates, or none.
    share = draw(st.sampled_from([None, 0.25, 0.5, 0.75]))
    max_cost = None
    if share is not None:
        costs = generate_candidates(evaluator, state, cost, space).costs
        max_cost = float(np.quantile(costs, share)) if costs.size else None
    return evaluator, state, cost, space, max_cost


class TestBoundedSelection:
    """The bound never undercounts, and bounded picks are the full-scoring picks."""

    @settings(max_examples=80, deadline=None)
    @given(iterations(), st.integers(1, 8))
    def test_counts_stay_within_bounds_and_picks_match_full_scoring(self, case, tau):
        evaluator, state, cost, space, max_cost = case
        with pytest.MonkeyPatch.context() as patch:
            # Bound every batch and score one candidate first, so that
            # small batches stop early too.
            patch.setattr(_search, "_WHOLE_BATCH_SCORES", 0)
            patch.setattr(_search, "_FIRST_BLOCK", 1)
            batch = generate_candidates(evaluator, state, cost, space, max_cost=max_cost)
            if batch.size == 0:
                return
            assert np.array_equal(
                batch.bounds, hit_bounds(evaluator, state, cost, batch.vectors, batch.costs)
            )
            batch.best_ratio()
            scored = batch.counts >= 0
            assert np.all(batch.counts[scored] <= batch.bounds[scored])
            hits = batch.hits
            assert np.all(hits <= batch.bounds)

            def whole(rows):
                return hits[rows]

            counts = np.full(batch.size, -1, dtype=np.intp)
            bounded = best_ratio(batch.costs, batch.query_ids, counts, batch.bounds, whole)
            assert bounded == best_ratio(batch.costs, batch.query_ids, hits)
            if np.any(hits >= tau):
                bounded = cheapest_reaching(
                    batch.costs, batch.query_ids, counts, tau, batch.bounds, whole
                )
                assert bounded == cheapest_reaching(batch.costs, batch.query_ids, hits, tau)


def unranked_target_batch(m):
    """The first batch of a target that no query ranks: one candidate per query."""
    rng = np.random.default_rng(m)
    points = rng.random((40, 3))
    points[0] = 2.0  # worse than every other object at every query
    queries = QuerySet(rng.random((m, 3)), ks=rng.integers(1, 4, m))
    evaluator = StrategyEvaluator(SubdomainIndex(Dataset(points), queries, mode="relevant"))
    state = SearchState(0, points[0].copy(), np.zeros(3), 0.0, evaluator.hits_mask(0))
    assert state.hits == 0
    batch = generate_candidates(evaluator, state, euclidean_cost(3), StrategySpace.unconstrained(3))
    assert batch.size == m
    return batch


class TestWholeBatchLine:
    """A batch of at most 2^16 scores is scored whole; a larger one is bounded."""

    def test_a_batch_on_the_line_is_scored_whole(self):
        batch = unranked_target_batch(256)  # 256 queries x 256 candidates
        assert batch.bounds is None
        assert np.all(batch.counts >= 0)
        assert batch.best_ratio() == best_ratio(batch.costs, batch.query_ids, batch.counts)

    def test_a_batch_past_the_line_scores_only_what_can_win(self):
        batch = unranked_target_batch(257)
        assert batch.bounds is not None
        assert np.all(batch.counts < 0)
        pick = batch.best_ratio()
        assert 0 < batch.pruned < batch.size
        scored = batch.counts >= 0
        assert np.all(batch.counts[scored] <= batch.bounds[scored])
        assert np.all(batch.hits <= batch.bounds)
        assert pick == best_ratio(batch.costs, batch.query_ids, batch.hits)
        tau = int(batch.counts[pick])
        assert batch.cheapest_reaching(tau) == cheapest_reaching(
            batch.costs, batch.query_ids, batch.hits, tau
        )
