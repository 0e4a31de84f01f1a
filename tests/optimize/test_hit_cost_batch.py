"""The batched Eq. 13-14 solver against its one-row case and the set solver.

``min_cost_to_hit_batch`` solves every built-in cost in closed form.
Each row must equal ``min_cost_to_hit`` on that row bit for bit, and
agree with ``min_cost_to_hit_set`` on the row alone: the simplex for
the linear costs and L-infinity, Dykstra's projections for L2.  Values
are drawn from coarse dyadic grids so that price ratios tie exactly,
attributes freeze and query weights vanish.

The set solvers reach a joint solution up to a residual (1e-7 in the
simplex's phase 1, Dykstra's convergence), while the batch is exact.  A
row whose box reaches its bound within that band is therefore held only
to its one-row solve.  An L-infinity row takes its feasibility from the
L2 batch (the same constraint in the same box) and is held to the set
solver's cost where that solver finds a strategy
(``test_hit_cost_set.py`` holds the two to each other exactly).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.constants import DEFAULT_MARGIN
from repro.core.cost import AsymmetricLinearCost, L1Cost, L2Cost, LInfCost
from repro.core.strategy import StrategySpace
from repro.errors import InfeasibleError
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch, min_cost_to_hit_set

quarter = st.integers(-4, 4).map(lambda i: i / 4.0)
price = st.integers(1, 4).map(lambda i: i / 2.0)
eighth = st.integers(-16, 2).map(lambda i: i / 8.0)
lows = st.sampled_from([-np.inf, -2.0, -1.0, -0.5, -0.25, 0.0])
highs = st.sampled_from([np.inf, 2.0, 1.0, 0.5, 0.25, 0.0])


@st.composite
def problems(draw):
    """(weights_rows, gaps, space, prices, other_prices) on dyadic grids."""
    d = draw(st.integers(2, 4))
    rows = draw(st.integers(1, 4))
    q = draw(arrays(np.float64, (rows, d), elements=quarter))
    gaps = draw(arrays(np.float64, (rows,), elements=eighth))
    lower = draw(arrays(np.float64, (d,), elements=lows))
    upper = draw(arrays(np.float64, (d,), elements=highs))
    for i in draw(st.sets(st.integers(0, d - 1), max_size=1)):
        lower[i] = upper[i] = 0.0
    prices = draw(arrays(np.float64, (d,), elements=price))
    other = draw(arrays(np.float64, (d,), elements=price))
    return q, gaps, StrategySpace(d, lower=lower, upper=upper), prices, other


def on_the_boundary(q, gap, space):
    """Does the box reach the row's bound only within the set solvers' slack?"""
    room = np.where(q < 0, space.upper, -space.lower)
    reach = float(np.sum(np.abs(q) * np.where(q != 0, room, 0.0)))
    need = DEFAULT_MARGIN - gap
    return need > 0 and abs(reach - need) <= 1e-6 * max(1.0, need)


def solve(cost, q, gaps, space):
    """The batch, with every row checked bit for bit against its one-row solve."""
    vectors, costs, feasible = min_cost_to_hit_batch(cost, q, gaps, space=space)
    for i in range(q.shape[0]):
        if feasible[i]:
            single = min_cost_to_hit(cost, q[i], gaps[i], space=space)
            assert vectors[i].tobytes() == single.vector.tobytes()
            assert costs[i] == single.cost
            assert space.contains(vectors[i], tol=0.0)
        else:
            with pytest.raises(InfeasibleError):
                min_cost_to_hit(cost, q[i], gaps[i], space=space)
    return vectors, costs, feasible


def reference(cost, q, gap, space):
    """``min_cost_to_hit_set`` on one row: its cost, or None when infeasible."""
    try:
        return min_cost_to_hit_set(cost, q[None, :], np.array([gap]), space=space).cost
    except InfeasibleError:
        return None


@given(problem=problems(), asymmetric=st.booleans())
@settings(max_examples=80, deadline=None)
def test_linear_costs_match_the_simplex(problem, asymmetric):
    q, gaps, space, prices, other = problem
    d = q.shape[1]
    cost = AsymmetricLinearCost(d, up=prices, down=other) if asymmetric else L1Cost(d, prices)
    __, costs, feasible = solve(cost, q, gaps, space)
    for i in range(q.shape[0]):
        if on_the_boundary(q[i], gaps[i], space):
            continue
        expected = reference(cost, q[i], gaps[i], space)
        assert feasible[i] == (expected is not None)
        if expected is not None:
            assert costs[i] == pytest.approx(expected, rel=1e-9, abs=1e-12)


@given(problem=problems())
@settings(max_examples=40, deadline=None)
def test_l2_matches_dykstra(problem):
    q, gaps, space, prices, __ = problem
    cost = L2Cost(q.shape[1], prices)
    __, costs, feasible = solve(cost, q, gaps, space)
    for i in range(q.shape[0]):
        if on_the_boundary(q[i], gaps[i], space):
            continue
        expected = reference(cost, q[i], gaps[i], space)
        assert feasible[i] == (expected is not None)
        if expected is not None:
            assert abs(costs[i] - expected) <= 1e-6


@given(problem=problems())
@settings(max_examples=10, deadline=None)
@example(  # the numeric loop calls this feasible row infeasible
    problem=(
        np.array([[0.25, -0.5, -1.0]]),
        np.array([-0.875]),
        StrategySpace(3, upper=np.full(3, 0.5)),
        np.full(3, 0.5),
        np.full(3, 0.5),
    )
)
def test_linf_never_dearer_than_the_numeric_solver(problem):
    q, gaps, space, prices, __ = problem
    cost = LInfCost(q.shape[1], prices)
    __, costs, feasible = solve(cost, q, gaps, space)
    __, __, l2_feasible = min_cost_to_hit_batch(L2Cost(q.shape[1]), q, gaps, space=space)
    for i in range(q.shape[0]):
        if on_the_boundary(q[i], gaps[i], space):
            continue
        assert feasible[i] == l2_feasible[i]
        expected = reference(cost, q[i], gaps[i], space)
        if expected is not None:
            assert feasible[i] and costs[i] <= expected + 1e-6
