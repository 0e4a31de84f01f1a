"""No greedy search with a built-in cost solves a linear program.

Eq. 13-14 has one linear constraint and a box, so every built-in cost
has a closed form.  The simplex serves only the exhaustive search's
joint problem (``min_cost_to_hit_set``); with both bindings of
``linprog`` patched to raise, every greedy scheme and both
multi-target searches must still run.
"""

import numpy as np
import pytest

from repro.core.cost import AsymmetricLinearCost, L1Cost, L2Cost, LInfCost
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.strategy import StrategySpace
from repro.optimize import hit_cost, simplex

COSTS = {
    "l1": (L1Cost(3, weights=[1.0, 2.0, 0.5]), None),
    "asymmetric": (AsymmetricLinearCost(3, up=[1.0, 3.0, 0.5], down=[2.0, 0.5, 1.0]), None),
    "linf": (LInfCost(3, weights=[1.0, 2.0, 0.5]), None),
    "boxed_l2": (
        L2Cost(3),
        StrategySpace(3, lower=np.array([-0.1, 0.0, -0.3]), upper=np.array([0.2, 0.0, 0.05])),
    ),
}


@pytest.fixture
def no_simplex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a greedy path called linprog")

    monkeypatch.setattr(simplex, "linprog", refuse)
    monkeypatch.setattr(hit_cost, "linprog", refuse)


@pytest.fixture
def engine(rng):
    dataset = Dataset(rng.random((14, 3)))
    queries = QuerySet(rng.random((24, 3)), ks=rng.integers(1, 4, 24))
    return ImprovementQueryEngine(dataset, queries)


@pytest.mark.parametrize("name", sorted(COSTS))
def test_greedy_searches_never_call_linprog(no_simplex, engine, name):
    cost, space = COSTS[name]
    for method in ("efficient", "rta", "greedy", "random"):
        result = engine.min_cost(0, tau=8, cost=cost, space=space, method=method)
        assert result.hits_after >= result.hits_before
        result = engine.max_hit(1, 0.3, cost=cost, space=space, method=method)
        assert result.total_cost <= 0.3 + 1e-9
    multi = engine.min_cost_multi([0, 1], tau=10, costs=cost, spaces=space)
    assert multi.hits_after >= multi.hits_before
    multi = engine.max_hit_multi([0, 1], 0.3, costs=cost, spaces=space)
    assert multi.total_cost <= 0.3 + 1e-9


def test_the_exhaustive_set_solver_still_uses_it(no_simplex):
    with pytest.raises(AssertionError, match="linprog"):
        hit_cost.min_cost_to_hit_set(
            L1Cost(2), np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([-1.0, -1.0])
        )
