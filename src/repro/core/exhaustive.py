"""Exact improvement-strategy search by branch-and-bound (§4.2.1).

The paper offers "exhaustive strategy searching" as an option for users
who want the true optimum, noting it is only feasible for very small
inputs (their measurement: > 4 hours per query at experiment scale; we
reproduce that blow-up in the X1 ablation benchmark).  The problem is
NP-hard (reduction from Minimal Set Cover), so exponential behaviour is
expected.

Formulation: choose the set ``T`` of queries the improved target will
hit.  Given ``T``, the cheapest strategy hitting all of ``T`` is a
convex program solved exactly by
:func:`repro.optimize.hit_cost.min_cost_to_hit_set`.  The search
branches over ``T`` with two admissible bounds:

* cost lower bound: hitting a set costs at least as much as hitting its
  most expensive member alone;
* count upper bound: a partial set can hit at most
  ``|T| + remaining candidates`` queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.results import IQResult
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.optimize.hit_cost import min_cost_to_hit_batch, min_cost_to_hit_set

__all__ = ["exhaustive_min_cost", "exhaustive_max_hit"]

#: Hard cap on the number of candidate queries the exact search will
#: branch over; beyond this the run time is measured in hours (which is
#: the paper's point, but not a useful default).
MAX_EXACT_QUERIES = 22


@dataclass
class _Problem:
    evaluator: StrategyEvaluator
    target: int
    cost: CostFunction
    space: StrategySpace
    weights: np.ndarray  #: (m, d)
    gaps: np.ndarray  #: (m,) theta - q . p at the original position
    singles: np.ndarray  #: (m,) single-query optimal costs (inf if infeasible)


def _prepare(
    evaluator: StrategyEvaluator,
    target: int,
    cost: CostFunction,
    space: StrategySpace | None,
) -> _Problem:
    index = evaluator.index
    if cost.dim != index.dataset.dim:
        raise ValidationError(f"cost dim {cost.dim} != dataset dim {index.dataset.dim}")
    space = space or StrategySpace.unconstrained(index.dataset.dim)
    if index.queries.m > MAX_EXACT_QUERIES:
        raise ValidationError(
            f"exhaustive search is capped at {MAX_EXACT_QUERIES} queries "
            f"(got {index.queries.m}); it is exponential by design — use the "
            "heuristic methods for larger workloads"
        )
    weights = np.asarray(index.queries.weights, dtype=float)
    __, theta = evaluator.thresholds(target)
    gaps = theta - weights @ index.dataset.matrix[target]
    __, costs, feasible = min_cost_to_hit_batch(cost, weights, gaps, space=space)
    singles = np.where(feasible, costs, np.inf)
    return _Problem(evaluator, target, cost, space, weights, gaps, singles)


def _set_cost(problem: _Problem, chosen: list[int]) -> Strategy | None:
    """Exact cheapest strategy hitting every query in ``chosen``."""
    if not chosen:
        return Strategy.zero(problem.cost.dim)
    idx = np.asarray(chosen, dtype=np.intp)
    try:
        return min_cost_to_hit_set(
            problem.cost, problem.weights[idx], problem.gaps[idx], space=problem.space
        )
    except InfeasibleError:
        return None


def exhaustive_min_cost(
    evaluator: StrategyEvaluator,
    target: int,
    tau: int,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Exact Min-Cost IQ: optimal strategy with ``H >= tau``."""
    index = evaluator.index
    if not 1 <= tau <= index.queries.m:
        raise ValidationError(f"tau must be in [1, {index.queries.m}], got {tau}")
    problem = _prepare(evaluator, target, cost, space)
    order = np.argsort(problem.singles, kind="stable")  # cheap queries first
    candidates = [int(j) for j in order if np.isfinite(problem.singles[j])]
    hits_before = evaluator.hits(target)

    best_strategy: Strategy | None = None
    best_cost = np.inf

    def search(pos: int, chosen: list[int]) -> None:
        nonlocal best_strategy, best_cost
        if len(chosen) >= tau:
            strategy = _set_cost(problem, chosen)
            if strategy is not None and strategy.cost < best_cost - EPS_COST:
                # Verify with a true hit count (the strategy may hit
                # more than the chosen set, never fewer).
                achieved = problem.evaluator.evaluate(target, strategy.vector)
                if achieved >= tau:
                    best_strategy, best_cost = strategy, strategy.cost
            return
        if pos >= len(candidates):
            return
        if len(chosen) + (len(candidates) - pos) < tau:
            return  # not enough queries left to reach tau
        j = candidates[pos]
        # Bound: any superset of chosen+{j} costs >= the dearest single.
        lower = max((problem.singles[q] for q in chosen + [j]), default=0.0)
        if lower < best_cost - EPS_COST:
            search(pos + 1, chosen + [j])  # include j
        search(pos + 1, chosen)  # exclude j

    search(0, [])
    if best_strategy is None:
        best_strategy = Strategy.zero(problem.cost.dim)
        satisfied = False
        hits_after = hits_before
    else:
        satisfied = True
        hits_after = evaluator.evaluate(target, best_strategy.vector)
    return IQResult(
        target=target,
        strategy=best_strategy,
        hits_before=hits_before,
        hits_after=hits_after,
        total_cost=best_strategy.cost,
        satisfied=satisfied,
    )


def exhaustive_max_hit(
    evaluator: StrategyEvaluator,
    target: int,
    budget: float,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Exact Max-Hit IQ: optimal strategy with ``Cost <= budget``."""
    if budget < 0:
        raise ValidationError(f"budget must be non-negative, got {budget}")
    problem = _prepare(evaluator, target, cost, space)
    order = np.argsort(problem.singles, kind="stable")
    candidates = [
        int(j)
        for j in order
        if np.isfinite(problem.singles[j]) and problem.singles[j] <= budget + EPS_COST
    ]
    hits_before = evaluator.hits(target)

    best_strategy = Strategy.zero(problem.cost.dim)
    best_hits = evaluator.evaluate(target, best_strategy.vector)

    def search(pos: int, chosen: list[int]) -> None:
        nonlocal best_strategy, best_hits
        if len(chosen) + (len(candidates) - pos) <= best_hits:
            return  # cannot beat the incumbent even taking everything
        strategy = _set_cost(problem, chosen)
        if strategy is None or strategy.cost > budget + EPS_FEASIBILITY:
            return  # supersets only get more expensive: prune
        achieved = problem.evaluator.evaluate(target, strategy.vector)
        if achieved > best_hits:
            best_strategy, best_hits = strategy, achieved
        if pos >= len(candidates):
            return
        search(pos + 1, chosen + [candidates[pos]])
        search(pos + 1, chosen)

    search(0, [])
    return IQResult(
        target=target,
        strategy=best_strategy,
        hits_before=hits_before,
        hits_after=best_hits,
        total_cost=best_strategy.cost,
        satisfied=True,
    )
