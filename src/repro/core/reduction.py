"""The Min-Cost <-> Max-Hit reduction (paper §4.2.2).

The paper proves the two improvement-strategy problems are mutually
reducible: the minimal cost to reach ``tau`` hits can be found by
binary-searching the budget given to a Max-Hit oracle — if the oracle
reaches ``tau`` hits with budget ``x``, the optimum is at most ``x``;
otherwise it is larger.  The proof uses an exact oracle; running the
reduction over the *greedy* Max-Hit gives another Min-Cost heuristic,
which this module provides both as a faithful executable rendering of
the proof and as a cross-check used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.maxhit import max_hit_iq
from repro.core.results import IQResult
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import ValidationError

__all__ = ["min_cost_via_max_hit"]


@dataclass
class _Probe:
    budget: float
    result: IQResult


def min_cost_via_max_hit(
    evaluator: StrategyEvaluator,
    target: int,
    tau: int,
    cost: CostFunction,
    space: StrategySpace | None = None,
    budget_hint: float | None = None,
    iterations: int = 24,
    oracle: "Callable[..., IQResult]" = max_hit_iq,
) -> IQResult:
    """Min-Cost IQ by binary search over Max-Hit budgets (§4.2.2).

    Parameters
    ----------
    budget_hint:
        Initial upper bound ``x_max`` on the cost of hitting ``tau``
        queries; grown geometrically until the oracle reaches ``tau``
        (bounded doubling replaces the paper's "cost to hit all
        queries" constant, which needs no precomputation this way).
    iterations:
        Binary-search refinements after bracketing (the paper's
        ``log x_max`` bound).
    oracle:
        The Max-Hit subroutine (greedy by default; pass
        :func:`repro.core.exhaustive.exhaustive_max_hit` for the exact
        reduction of the proof on tiny inputs).
    """
    index = evaluator.index
    if not 1 <= tau <= index.queries.m:
        raise ValidationError(f"tau must be in [1, {index.queries.m}], got {tau}")

    def probe(budget: float) -> _Probe:
        return _Probe(budget, oracle(evaluator, target, budget, cost, space))

    # Bracket: grow the budget until tau is reachable.
    high = probe(budget_hint if budget_hint is not None else 1.0)
    attempts = 0
    while high.result.hits_after < tau:
        attempts += 1
        if attempts > 60:
            return IQResult(  # unreachable even with unbounded budget
                target=target,
                strategy=Strategy.zero(index.dataset.dim),
                hits_before=evaluator.hits(target),
                hits_after=evaluator.hits(target),
                total_cost=0.0,
                satisfied=False,
            )
        high = probe(high.budget * 2.0)
    best = high
    low_budget = 0.0

    # Refine: shrink the bracket [low, high] around the minimal budget.
    for __ in range(iterations):
        mid_budget = 0.5 * (low_budget + high.budget)
        mid = probe(mid_budget)
        if mid.result.hits_after >= tau:
            high = mid
            if mid.result.total_cost < best.result.total_cost:
                best = mid
        else:
            low_budget = mid_budget

    result = best.result
    return IQResult(
        target=target,
        strategy=result.strategy,
        hits_before=result.hits_before,
        hits_after=result.hits_after,
        total_cost=result.total_cost,
        satisfied=result.hits_after >= tau,
        iterations=result.iterations,
        evaluations=result.evaluations,
    )
