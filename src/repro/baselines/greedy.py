"""The "Greedy" baseline scheme (paper §6.1).

Always hit the query that is cheapest to hit next, ignoring how many
other queries the move would bring along — i.e. Algorithm 3/4 with the
cost-per-hit ratio replaced by raw candidate cost.  Cheap to run, but
the found strategies waste budget compared with Efficient-IQ because a
slightly dearer candidate often drags several extra queries into the
hit set for free.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_FEASIBILITY
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.results import IQResult, IterationRecord
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import ValidationError
from repro.optimize.hit_cost import min_cost_to_hit_batch

__all__ = ["greedy_min_cost_iq", "greedy_max_hit_iq"]


def _cheapest_candidate(evaluator, target, position, mask, cost, space):
    """The unhit query with the smallest single-hit cost, or ``None``.

    Ties go to the lowest query id (``argmin`` takes the first).
    """
    __, theta = evaluator.thresholds(target)
    unhit = np.flatnonzero(~mask)
    q = evaluator.index.queries.weights[unhit]
    vectors, costs, feasible = min_cost_to_hit_batch(
        cost, q, theta[unhit] - q @ position, space=space
    )
    rows = np.flatnonzero(feasible)
    if rows.size == 0:
        return None
    row = rows[np.argmin(costs[rows])]
    return int(unhit[row]), Strategy(vectors[row], cost=costs[row])


def greedy_min_cost_iq(
    evaluator: StrategyEvaluator,
    target: int,
    tau: int,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Hit the cheapest query, repeat until ``tau`` queries are hit."""
    index = evaluator.index
    if not 1 <= tau <= index.queries.m:
        raise ValidationError(f"tau must be in [1, {index.queries.m}], got {tau}")
    space = space or StrategySpace.unconstrained(index.dataset.dim)
    max_iterations = 2 * tau + 16

    base = index.dataset.matrix[target].copy()
    applied = np.zeros(index.dataset.dim)
    spent = 0.0
    mask = evaluator.hits_mask(target)
    hits_before = int(mask.sum())
    records: list[IterationRecord] = []
    stalls = 0

    while int(mask.sum()) < tau and len(records) < max_iterations:
        best = _cheapest_candidate(
            evaluator, target, base + applied, mask, cost, space.shifted(applied)
        )
        if best is None:
            break
        j, candidate = best
        before = int(mask.sum())
        applied = applied + candidate.vector
        spent += candidate.cost
        mask = evaluator.hits_mask(target, base + applied)
        records.append(
            IterationRecord(
                query_id=j, cost=candidate.cost, hits_after=int(mask.sum()), candidates=1
            )
        )
        stalls = stalls + 1 if int(mask.sum()) <= before else 0
        if stalls >= 2:
            break

    hits_after = int(mask.sum())
    return IQResult(
        target=target,
        strategy=Strategy(applied, cost=spent),
        hits_before=hits_before,
        hits_after=hits_after,
        total_cost=spent,
        satisfied=hits_after >= tau,
        iterations=records,
    )


def greedy_max_hit_iq(
    evaluator: StrategyEvaluator,
    target: int,
    budget: float,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Hit cheapest queries until the budget is exhausted."""
    index = evaluator.index
    if budget < 0:
        raise ValidationError(f"budget must be non-negative, got {budget}")
    space = space or StrategySpace.unconstrained(index.dataset.dim)
    max_iterations = 2 * index.queries.m + 16

    base = index.dataset.matrix[target].copy()
    applied = np.zeros(index.dataset.dim)
    spent = 0.0
    mask = evaluator.hits_mask(target)
    hits_before = int(mask.sum())
    records: list[IterationRecord] = []
    stalls = 0

    while spent < budget and len(records) < max_iterations:
        best = _cheapest_candidate(
            evaluator, target, base + applied, mask, cost, space.shifted(applied)
        )
        if best is None or spent + best[1].cost > budget:
            break
        j, candidate = best
        before = int(mask.sum())
        applied = applied + candidate.vector
        spent += candidate.cost
        mask = evaluator.hits_mask(target, base + applied)
        records.append(
            IterationRecord(
                query_id=j, cost=candidate.cost, hits_after=int(mask.sum()), candidates=1
            )
        )
        stalls = stalls + 1 if int(mask.sum()) <= before else 0
        if stalls >= 2:
            break

    hits_after = int(mask.sum())
    return IQResult(
        target=target,
        strategy=Strategy(applied, cost=spent),
        hits_before=hits_before,
        hits_after=hits_after,
        total_cost=spent,
        satisfied=spent <= budget + EPS_FEASIBILITY,
        iterations=records,
    )
