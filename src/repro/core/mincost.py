"""Min-Cost improvement queries (paper §4.2.1, Algorithm 3).

Greedy search for the cheapest strategy making the target hit at least
``tau`` queries: each iteration generates one candidate per unhit query
(Eq. 13-14), scores them with ESE, applies the candidate with the best
cost-per-hit ratio, and stops when the goal is reached — with the
paper's anti-overshoot rule (line 10-13): if the best-ratio candidate
would exceed ``tau``, apply instead the *cheapest* candidate that
reaches ``tau``.
"""

from __future__ import annotations

import numpy as np

from repro.core._search import (
    CandidateBatch,
    SearchState,
    apply_candidate,
    generate_candidates,
)
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.results import IQResult, IterationRecord
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import ValidationError

__all__ = ["min_cost_iq"]

#: A stall is an applied candidate that fails to raise ``H``; two in a
#: row means the greedy is cycling and the search aborts unsatisfied.
_MAX_STALLS = 2


def min_cost_iq(
    evaluator: StrategyEvaluator,
    target: int,
    tau: int,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Algorithm 3 in internal (min-convention) coordinates.

    Returns an :class:`~repro.core.results.IQResult`; ``satisfied`` is
    False when the goal is unreachable within the strategy bounds (the
    partial best-effort strategy is still returned).
    """
    index = evaluator.index
    if tau < 1:
        raise ValidationError(f"tau must be >= 1, got {tau}")
    if tau > index.queries.m:
        raise ValidationError(
            f"tau={tau} exceeds the workload size m={index.queries.m}; unreachable by definition"
        )
    if cost.dim != index.dataset.dim:
        raise ValidationError(f"cost dim {cost.dim} != dataset dim {index.dataset.dim}")
    space = space or StrategySpace.unconstrained(index.dataset.dim)
    max_iterations = 2 * tau + 16

    state = SearchState(
        target=target,
        base=index.dataset.matrix[target].copy(),
        applied=np.zeros(index.dataset.dim),
        spent=0.0,
        mask=evaluator.hits_mask(target),
    )
    hits_before = state.hits
    records: list[IterationRecord] = []
    evaluations_start = evaluator.full_evaluations
    stalls = 0

    while state.hits < tau and len(records) < max_iterations:
        batch = generate_candidates(evaluator, state, cost, space.shifted(state.applied))
        if batch.size == 0:
            break  # every remaining query is unreachable within bounds
        pick = batch.best_ratio()
        if not np.isfinite(batch.costs[pick]) or batch.hits[pick] == 0:
            break
        if batch.hits[pick] > tau:
            # Anti-overshoot (lines 10-13): the best-ratio candidate
            # overachieves; take the cheapest candidate reaching tau.
            pick = _cheapest_reaching(batch, tau)
        hits_before_apply = state.hits
        apply_candidate(evaluator, state, batch, pick, records)
        stalls = stalls + 1 if state.hits <= hits_before_apply else 0
        if stalls >= _MAX_STALLS:
            break

    return IQResult(
        target=target,
        strategy=Strategy(state.applied.copy(), cost=state.spent),
        hits_before=hits_before,
        hits_after=state.hits,
        total_cost=state.spent,
        satisfied=state.hits >= tau,
        iterations=records,
        evaluations=evaluator.full_evaluations - evaluations_start,
    )


def _cheapest_reaching(batch: CandidateBatch, tau: int) -> int:
    """Cheapest candidate with ``H >= tau`` (ties by query id)."""
    reaching = np.flatnonzero(batch.hits >= tau)
    order = np.lexsort((batch.query_ids[reaching], batch.costs[reaching]))
    return int(reaching[order[0]])
