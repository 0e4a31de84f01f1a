"""Max-Hit improvement queries (paper §4.2.2, Algorithm 4).

Greedy budgeted search: every round generates one candidate per unhit
query, drops the candidates that no longer fit the remaining budget
(the filtering step the paper spells out in §5.1 step 2 — Algorithm 4's
lines 13-17 are the cruder single-shot version of the same idea), and
applies the affordable candidate with the best cost-per-hit ratio.  The
search stops when no affordable candidate remains.

Because candidate strategies compose, a later move can in principle
undo hits an earlier move bought (the target's score rises for queries
pointing the other way).  The search therefore snapshots the state
after every application and returns the best prefix — maximal hits,
ties broken by lower cost — which is always within budget.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY
from repro.core._search import SearchState, apply_candidate, generate_candidates
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.results import IQResult, IterationRecord
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import ValidationError
from repro.observe import tally

__all__ = ["max_hit_iq"]

_MAX_STALLS = 3


def max_hit_iq(
    evaluator: StrategyEvaluator,
    target: int,
    budget: float,
    cost: CostFunction,
    space: StrategySpace | None = None,
) -> IQResult:
    """Algorithm 4 in internal (min-convention) coordinates."""
    index = evaluator.index
    if not budget >= 0:  # also rejects NaN
        raise ValidationError(f"budget must be non-negative, got {budget}")
    if cost.dim != index.dataset.dim:
        raise ValidationError(f"cost dim {cost.dim} != dataset dim {index.dataset.dim}")
    space = space or StrategySpace.unconstrained(index.dataset.dim)
    max_iterations = 2 * index.queries.m + 16

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
    # Best snapshot seen so far: (hits, -spent) lexicographic max.
    best = (state.hits, 0.0, state.applied.copy())
    # Numeric slack granted exactly once against the original budget: by
    # induction every admitted candidate keeps ``spent <= allowance``,
    # so total spend can never drift past ``budget + EPS_COST`` no
    # matter how many iterations run (a per-iteration epsilon in the
    # candidate filter used to accumulate unboundedly and could flip
    # ``satisfied`` on a legitimate result).
    allowance = budget + EPS_COST

    while state.spent < budget and len(records) < max_iterations:
        remaining = allowance - state.spent
        batch = generate_candidates(
            evaluator,
            state,
            cost,
            space.shifted(state.applied),
            max_cost=remaining,  # §5.1 step 2: affordable candidates only
        )
        if batch.size == 0:
            break  # no unhit query is reachable within the leftover budget
        pick = batch.best_ratio()
        tally("pruned", batch.pruned)
        if batch.counts[pick] == 0 or not np.isfinite(batch.costs[pick]):
            break
        hits_before_apply = state.hits
        apply_candidate(evaluator, state, batch, pick, records)
        if state.hits > best[0] or (state.hits == best[0] and state.spent < best[1]):
            best = (state.hits, state.spent, state.applied.copy())
        stalls = stalls + 1 if state.hits <= hits_before_apply else 0
        if stalls >= _MAX_STALLS:
            break

    best_hits, best_spent, best_applied = best
    return IQResult(
        target=target,
        strategy=Strategy(best_applied, cost=best_spent),
        hits_before=hits_before,
        hits_after=best_hits,
        total_cost=best_spent,
        satisfied=best_spent <= budget + EPS_FEASIBILITY,
        iterations=records,
        evaluations=evaluator.full_evaluations - evaluations_start,
    )
