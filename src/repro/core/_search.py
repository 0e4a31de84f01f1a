"""Shared machinery of the greedy improvement-strategy searches.

Both Algorithm 3 (Min-Cost) and Algorithm 4 (Max-Hit) repeat the same
inner step: for every not-yet-hit query, solve the single-constraint
subproblem "cheapest strategy that hits exactly this query" (Eq. 13-14),
score each candidate's total hit count with ESE, and pick the candidate
with the best cost-per-hit ratio.  This module implements that step once.

Everything here operates in the *internal* (min-convention) attribute
space; the engine converts costs, bounds, and result strategies at the
API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.results import IterationRecord
from repro.core.strategy import StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.observe import stage, tally
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch

__all__ = ["CandidateBatch", "apply_candidate", "generate_candidates", "SearchState"]

_CANDIDATE_METHODS = ("auto", "loop")


@dataclass
class CandidateBatch:
    """Candidate strategies of one greedy iteration.

    All arrays are aligned: candidate ``i`` targets ``query_ids[i]``,
    moves the target by ``vectors[i]``, costs ``costs[i]``, and yields
    ``hits[i]`` total hit queries.
    """

    query_ids: np.ndarray  #: (c,) workload ids
    vectors: np.ndarray  #: (c, d) internal strategy increments
    costs: np.ndarray  #: (c,) incremental costs
    hits: np.ndarray  #: (c,) H(p' + s) per candidate

    @property
    def size(self) -> int:
        return int(self.query_ids.shape[0])

    def best_ratio(self) -> int:
        """Index of the candidate minimizing cost per hit query.

        Candidates that hit nothing are ignored; ties prefer the
        cheaper candidate, then the lower query id (determinism).
        """
        ratios = np.where(self.hits > 0, self.costs / np.maximum(self.hits, 1), np.inf)
        order = np.lexsort((self.query_ids, self.costs, ratios))
        return int(order[0])


@dataclass
class SearchState:
    """Mutable state threaded through a greedy search."""

    target: int
    base: np.ndarray  #: original internal position of the target
    applied: np.ndarray  #: accumulated internal strategy
    spent: float  #: accumulated cost (greedy accounting)
    mask: np.ndarray  #: current hit mask

    @property
    def position(self) -> np.ndarray:
        return self.base + self.applied

    @property
    def hits(self) -> int:
        return int(self.mask.sum())


def apply_candidate(
    evaluator: StrategyEvaluator,
    state: SearchState,
    batch: CandidateBatch,
    pick: int,
    records: list[IterationRecord],
) -> None:
    """Take candidate ``pick``: move the target, pay its cost, record the iteration."""
    state.applied = state.applied + batch.vectors[pick]
    state.spent += float(batch.costs[pick])
    tally("iterations")
    tally("evaluations")
    with stage("evaluate"):
        state.mask = evaluator.hits_mask(state.target, state.position)
    records.append(
        IterationRecord(
            query_id=int(batch.query_ids[pick]),
            cost=float(batch.costs[pick]),
            hits_after=state.hits,
            candidates=batch.size,
        )
    )


def generate_candidates(
    evaluator: StrategyEvaluator,
    state: SearchState,
    cost: CostFunction,
    space: StrategySpace,
    max_cost: float | None = None,
    method: str = "auto",
) -> CandidateBatch:
    """One candidate per unhit query, scored with ESE.

    ``space`` is the *remaining* strategy box (already shifted by the
    accumulated strategy).  ``max_cost`` drops candidates costlier than
    the remaining budget before the (comparatively expensive) batch hit
    evaluation — the filter of §5.1 step 2.  The comparison is exact
    (``cost <= max_cost``): any numeric slack is the caller's to grant,
    *once*, against the original budget — adding a per-iteration epsilon
    here would let accumulated spend drift past the budget over many
    iterations (the budget-accounting bug the correctness harness
    guards).

    ``method="auto"`` (default) solves every unhit query in one
    :func:`min_cost_to_hit_batch` call, whatever the cost and box.
    ``method="loop"`` calls :func:`min_cost_to_hit` once per row (the
    benchmark-regression baseline).
    """
    if method not in _CANDIDATE_METHODS:
        raise ValidationError(
            f"method must be one of {_CANDIDATE_METHODS}, got {method!r}"
        )
    with stage("candidates"):
        return _generate_candidates(evaluator, state, cost, space, max_cost, method)


def _generate_candidates(
    evaluator: StrategyEvaluator,
    state: SearchState,
    cost: CostFunction,
    space: StrategySpace,
    max_cost: float | None,
    method: str,
) -> CandidateBatch:
    index = evaluator.index
    weights = index.queries.weights
    __, theta = evaluator.thresholds(state.target)
    unhit = np.flatnonzero(~state.mask)
    position = state.position
    dim = index.dataset.dim

    if method == "auto":
        q = weights[unhit]
        vectors_all, costs_all, keep = min_cost_to_hit_batch(
            cost, q, theta[unhit] - q @ position, space=space
        )
    else:
        vectors_all = np.zeros((unhit.size, dim))
        costs_all = np.zeros(unhit.size)
        keep = np.zeros(unhit.size, dtype=bool)
        for row, j in enumerate(unhit):
            gap = float(theta[j] - weights[j] @ position)
            try:
                candidate = min_cost_to_hit(cost, weights[j], gap, space=space)
            except InfeasibleError:
                continue
            vectors_all[row] = candidate.vector
            costs_all[row] = candidate.cost
            keep[row] = True

    if max_cost is not None:
        keep &= costs_all <= max_cost
    query_ids = unhit[keep].astype(np.intp)
    matrix = vectors_all[keep]
    cost_arr = costs_all[keep]
    if query_ids.size == 0:
        return CandidateBatch(query_ids, matrix, cost_arr, hits=np.empty(0, dtype=np.intp))
    tally("candidates", int(query_ids.size))
    tally("evaluations", int(query_ids.size))
    with stage("evaluate"):
        hits = evaluator.evaluate_many(state.target, position + matrix)
    return CandidateBatch(query_ids=query_ids, vectors=matrix, costs=cost_arr, hits=hits)
