"""Shared machinery of the greedy improvement-strategy searches.

Both Algorithm 3 (Min-Cost) and Algorithm 4 (Max-Hit) repeat the same
inner step: for every not-yet-hit query, solve the single-constraint
subproblem "cheapest strategy that hits exactly this query" (Eq. 13-14),
score the candidates' total hit counts with ESE, and pick the candidate
with the best cost-per-hit ratio.  This module implements that step once.

Only the candidates that can still be picked are scored.  A move ``s``
keeps or loses the target's current hits but gains only the queries it
pays for: to hit an unhit query ``q`` it must bring ``q . p`` below the
query's Eq. 6 cutoff, and by Hölder's inequality that costs at least the
gap over ``q``'s dual norm under the cost (:func:`hit_bounds`).  So a
candidate of cost ``c`` hits at most ``U = H + #{unhit queries whose least
cost is <= c}``, and its ratio is at least ``fl(c / U)``.
:func:`best_ratio` scores candidates in ascending order of that floor, in
blocks of 32, 64, 128, ..., and stops once the next floor exceeds the
best ratio scored; :func:`cheapest_reaching` scores only candidates whose
bound reaches ``tau``, cheapest first, up to the first that reaches it.
Both pick what scoring every candidate picks.  A batch of at most
``_WHOLE_BATCH_SCORES`` scores is scored whole in one product instead,
with no bound: there the bound costs more than it saves.

Everything here operates in the *internal* (min-convention) attribute
space; the engine converts costs, bounds, and result strategies at the
API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.constants import EPS_HIT_BOUND
from repro.core.cost import AsymmetricLinearCost, CostFunction, L1Cost, L2Cost, LInfCost
from repro.core.ese import StrategyEvaluator
from repro.core.results import IterationRecord
from repro.core.strategy import StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.observe import stage, tally
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch

__all__ = [
    "CandidateBatch",
    "SearchState",
    "apply_candidate",
    "best_ratio",
    "cheapest_reaching",
    "generate_candidates",
    "hit_bounds",
]

_CANDIDATE_METHODS = ("auto", "loop")

#: A batch of at most this many scores (queries x candidates) is scored
#: whole in one product and bounds nothing: bounding every batch over
#: 128 candidates instead slowed the ``maintain`` benchmark's Min-Cost
#: median from 0.59-0.63 to 0.73-0.74 ms (two pairs, about 200 queries
#: a batch), while past this line (over 109 candidates at 600 queries)
#: the bound spares most of the scoring.
_WHOLE_BATCH_SCORES = 1 << 16

#: Candidates the first block of a bounded selection scores; each later
#: block is twice the one before.
_FIRST_BLOCK = 32

#: ``score(rows)``: ``H(p' + s)`` of the candidate rows an index array
#: or a slice picks.
Scorer = Callable[["np.ndarray | slice"], np.ndarray]


@dataclass
class CandidateBatch:
    """Candidate strategies of one greedy iteration.

    All arrays are aligned: candidate ``i`` targets ``query_ids[i]``,
    moves the target by ``vectors[i]`` and costs ``costs[i]``;
    ``counts[i]`` is its ``H(p' + s)`` once scored and -1 before.  A
    batch of at most ``_WHOLE_BATCH_SCORES`` scores is scored whole when
    it is generated and has no ``bounds``; a larger one carries each
    candidate's :func:`hit_bounds` and its selections score what they
    need.
    """

    query_ids: np.ndarray  #: (c,) workload ids
    vectors: np.ndarray  #: (c, d) internal strategy increments
    costs: np.ndarray  #: (c,) incremental costs
    counts: np.ndarray  #: (c,) H(p' + s) of each scored candidate, -1 if unscored
    bounds: np.ndarray | None = None  #: (c,) most hits per candidate, if not scored whole
    score: Scorer | None = None  #: scores candidate rows, if not scored whole
    _hits: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.query_ids.shape[0])

    @property
    def hits(self) -> np.ndarray:
        """``H(p' + s)`` of every candidate, scored whole in one product.

        The reference the selections pick by.  The searches never read it
        on a bounded batch, so it is computed on first read.
        """
        if self.score is None:
            return self.counts
        if self._hits is None:
            self._hits = self.score(slice(None))
        return self._hits

    @property
    def pruned(self) -> int:
        """Candidates not scored so far."""
        return 0 if self.bounds is None else int(np.count_nonzero(self.counts < 0))

    def best_ratio(self) -> int:
        """Index of the candidate minimizing cost per hit query (:func:`best_ratio`).

        A bounded selection scores candidates, so it runs in the
        ``candidates`` stage, as generating them does.
        """
        if self.bounds is None:
            return best_ratio(self.costs, self.query_ids, self.counts)
        with stage("candidates"):
            return best_ratio(self.costs, self.query_ids, self.counts, self.bounds, self.score)

    def cheapest_reaching(self, tau: int) -> int:
        """Cheapest candidate with ``H >= tau`` (:func:`cheapest_reaching`)."""
        if self.bounds is None:
            return cheapest_reaching(self.costs, self.query_ids, self.counts, tau)
        with stage("candidates"):
            return cheapest_reaching(
                self.costs, self.query_ids, self.counts, tau, self.bounds, self.score
            )


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
        return int(np.count_nonzero(self.mask))


def _ratios(costs: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Cost per hit; ``inf`` for a candidate that hits nothing."""
    return np.where(hits > 0, costs / np.maximum(hits, 1), np.inf)


def _blocks(order: np.ndarray) -> Iterator[np.ndarray]:
    """``order`` in consecutive blocks of ``_FIRST_BLOCK``, twice that, ..."""
    start, size = 0, _FIRST_BLOCK
    while start < order.size:
        yield order[start : start + size]
        start += size
        size *= 2


def _fill(counts: np.ndarray, score: Scorer | None, rows: np.ndarray) -> None:
    """Score the candidates among ``rows`` that are not scored yet."""
    missing = rows[counts[rows] < 0]
    if missing.size:
        if score is None:
            raise ValidationError("unscored candidates need a scorer")
        counts[missing] = score(missing)


def best_ratio(
    costs: np.ndarray,
    query_ids: np.ndarray,
    counts: np.ndarray,
    bounds: np.ndarray | None = None,
    score: Scorer | None = None,
) -> int:
    """Index of the candidate minimizing cost per hit query.

    Candidates that hit nothing are ignored; ties prefer the cheaper
    candidate, then the lower query id (determinism).  Without
    ``bounds`` every count is known.  With them, ``score`` fills in the
    -1 entries of ``counts`` as needed: candidates are scored in
    ascending order of the least ratio their bound allows,
    ``fl(cost / bound)``, which rounded division keeps at or below their
    ratio, until the next one's exceeds the best ratio scored.  A tie is
    scored, since cost and id break it.
    """
    if bounds is None:
        return int(np.lexsort((query_ids, costs, _ratios(costs, counts)))[0])
    floors = _ratios(costs, bounds)
    order = np.argsort(floors)
    pick, end = -1, 0
    for block in _blocks(order):
        _fill(counts, score, block)
        end += block.size
        rows = block if pick < 0 else np.append(block, pick)  # the best so far competes
        pick = int(rows[best_ratio(costs[rows], query_ids[rows], counts[rows])])
        best = costs[pick] / counts[pick] if counts[pick] > 0 else np.inf
        if end == order.size or floors[order[end]] > best:
            return pick
    raise ValidationError("an empty candidate batch has no best ratio")


def cheapest_reaching(
    costs: np.ndarray,
    query_ids: np.ndarray,
    counts: np.ndarray,
    tau: int,
    bounds: np.ndarray | None = None,
    score: Scorer | None = None,
) -> int:
    """Index of the cheapest candidate with ``H >= tau`` (ties by query id).

    With ``bounds``, only the candidates whose bound reaches ``tau`` are
    scored, in (cost, query id) order, up to the first that reaches it.
    """
    if bounds is None:
        reaching = np.flatnonzero(counts >= tau)
        return int(reaching[np.lexsort((query_ids[reaching], costs[reaching]))[0]])
    able = np.flatnonzero(bounds >= tau)
    order = able[np.lexsort((query_ids[able], costs[able]))]
    for block in _blocks(order):
        _fill(counts, score, block)
        reached = block[counts[block] >= tau]
        if reached.size:
            return int(reached[0])
    raise ValidationError(f"no candidate reaches tau={tau}")


def _dual_norms(cost: CostFunction, q: np.ndarray) -> np.ndarray | None:
    """Per row of ``q``, the most a strategy of unit cost can lower ``q . s``.

    That is ``q``'s dual norm under ``cost``, so that ``-q . s <= norm *
    cost(s)`` (Hölder); ``None`` for a cost that declares no norm.
    """
    if isinstance(cost, L2Cost):
        return np.sqrt((q * q) @ (1.0 / cost.weights))
    if isinstance(cost, L1Cost):
        return np.max(np.abs(q) / cost.weights, axis=1)
    if isinstance(cost, LInfCost):
        return np.sum(np.abs(q) / cost.weights, axis=1)
    if isinstance(cost, AsymmetricLinearCost):
        # Lowering q . s along coordinate k means lowering s_k where
        # q_k > 0 (price ``down``) and raising it elsewhere (price ``up``).
        return np.max(np.abs(q) / np.where(q > 0, cost.down, cost.up), axis=1)
    return None


def hit_bounds(
    evaluator: StrategyEvaluator,
    state: SearchState,
    cost: CostFunction,
    vectors: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """Most queries each candidate ``(vectors[j], costs[j])`` can hit from ``state``.

    An unhit query ``i`` is hit only if the score of ``fl(p + s)`` falls
    below its Eq. 6 cutoff, so ``-q_i . s`` must pass ``q_i . p - cut_i``
    less a rounding allowance (``EPS_HIT_BOUND`` times the size of the
    score's terms, the cutoff's included), and by Hölder that costs at
    least ``lc_i`` = that gap over ``q_i``'s dual norm.  A candidate of
    cost ``c`` thus hits at most the current hits plus ``#{i : lc_i <=
    c}``.  A cost with no dual norm bounds nothing: every unhit query
    counts.
    """
    weights = evaluator.index.queries.weights
    if vectors.shape != (costs.shape[0], weights.shape[1]):
        raise ValidationError(
            f"vectors {vectors.shape} do not match costs {costs.shape} in dimension "
            f"{weights.shape[1]}"
        )
    unhit = np.flatnonzero(~state.mask)
    q = weights[unhit]
    norms = _dual_norms(cost, q)
    if norms is None:
        return np.full(costs.shape, state.hits + unhit.size, dtype=np.intp)
    cut = evaluator.cutoffs(state.target).cut[unhit]
    position = state.position
    reach = np.abs(position) + np.max(np.abs(vectors), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = (q @ position - cut) - EPS_HIT_BOUND * (np.abs(q) @ reach + np.abs(cut))
        # No move changes a zero row's score (norm 0), nor passes a NaN
        # cutoff: such a row reads -inf (counted for every cost), +inf
        # or NaN (sorted last, counted for no finite cost).
        least = gap / norms
    return state.hits + np.searchsorted(np.sort(least), costs, side="right")


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
    """One candidate per unhit query, scored with ESE or bounded.

    ``space`` is the *remaining* strategy box (already shifted by the
    accumulated strategy).  ``max_cost`` drops candidates costlier than
    the remaining budget before the (comparatively expensive) batch hit
    evaluation — the filter of §5.1 step 2.  The comparison is exact
    (``cost <= max_cost``): any numeric slack is the caller's to grant,
    *once*, against the original budget — adding a per-iteration epsilon
    here would let accumulated spend drift past the budget over many
    iterations (the budget-accounting bug the correctness harness
    guards).

    A batch of at most ``_WHOLE_BATCH_SCORES`` scores is scored whole
    here; a larger one gets :func:`hit_bounds` and is scored by its
    selections.

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
        return CandidateBatch(query_ids, matrix, cost_arr, np.empty(0, dtype=np.intp))
    tally("candidates", int(query_ids.size))
    if weights.shape[0] * query_ids.size <= _WHOLE_BATCH_SCORES:
        counts = _score(evaluator, state.target, position, matrix, slice(None))
        return CandidateBatch(query_ids, matrix, cost_arr, counts)
    unscored = np.full(query_ids.size, -1, dtype=np.intp)
    bounds = hit_bounds(evaluator, state, cost, matrix, cost_arr)
    score = partial(_score, evaluator, state.target, position, matrix)
    return CandidateBatch(query_ids, matrix, cost_arr, unscored, bounds, score)


def _score(
    evaluator: StrategyEvaluator,
    target: int,
    position: np.ndarray,
    vectors: np.ndarray,
    rows: "np.ndarray | slice",
) -> np.ndarray:
    """ESE hit counts of the candidate rows ``rows``, in one ``evaluate_many`` product."""
    positions = position + vectors[rows]
    tally("evaluations", len(positions))
    with stage("evaluate"):
        return evaluator.evaluate_many(target, positions)
