"""Re-verification of improvement-query answers from first principles.

An answer claims: the target moved by ``strategy`` hits ``hits_after``
queries, the strategy cost ``total_cost``, and the goal was met or not.
:class:`BruteForce` recounts the hits on the improved data directly from
the top-k definition -- the target is hit by query ``j`` when fewer than
``k_j`` other objects beat it under the ``(score, id)`` order, the
definition :func:`repro.check.differential.brute_force_hits` checks --
with the work vectorised over the queries: only the target's row moves,
so each query's ``k_max + 1`` best other scores are computed once per
data snapshot.  Queries whose score lies inside the ``EPS_TIE`` band of
the k-th other object may count either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY, EPS_TIE


@dataclass(frozen=True)
class Answer:
    """One answer, in the internal (lower score wins) convention."""

    kind: str  #: "min_cost" | "max_hit"
    goal: float  #: tau or budget
    target: int
    strategy: np.ndarray  #: internal strategy vector
    total_cost: float
    hits_after: int
    satisfied: bool


class BruteForce:
    """Hit counts on improved data for one ``(objects, queries)`` snapshot.

    ``matrix`` holds the objects in the internal convention, ``weights``
    and ``ks`` the queries.  Rows of ``weights`` beyond ``m`` passed to
    :meth:`hit_range` are ignored, so one instance serves every prefix of
    an append-only query table.
    """

    def __init__(self, matrix: np.ndarray, weights: np.ndarray, ks: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.ks = np.asarray(ks, dtype=np.intp)
        n = self.matrix.shape[0]
        depth = min(n, int(self.ks.max()) + 1)
        scores = self.weights @ self.matrix.T
        if depth < n:
            part = np.argpartition(scores, depth - 1, axis=1)[:, :depth]
        else:
            part = np.broadcast_to(np.arange(n), scores.shape).copy()
        values = np.take_along_axis(scores, part, axis=1)
        order = np.lexsort((part, values), axis=1)
        self.best_ids = np.take_along_axis(part, order, axis=1)
        self.best_scores = np.take_along_axis(values, order, axis=1)

    def ranked(self) -> np.ndarray:
        """Per object, whether some query ranks it in its top-k, as they stand."""
        depth = np.arange(self.best_ids.shape[1])[None, :] < self.ks[:, None]
        ranked = np.zeros(self.matrix.shape[0], dtype=bool)
        ranked[self.best_ids[depth]] = True
        return ranked

    def queries(self, m: "int | None" = None) -> int:
        """How many queries a check over the first ``m`` (default all) counts."""
        return self.weights.shape[0] if m is None else m

    def hit_range(self, target: int, strategy: np.ndarray, m: "int | None" = None) -> "tuple[int, int]":
        """``(settled hits, tie-band queries)`` of ``target`` moved by ``strategy``."""
        m = self.queries(m)
        ks = self.ks[:m]
        rows = np.arange(m)
        position = self.matrix[target] + strategy
        score = self.weights[:m] @ position
        # The k-th best *other* object: skip the target when it sits
        # among the first k of the precomputed prefix.
        among_first_k = (self.best_ids[:m] == target) & (
            np.arange(self.best_ids.shape[1])[None, :] < ks[:, None]
        )
        column = ks - 1 + among_first_k.any(axis=1)
        others = self.matrix.shape[0] - 1
        theta = self.best_scores[rows, np.minimum(column, self.best_scores.shape[1] - 1)]
        band = EPS_TIE * np.maximum(1.0, np.abs(theta))
        too_few_others = ks > others
        settled_hit = too_few_others | (theta > score + band)
        tied = ~too_few_others & (np.abs(theta - score) <= band)
        return int(settled_hit.sum()), int(tied.sum())


def check(answer: Answer, brute: BruteForce, m: "int | None" = None) -> "list[str]":
    """Problems with one answer; empty when it is correct."""
    problems: "list[str]" = []
    label = f"{answer.kind} target {answer.target} goal {answer.goal:g}"
    settled, tied = brute.hit_range(answer.target, answer.strategy, m)
    if not settled <= answer.hits_after <= settled + tied:
        expected = f"{settled}" if tied == 0 else f"{settled}..{settled + tied}"
        problems.append(f"{label}: hits_after {answer.hits_after}, recount {expected}")
    recost = float(np.sqrt(np.sum(answer.strategy * answer.strategy)))
    slack = EPS_FEASIBILITY * max(1.0, answer.total_cost)
    if answer.total_cost < 0.0 or recost > answer.total_cost + slack:
        problems.append(
            f"{label}: strategy re-costs to {recost} (L2), reported {answer.total_cost}"
        )
    if answer.kind == "min_cost":
        if answer.satisfied != (answer.hits_after >= answer.goal):
            problems.append(
                f"{label}: satisfied={answer.satisfied} with hits_after {answer.hits_after}"
            )
        # On an unbounded strategy space the target can move ahead of every
        # object, so any goal up to the number of queries is reachable.
        elif not answer.satisfied and answer.goal <= brute.queries(m):
            problems.append(f"{label}: unsatisfied although {brute.queries(m)} queries can be hit")
    elif answer.total_cost > answer.goal + EPS_COST or recost > answer.goal + EPS_FEASIBILITY:
        problems.append(f"{label}: spent {answer.total_cost} over budget {answer.goal}")
    return problems
