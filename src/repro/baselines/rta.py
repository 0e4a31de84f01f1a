"""Reverse top-k evaluation via the Threshold Algorithm (RTA) [21].

The paper's RTA-IQ baseline plugs Vlachou et al.'s monochromatic RTA
into the same greedy strategy search instead of ESE: each candidate's
hit count ``H(p + s)`` is computed by a reverse top-k pass over the
workload.  RTA's trick is to avoid evaluating every query from scratch:
queries are processed in sequence and the *previous* query's top-k
result acts as a pruning buffer — if, under the current query's
weights, at least ``k`` buffered objects already score better than the
candidate point by more than the tie band, the candidate cannot be in
this query's top-k and the full evaluation is skipped.  Workload queries
are sorted so that adjacent queries have similar weights, which keeps
the buffer relevant (the paper's query sets are normalized, so sorting
by weight vector works well).  A query that is evaluated decides the hit
by Eq. 6 with ESE's tie rule, so RTA-IQ finds Efficient-IQ's strategies
on tied data too.

RTA supports only linear utility functions — the reproduction keeps
that restriction, matching §6.1.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_TIE
from repro.core.ese import StrategyEvaluator
from repro.core.subdomain import SubdomainIndex, _beats_batch
from repro.errors import ValidationError

__all__ = ["ReverseTopK", "RTAEvaluator"]

#: The pruning test skips a query only when the buffer's k-th score lies
#: this many tie bands below the candidate's: the true threshold then
#: lies at least as far below, past the band in which Eq. 6 breaks ties
#: by id, with room for the rounding of two different matrix products.
_PRUNE_BANDS = 4


class ReverseTopK:
    """Monochromatic reverse top-k over a fixed workload."""

    def __init__(self, dataset_matrix: np.ndarray, queries):
        dataset_matrix = np.asarray(dataset_matrix, dtype=float)
        if dataset_matrix.ndim != 2:
            raise ValidationError(f"dataset must be 2-D, got {dataset_matrix.shape}")
        self.matrix = dataset_matrix
        self.queries = queries
        # Sort the workload lexicographically by weights so neighbouring
        # queries have similar preferences (buffer reuse).
        self.order = np.lexsort(queries.weights.T[::-1])
        self.evaluated_queries = 0  #: full top-k evaluations performed
        self.pruned_queries = 0  #: queries skipped by the threshold test

    def count_hits(self, point: np.ndarray, exclude: int | None = None) -> int:
        """Number of workload queries whose top-k would contain ``point``.

        ``exclude`` removes one object id from the dataset (the target's
        original row) so the candidate replaces rather than duplicates
        it, and the point takes that id.  Membership is Eq. 6 as ESE
        decides it (:func:`~repro.core.subdomain._beats_batch`): the
        point must beat the k-th other object in ``(score, id)`` order,
        a tie within the band going to the lower id.  Without
        ``exclude`` the point is one more object, after every id, so it
        loses each tie.
        """
        point = np.asarray(point, dtype=float)
        matrix = self.matrix
        ids = np.arange(matrix.shape[0])
        target = matrix.shape[0] if exclude is None else exclude
        if exclude is not None:
            keep = ids != exclude
            matrix = matrix[keep]
            ids = ids[keep]
        hits = 0
        buffer: np.ndarray | None = None  # rows of the previous top-k
        for qi in self.order:
            weights, k = self.queries.query(int(qi))
            my_score = float(point @ weights)
            if buffer is not None and buffer.shape[0] >= k:
                kth_buffered = float(np.partition(buffer @ weights, k - 1)[k - 1])
                band = _PRUNE_BANDS * EPS_TIE * max(1.0, abs(kth_buffered))
                if kth_buffered < my_score - band:
                    # Threshold test: k known objects beat the candidate
                    # by more than the tie band, so the k-th other object
                    # does too; skip the full evaluation.
                    self.pruned_queries += 1
                    continue
            scores = matrix @ weights
            self.evaluated_queries += 1
            if scores.shape[0] < k:
                buffer = matrix
                hits += 1  # fewer than k other objects: an infinite threshold
                continue
            # The first k rows in (score, id) order; rows are in id order.
            kth_score = np.partition(scores, k - 1)[k - 1]
            below = np.flatnonzero(scores < kth_score)
            tied = np.flatnonzero(scores == kth_score)[: k - below.shape[0]]
            buffer = matrix[np.concatenate((below, tied))]
            kth = tied[-1]
            hits += int(
                _beats_batch(
                    np.array([[my_score]]), scores[kth : kth + 1], target, ids[kth : kth + 1]
                )[0, 0]
            )
        return hits


class RTAEvaluator(StrategyEvaluator):
    """Drop-in :class:`StrategyEvaluator` whose hit counts come from RTA.

    Used by the RTA-IQ scheme: the greedy search (and therefore the
    strategies found) is identical to Efficient-IQ — only the
    per-candidate evaluation engine differs, which is exactly the
    comparison the paper's Figures 7-12 make.
    """

    def __init__(self, index: SubdomainIndex):
        super().__init__(index)
        self.rta = ReverseTopK(index.dataset.matrix, index.queries)

    def _refresh(self) -> None:
        # The ReverseTopK snapshot holds the dataset matrix and workload
        # as of its construction; a moved index epoch means either may
        # have been replaced, so rebuild against the current state.
        self.rta = ReverseTopK(self.index.dataset.matrix, self.index.queries)

    def hits(self, target: int, position: np.ndarray | None = None) -> int:
        self._sync()
        if position is None:
            position = self.index.dataset.matrix[target]
        self.full_evaluations += 1
        return self.rta.count_hits(np.asarray(position, dtype=float), exclude=target)

    def evaluate_many(self, target: int, positions: np.ndarray) -> np.ndarray:
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        out = np.empty(positions.shape[0], dtype=np.intp)
        for i, position in enumerate(positions):
            out[i] = self.hits(target, position)
        return out

    # hits_mask (used for the unhit set and the applied-state refresh)
    # falls back to the exact threshold path of the parent class — RTA
    # only accelerates the *count*, membership listing still needs the
    # per-query test.  This mirrors the paper's setup where RTA-IQ and
    # Efficient-IQ share the searching code.
