"""Efficient Strategy Evaluation (paper §4.1, Algorithm 2).

Computes ``H(p + s)`` — how many queries the improved target hits —
without re-evaluating the workload from scratch:

* The membership condition is Eq. 6: the improved target enters the
  top-k of query ``q`` iff its score beats ``theta_q``, the score of
  the k-th ranked object among ``D \\ {target}``.  The *identity* of
  that k-th object is constant within a subdomain, so the subdomain
  index's shared representative rankings yield all thresholds with at
  most one evaluation per subdomain.
* Crucially, the thresholds do not depend on where the target currently
  sits (the target is excluded), so they are computed once per target
  and reused across every candidate strategy and every greedy iteration
  — this is what makes the inner loop of Algorithms 3/4 cheap.  With
  them the evaluator caches per-query cutoffs
  (:func:`~repro.core.subdomain._eq6_cutoffs`) that decide Eq. 6 with
  one compare per score.

Two evaluation paths are provided:

* :meth:`StrategyEvaluator.evaluate` / :meth:`evaluate_many` — the
  vectorized production path, ``O(m d)`` per candidate.
* :meth:`StrategyEvaluator.evaluate_affected` — the literal
  affected-subspace formulation: retrieve only the query points lying
  between the old and new intersection hyperplanes (Eq. 4-5) and update
  the previous hit mask incrementally.  Used by the tests as a
  cross-check and by the ESE-ablation benchmark.  The paper retrieves
  them by a range query over a query R-tree; the workload's domain
  bounds every slab, so that range holds every query, and the slab test
  runs over all of them instead.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_TIE
from repro.core.subdomain import Eq6Cutoffs, SubdomainIndex, _eq6_cutoffs
from repro.errors import ValidationError

__all__ = ["StrategyEvaluator"]

#: Candidate-batch matrices are chunked to stay under this many floats.
_CHUNK_BUDGET = 4_000_000

#: Targets whose thresholds and cutoffs an evaluator keeps; the oldest
#: entry goes when a new target would pass this.  A miss costs one
#: ``kth_other`` and one cutoff build: about 100 us with 1,200 objects
#: and 400 queries on a 2-CPU x86-64 host, so a long-lived ``serve``
#: worker stays bounded for little.
_TARGET_CACHE_SIZE = 256


def _slab_crossings(
    old_values: np.ndarray, new_values: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Did a query's region against an intersection hyperplane change?

    Elementwise over matching shapes: ``old_values``/``new_values`` are
    the queries' signed offsets ``q . (position - p_l)`` against the
    old/new intersection hyperplane of one other object ``l`` and
    ``theta`` that object's scores ``q . p_l``.  Each offset falls in
    region -1, 0 or +1, where region ``0`` is the relative tie band that
    :func:`~repro.core.subdomain._beats_batch` resolves by object id.  A
    query is affected when its region differs between the two
    hyperplanes: the band must count as its own region, because a move
    that enters or leaves it changes membership through the tie rule
    even when the raw sign of the offset never flips (the ESE-parity bug
    the correctness harness guards).

    The regions approximate Eq. 6's own test: an offset is ``s -
    theta`` in real arithmetic, but Eq. 6 compares the score with the
    tie interval ``[fl(theta - b), fl(theta + b)]``, each side its own
    product, so an offset within rounding of ``+-b`` may fall in the
    other region.  :meth:`StrategyEvaluator.evaluate_affected` re-tests
    those queries itself.
    """
    band = EPS_TIE * np.maximum(1.0, np.abs(theta))
    old_region = (old_values > band).astype(np.int8) - (old_values < -band).astype(np.int8)
    new_region = (new_values > band).astype(np.int8) - (new_values < -band).astype(np.int8)
    return old_region != new_region


#: Rows per byte-wide pass of :func:`_column_counts`: 255 ones fit a byte.
_BYTE_ROWS = 255


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """Per column, how many rows of a boolean block are set.

    Summed as bytes, 255 rows at a time, which spares numpy a cast per
    element: on a 600 x 500 block, 38 us against 99 us summed as int32
    (numpy 2.4, 2-CPU x86-64 host).
    """
    flags = mask.view(np.uint8)
    counts = np.add.reduce(flags[:_BYTE_ROWS], axis=0, dtype=np.uint8).astype(np.intp)
    for start in range(_BYTE_ROWS, flags.shape[0], _BYTE_ROWS):
        counts += np.add.reduce(flags[start : start + _BYTE_ROWS], axis=0, dtype=np.uint8)
    return counts


def _eq6_hits(scores: np.ndarray, cutoffs: Eq6Cutoffs) -> np.ndarray:
    """Eq. 6 membership of an ``(m, b)`` score block: one compare, then fix-ups.

    Equal to :func:`~repro.core.subdomain._beats_batch` bit for bit (see
    :func:`~repro.core.subdomain._eq6_cutoffs`); only the sparse
    ``always`` rows are written a second time.
    """
    hits = scores < cutoffs.cut[:, None]
    if cutoffs.always.size:
        hits[cutoffs.always] = True
    return hits


def _eq6_counts(scores: np.ndarray, cutoffs: Eq6Cutoffs) -> np.ndarray:
    """Per column of an ``(m, b)`` score block, how many queries it hits.

    :func:`_eq6_hits` summed over the rows, without writing the
    ``always`` rows back: they add the scores no cutoff passes (NaN and
    ``+inf``).
    """
    counts = _column_counts(scores < cutoffs.cut[:, None])
    if cutoffs.always.size:
        counts += _column_counts(~(scores[cutoffs.always] < np.inf))
    return counts


class StrategyEvaluator:
    """ESE over a :class:`~repro.core.subdomain.SubdomainIndex`.

    Thresholds come from :meth:`~repro.core.subdomain.SubdomainIndex.kth_other`.
    """

    def __init__(self, index: SubdomainIndex) -> None:
        self.index = index
        self._target_cache: dict[int, tuple[np.ndarray, np.ndarray, Eq6Cutoffs]] = {}
        # Epoch-based invalidation: the cache remembers which index
        # epoch it was built at and is dropped lazily when the index
        # reports a newer one — so any mutation, including a direct
        # repro.core.updates call that bypasses every engine wrapper,
        # invalidates it without anyone having to notify us.
        self._epoch = index.epoch
        self.full_evaluations = 0  #: vectorized H computations
        self.incremental_evaluations = 0  #: affected-subspace H computations
        self.affected_retrieved = 0  #: query points pulled from affected subspaces

    # ------------------------------------------------------------------
    # Threshold cache
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Drop state built at an older index epoch (lazy invalidation)."""
        if self._epoch != self.index.epoch:
            self._target_cache.clear()
            self._epoch = self.index.epoch
            self._refresh()

    def _refresh(self) -> None:
        """Hook for subclasses holding extra epoch-scoped state."""

    def _cached(self, target: int) -> tuple[np.ndarray, np.ndarray, Eq6Cutoffs]:
        """The target's ``(kth_ids, theta)`` and the Eq. 6 cutoffs built from them."""
        self._sync()
        cached = self._target_cache.get(target)
        if cached is None:
            kth_ids, theta = self.index.kth_other(target)
            cached = (kth_ids, theta, _eq6_cutoffs(theta, target, kth_ids))
            if len(self._target_cache) >= _TARGET_CACHE_SIZE:
                del self._target_cache[next(iter(self._target_cache))]
            self._target_cache[target] = cached
        return cached

    def thresholds(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(kth_ids, theta)`` for a target (see Eq. 6)."""
        kth_ids, theta, __ = self._cached(target)
        return kth_ids, theta

    def cutoffs(self, target: int) -> Eq6Cutoffs:
        """The target's cached Eq. 6 cutoffs: a score hits query ``i`` only below ``cut[i]``."""
        return self._cached(target)[2]

    # ------------------------------------------------------------------
    # Hit counting
    # ------------------------------------------------------------------
    def hits_mask(self, target: int, position: np.ndarray | None = None) -> np.ndarray:
        """Mask of queries hit by the target at ``position``.

        ``position`` is the target's *internal* attribute vector
        (defaults to its current location in the dataset), so the same
        cache answers "what if the target moved here?" for free.
        """
        cutoffs = self._cached(target)[2]
        if position is None:
            position = self.index.dataset.matrix[target]
        position = np.asarray(position, dtype=float)
        if position.shape != (self.index.dataset.dim,):
            raise ValidationError(
                f"position shape {position.shape} != ({self.index.dataset.dim},)"
            )
        scores = self.index.queries.weights @ position
        self.full_evaluations += 1
        return _eq6_hits(scores[:, None], cutoffs)[:, 0]

    def hits(self, target: int, position: np.ndarray | None = None) -> int:
        """``H(target)`` at the given (or current) position."""
        return int(self.hits_mask(target, position).sum())

    def evaluate(self, target: int, strategy: np.ndarray) -> int:
        """``H(p + s)`` for an internal strategy vector ``s``."""
        base = self.index.dataset.matrix[target]
        return self.hits(target, base + np.asarray(strategy, dtype=float))

    def evaluate_many(self, target: int, positions: np.ndarray) -> np.ndarray:
        """``H`` for a batch of candidate positions, shape ``(c, d)``.

        The batched matrix product is chunked so huge workloads do not
        materialize an ``m x c`` score matrix all at once.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if positions.shape[1] != self.index.dataset.dim:
            raise ValidationError(
                f"positions must be (c, {self.index.dataset.dim}), got {positions.shape}"
            )
        cutoffs = self._cached(target)[2]
        weights = self.index.queries.weights
        m = weights.shape[0]
        c = positions.shape[0]
        out = np.empty(c, dtype=np.intp)
        chunk = max(1, _CHUNK_BUDGET // max(1, m))
        for start in range(0, c, chunk):
            block = positions[start : start + chunk]
            scores = weights @ block.T  # (m, b)
            out[start : start + block.shape[0]] = _eq6_counts(scores, cutoffs)
        self.full_evaluations += c
        return out

    # ------------------------------------------------------------------
    # Affected-subspace path (Algorithm 2, literal)
    # ------------------------------------------------------------------
    def affected_queries(
        self, target: int, old_position: np.ndarray, new_position: np.ndarray
    ) -> np.ndarray:
        """Queries inside any affected subspace of the move (Eq. 4-5).

        For every other object ``l``, the affected subspace is the slab
        between the old intersection ``q . (p_old - p_l) = 0`` and the
        new one ``q . (p_new - p_l) = 0``; a query's result can change
        only if it lies strictly between them (Fact 1).

        The slab test is widened by the same relative tie band that
        :func:`~repro.core.subdomain._beats_batch` applies (see
        :func:`_slab_crossings`): a query whose score enters or leaves the
        band changes membership through the id tie-break without the raw
        side of either hyperplane flipping, so it must count as
        affected for :meth:`evaluate_affected` to equal
        :meth:`evaluate`.  The band's ends hold only up to the offsets'
        rounding, so :meth:`evaluate_affected` adds the scores that lie
        within rounding of their cutoff.

        The slab classification runs over every query as one batched
        pass per chunk of other objects through :func:`_slab_crossings`,
        the hottest loop of the incremental path.
        """
        dataset = self.index.dataset
        old_position = np.asarray(old_position, dtype=float)
        new_position = np.asarray(new_position, dtype=float)
        others = np.asarray(
            [l for l in range(dataset.n) if l != target], dtype=np.intp
        )
        points = self.index.queries.weights  # (m, d)
        m = points.shape[0]
        if m == 0 or others.size == 0:
            return np.empty(0, dtype=np.intp)
        mask = np.zeros(m, dtype=bool)
        # Chunk the (m, b) slab matrices like evaluate_many chunks its
        # score blocks, so huge workloads never materialize m x (n-1).
        chunk = max(1, _CHUNK_BUDGET // m)
        for start in range(0, others.shape[0], chunk):
            block = dataset.matrix[others[start : start + chunk]]  # (b, d)
            theta = points @ block.T  # (m, b) other-object scores
            old_values = points @ (old_position - block).T
            new_values = points @ (new_position - block).T
            mask |= _slab_crossings(old_values, new_values, theta).any(axis=1)
        affected = np.flatnonzero(mask)
        self.affected_retrieved += int(affected.shape[0])
        return affected

    def evaluate_affected(
        self,
        target: int,
        old_position: np.ndarray,
        new_position: np.ndarray,
        base_mask: np.ndarray | None = None,
    ) -> tuple[int, np.ndarray]:
        """Incremental ``H`` update touching only affected queries.

        Returns ``(hits, new_mask)``.  Unaffected queries keep their
        previous membership (Fact 1); affected ones are re-tested with
        the threshold shortcut (the rank-switch of Fact 2 collapses to
        re-checking Eq. 6 against the unchanged k-th-other threshold).

        So is every query whose score, before or after the move, lies
        within rounding of its cutoff, where the slab test's offsets
        (another product) may disagree with Eq. 6: within ``(2 d + 4)
        eps sum |q| (|p_kth| + max(|old|, |new|))``.  The new scores are
        rows of the one product :meth:`hits_mask` computes.
        """
        old_position = np.asarray(old_position, dtype=float)
        new_position = np.asarray(new_position, dtype=float)
        if base_mask is None:
            base_mask = self.hits_mask(target, old_position)
        new_mask = base_mask.copy()
        kth_ids, __, cutoffs = self._cached(target)
        matrix, weights = self.index.dataset.matrix, self.index.queries.weights
        old_scores, new_scores = weights @ old_position, weights @ new_position
        reach = np.maximum(np.abs(old_position), np.abs(new_position))
        terms = (np.abs(weights) * (np.abs(matrix[kth_ids]) + reach)).sum(axis=1)
        slack = (2 * matrix.shape[1] + 4) * np.finfo(float).eps * terms
        gap = np.minimum(np.abs(old_scores - cutoffs.cut), np.abs(new_scores - cutoffs.cut))
        affected = np.union1d(
            self.affected_queries(target, old_position, new_position), np.flatnonzero(gap <= slack)
        )
        if affected.size:
            new_mask[affected] = _eq6_hits(new_scores[affected, None], cutoffs.take(affected))[:, 0]
        self.incremental_evaluations += 1
        return int(new_mask.sum()), new_mask
