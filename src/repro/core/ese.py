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
  — this is what makes the inner loop of Algorithms 3/4 cheap.

Two evaluation paths are provided:

* :meth:`StrategyEvaluator.evaluate` / :meth:`evaluate_many` — the
  vectorized production path, ``O(m d)`` per candidate.
* :meth:`StrategyEvaluator.evaluate_affected` — the literal
  affected-subspace formulation: retrieve, via the R-tree, only the
  query points lying between the old and new intersection hyperplanes
  (Eq. 4-5) and update the previous hit mask incrementally.  Used by
  the tests as a cross-check and by the ESE-ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.core.subdomain import _TIE_TOL, SubdomainIndex, _beats, _beats_batch
from repro.errors import ValidationError
from repro.index.rtree import Rect

__all__ = ["StrategyEvaluator"]

#: Candidate-batch matrices are chunked to stay under this many floats.
_CHUNK_BUDGET = 4_000_000


def _slab_region(value: float, theta: float) -> int:
    """Classify a query against one intersection hyperplane: -1 / 0 / +1.

    ``value`` is the query's signed offset ``q . (position - p_l)`` and
    ``theta`` the other object's score ``q . p_l``.  Region ``0`` is the
    relative tie band that :func:`~repro.core.subdomain._beats` resolves
    by object id; the affected-subspace retrieval must treat it as its
    own region, because a move that enters or leaves the band changes
    membership through the tie rule even when the raw sign of ``value``
    never flips (the ESE-parity bug the correctness harness guards).
    """
    band = _TIE_TOL * max(1.0, abs(theta))
    if value < -band:
        return -1
    if value > band:
        return 1
    return 0


def _slab_crossings(
    old_values: np.ndarray, new_values: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """:func:`_slab_region` over whole blocks: did the region change?

    Elementwise over matching shapes: ``old_values``/``new_values`` are
    the queries' signed offsets against the old/new intersection
    hyperplane of one other object and ``theta`` that object's scores.
    A query is affected when its region (-1 / 0 / +1) differs between
    the two hyperplanes.
    """
    band = _TIE_TOL * np.maximum(1.0, np.abs(theta))
    old_region = (old_values > band).astype(np.int8) - (old_values < -band).astype(np.int8)
    new_region = (new_values > band).astype(np.int8) - (new_values < -band).astype(np.int8)
    return old_region != new_region


def _inside_domain(rect: Rect, query_id: int) -> bool:
    """Domain-only R-tree predicate: geometry filters, the slab scan classifies.

    :meth:`StrategyEvaluator.affected_queries` retrieves every query
    point inside the workload domain with one scan, then runs the slab
    test as a batched :func:`_slab_crossings` pass — so the per-leaf
    predicate accepts everything.
    """
    return True


class StrategyEvaluator:
    """ESE over a :class:`~repro.core.subdomain.SubdomainIndex`.

    Thresholds come from :meth:`~repro.core.subdomain.SubdomainIndex.kth_other`,
    the affected-subspace retrieval from the index's query R-tree.
    """

    def __init__(self, index: SubdomainIndex) -> None:
        self.index = index
        self._target_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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

    def thresholds(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(kth_ids, theta)`` for a target (see Eq. 6)."""
        self._sync()
        cached = self._target_cache.get(target)
        if cached is None:
            cached = self.index.kth_other(target)
            self._target_cache[target] = cached
        return cached

    def invalidate(self, target: int | None = None) -> None:
        """Drop cached thresholds eagerly (epoch comparison does this lazily)."""
        if target is None:
            self._target_cache.clear()
        else:
            self._target_cache.pop(target, None)

    # ------------------------------------------------------------------
    # Hit counting
    # ------------------------------------------------------------------
    def hits_mask(self, target: int, position: np.ndarray | None = None) -> np.ndarray:
        """Mask of queries hit by the target at ``position``.

        ``position`` is the target's *internal* attribute vector
        (defaults to its current location in the dataset), so the same
        cache answers "what if the target moved here?" for free.
        """
        kth_ids, theta = self.thresholds(target)
        if position is None:
            position = self.index.dataset.matrix[target]
        position = np.asarray(position, dtype=float)
        if position.shape != (self.index.dataset.dim,):
            raise ValidationError(
                f"position shape {position.shape} != ({self.index.dataset.dim},)"
            )
        scores = self.index.queries.weights @ position
        self.full_evaluations += 1
        return _beats(scores, theta, target, kth_ids)

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
        kth_ids, theta = self.thresholds(target)
        weights = self.index.queries.weights
        m = weights.shape[0]
        c = positions.shape[0]
        out = np.empty(c, dtype=np.intp)
        chunk = max(1, _CHUNK_BUDGET // max(1, m))
        for start in range(0, c, chunk):
            block = positions[start : start + chunk]
            scores = weights @ block.T  # (m, b)
            out[start : start + block.shape[0]] = _beats_batch(
                scores, theta, target, kth_ids
            ).sum(axis=0)
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
        only if it lies strictly between them (Fact 1).  The retrieval
        runs through the R-tree with the slab conditions as the leaf
        predicate, exactly the range-query formulation of §4.1.

        The slab test is widened by the same relative tie band that
        :func:`~repro.core.subdomain._beats` applies (see
        :func:`_slab_region`): a query whose score enters or leaves the
        band changes membership through the id tie-break without the raw
        side of either hyperplane flipping, so it must count as
        affected for :meth:`evaluate_affected` to equal
        :meth:`evaluate`.

        The retrieval runs in two stages: one R-tree scan collects the
        candidate query points inside the domain, then the slab
        classification runs as one batched pass per chunk of other
        objects through :func:`_slab_crossings` instead of a
        per-candidate python closure — the hottest loop of the
        incremental path.
        """
        dataset = self.index.dataset
        old_position = np.asarray(old_position, dtype=float)
        new_position = np.asarray(new_position, dtype=float)
        others = np.asarray(
            [l for l in range(dataset.n) if l != target], dtype=np.intp
        )
        domain = Rect.from_arrays(
            np.zeros(dataset.dim), np.ones(dataset.dim)
        ) if self.index.queries.normalized else self._workload_bbox()
        candidates = np.asarray(
            self.index.rtree.search_where(domain, _inside_domain), dtype=np.intp
        )
        candidates.sort()  # ascending ids, like the set-union formulation
        if candidates.size == 0 or others.size == 0:
            return np.empty(0, dtype=np.intp)
        points = self.index.queries.weights[candidates]  # (c, d)
        mask = np.zeros(candidates.shape[0], dtype=bool)
        # Chunk the (c, b) slab matrices like evaluate_many chunks its
        # score blocks, so huge workloads never materialize c x (n-1).
        chunk = max(1, _CHUNK_BUDGET // max(1, candidates.shape[0]))
        for start in range(0, others.shape[0], chunk):
            block = dataset.matrix[others[start : start + chunk]]  # (b, d)
            theta = points @ block.T  # (c, b) other-object scores
            old_values = points @ (old_position - block).T
            new_values = points @ (new_position - block).T
            mask |= _slab_crossings(old_values, new_values, theta).any(axis=1)
        affected = candidates[mask]
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
        """
        if base_mask is None:
            base_mask = self.hits_mask(target, old_position)
        new_mask = base_mask.copy()
        affected = self.affected_queries(target, old_position, new_position)
        if affected.size:
            kth_ids, theta = self.thresholds(target)
            weights = self.index.queries.weights[affected]
            scores = weights @ np.asarray(new_position, dtype=float)
            new_mask[affected] = _beats(
                scores, theta[affected], target, kth_ids[affected]
            )
        self.incremental_evaluations += 1
        return int(new_mask.sum()), new_mask

    def _workload_bbox(self) -> Rect:
        weights = self.index.queries.weights
        return Rect.from_arrays(weights.min(axis=0), weights.max(axis=0))
