"""Top-k query workloads.

Each query (paper §3.1) carries a normalized weight vector in
``[0, 1]^d`` — the input point for the object functions — and its own
``k``.  :class:`QuerySet` stores a whole workload column-wise so every
engine operation can stay vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.core.objects import check_id
from repro.errors import ValidationError

__all__ = ["QuerySet"]

#: Largest accepted ``k``: a bigger float could not be cast to int64.
_MAX_K = 2.0**62


def _whole_ks(ks: "np.typing.ArrayLike") -> np.ndarray:
    """``ks`` as integers; each must be a finite whole number (``3.0`` is 3)."""
    values = np.asarray(ks)
    if values.dtype.kind in "iu":
        return values.astype(int)
    try:
        floats = values.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"k must be a whole number, got {ks!r}") from exc
    whole = np.isfinite(floats) & (np.abs(floats) < _MAX_K)
    whole[whole] = floats[whole] == np.floor(floats[whole])
    if not whole.all():
        raise ValidationError(
            f"k must be a finite whole number, got {floats[~whole].ravel()[0]}"
        )
    return floats.astype(int)


class QuerySet:
    """A workload of ``m`` top-k queries over a ``d``-dimensional domain.

    Parameters
    ----------
    weights:
        ``(m, d)`` array of query weight vectors.  The paper normalizes
        weights to ``[0, 1]``; pass ``normalized=False`` to skip the
        range check for unnormalized workloads (everything still works,
        only the default domain box in the subdomain index changes).
    ks:
        Per-query ``k``; a scalar broadcasts to every query.
    """

    def __init__(
        self,
        weights: np.ndarray,
        ks: "np.typing.ArrayLike",
        normalized: bool = True,
    ) -> None:
        weights = np.array(weights, dtype=float)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValidationError("weights contain non-finite values")
        if normalized and (weights.min(initial=0.0) < 0 or weights.max(initial=0.0) > 1):
            raise ValidationError(
                "weights outside [0, 1]; pass normalized=False for unnormalized workloads"
            )
        ks = np.broadcast_to(_whole_ks(ks), (weights.shape[0],)).copy()
        if weights.shape[0] and ks.min() < 1:
            raise ValidationError("every k must be >= 1")
        self._weights = weights
        self._ks = ks
        self.normalized = normalized

    @property
    def m(self) -> int:
        return self._weights.shape[0]

    @property
    def dim(self) -> int:
        return self._weights.shape[1]

    def __len__(self) -> int:
        return self.m

    @property
    def weights(self) -> np.ndarray:
        view = self._weights.view()
        view.setflags(write=False)
        return view

    @property
    def ks(self) -> np.ndarray:
        view = self._ks.view()
        view.setflags(write=False)
        return view

    @property
    def max_k(self) -> int:
        return int(self._ks.max()) if self.m else 0

    def query(self, query_id: int) -> tuple[np.ndarray, int]:
        """The ``(weights, k)`` pair of one query."""
        self._check_id(query_id)
        return self._weights[query_id].copy(), int(self._ks[query_id])

    # -- mutation (returns new sets; ids above a removal shift down) ------
    def with_query(self, weights: np.ndarray, k: int) -> tuple["QuerySet", int]:
        """A new workload with one query appended; returns (set, id)."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.dim,):
            raise ValidationError(f"query shape {weights.shape} != ({self.dim},)")
        ks = np.concatenate([self._ks, _whole_ks([k])])
        stacked = np.vstack([self._weights, weights[None, :]])
        return QuerySet(stacked, ks, normalized=self.normalized), self.m

    def without_query(self, query_id: int) -> "QuerySet":
        """A new workload with one query removed (ids above shift down)."""
        self._check_id(query_id)
        mask = np.ones(self.m, dtype=bool)
        mask[query_id] = False
        return QuerySet(self._weights[mask], self._ks[mask], normalized=self.normalized)

    def subset(self, query_ids: "np.typing.ArrayLike") -> "QuerySet":
        """A new workload restricted to the given query ids (in order)."""
        query_ids = np.asarray(query_ids, dtype=np.intp)
        return QuerySet(self._weights[query_ids], self._ks[query_ids], normalized=self.normalized)

    def _check_id(self, query_id: int) -> None:
        check_id(query_id, self.m, "query")

    def __repr__(self) -> str:
        return f"QuerySet(m={self.m}, dim={self.dim}, max_k={self.max_k})"
