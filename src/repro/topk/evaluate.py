"""Direct top-k evaluation over linear scores.

The reference evaluator every other component is tested against.
Ranking convention (paper §3.2): each object ``p`` is the linear
function ``f_p(q) = q . p`` and a top-k query returns the ``k`` objects
with the **lowest** scores.  Ties are broken by object id, which makes
every ranking in the library deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["scores", "top_k", "rank_of", "kth_score"]


def scores(objects: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Score vector ``objects @ weights`` with shape checks."""
    objects = np.asarray(objects, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if objects.ndim != 2:
        raise ValidationError(f"objects must be 2-D, got shape {objects.shape}")
    if weights.shape != (objects.shape[1],):
        raise ValidationError(f"weights shape {weights.shape} != ({objects.shape[1]},)")
    return objects @ weights


def top_k(objects: np.ndarray, weights: np.ndarray, k: int) -> list[int]:
    """Ids of the ``k`` lowest-scoring objects, ties by id (full sort)."""
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    vals = scores(objects, weights)
    k = min(k, vals.shape[0])
    # argsort is stable, so equal scores keep ascending-id order.
    order = np.argsort(vals, kind="stable")
    return [int(i) for i in order[:k]]


def rank_of(objects: np.ndarray, weights: np.ndarray, object_id: int) -> int:
    """1-based rank of ``object_id`` under the query (ties by id)."""
    vals = scores(objects, weights)
    if not 0 <= object_id < vals.shape[0]:
        raise ValidationError(f"object id {object_id} out of range")
    mine = vals[object_id]
    better = int(np.sum(vals < mine)) + int(np.sum((vals == mine)[:object_id]))
    return better + 1


def kth_score(
    objects: np.ndarray, weights: np.ndarray, k: int, exclude: int | None = None
) -> tuple[float, int]:
    """Score and id of the k-th ranked object, optionally excluding one.

    This is ``f_{q,k}`` of Eq. 6: the threshold an improved target must
    beat to enter the top-k.  With ``exclude`` set to the target's id the
    threshold refers to the k-th best *other* object, which is the exact
    membership condition for the improved target.

    Returns ``(score, object_id)``; when fewer than ``k`` objects remain
    the score is ``+inf`` and the id ``-1`` (any finite score enters).
    """
    objects = np.asarray(objects, dtype=float)
    vals = scores(objects, weights)
    ids = np.arange(vals.shape[0])
    if exclude is not None:
        mask = ids != exclude
        vals, ids = vals[mask], ids[mask]
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    if vals.shape[0] < k:
        return float("inf"), -1
    order = np.argsort(vals, kind="stable")
    pick = order[k - 1]
    return float(vals[pick]), int(ids[pick])
