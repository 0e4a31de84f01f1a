"""Signature-based bookkeeping for hyperplane arrangements.

Algorithm 1 of the paper partitions the indexed query points with one
intersection hyperplane at a time (binary space partitioning).  The
partition it produces is fully determined by the *sign vector* of every
query point over the hyperplane set: two points share a (non-empty)
subdomain iff they lie on the same side of every hyperplane.  This
module provides the vectorized signature machinery that both the literal
Algorithm 1 implementation and the fast path in
:mod:`repro.core.subdomain` are built on, plus standalone helpers for
counting/validating arrangement cells.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.geometry.hyperplane import EPS

__all__ = [
    "signature_matrix",
    "unique_signatures",
    "group_by_signature",
    "cells_touched",
    "max_cells_bound",
]


def signature_matrix(points: np.ndarray, normals: np.ndarray, tol: float = EPS) -> np.ndarray:
    """Side of every point w.r.t. every hyperplane.

    Parameters
    ----------
    points:
        ``(m, d)`` query points.
    normals:
        ``(h, d)`` hyperplane normals.

    Returns
    -------
    ``(m, h)`` ``int8`` matrix with entries ``+1`` (*above*:
    ``q . n <= 0``) or ``-1`` (*below*), matching the paper's convention
    that boundary points count as above: an offset ``<= tol`` is
    side ``+1``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    if normals.size == 0:
        return np.empty((points.shape[0], 0), dtype=np.int8)
    if points.shape[1] != normals.shape[1]:
        raise ValidationError(
            f"dimension mismatch: points are {points.shape[1]}-D, normals {normals.shape[1]}-D"
        )
    values = points @ normals.T
    return np.where(values <= tol, np.int8(1), np.int8(-1))


def unique_signatures(signatures: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The distinct signature rows in byte order: ``(cells, first, group)``.

    ``cells`` is the ``(c, h)`` ``int8`` matrix of distinct rows, ordered
    as their bytes compare; ``first[g]`` is the lowest row index holding
    ``cells[g]`` and ``group[i]`` the index of row ``i``'s cell.  Zero
    columns make one (empty) cell of every row.

    Each row is viewed as one opaque ``h``-byte item, so a single 1-D
    ``np.unique`` groups them; a structured ``np.unique(axis=0)`` pays a
    per-column cost that dominates at exact-mode hyperplane counts.
    """
    signatures = np.ascontiguousarray(np.atleast_2d(np.asarray(signatures, dtype=np.int8)))
    m, h = signatures.shape
    if m == 0 or h == 0:
        count = min(m, 1)
        return signatures[:count], np.zeros(count, dtype=np.intp), np.zeros(m, dtype=np.intp)
    rows = signatures.view(np.dtype((np.void, h))).reshape(m)
    uniq, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return uniq.view(np.int8).reshape(-1, h), first, group


def group_by_signature(signatures: np.ndarray) -> dict[bytes, np.ndarray]:
    """Group row indices by identical signature rows.

    Returns a dict mapping the signature's byte representation to the
    ascending array of row indices sharing it, keys in byte order (see
    :func:`unique_signatures`).
    """
    cells, __, group = unique_signatures(signatures)
    order = np.argsort(group, kind="stable")  # members stay ascending
    bounds = np.cumsum(np.bincount(group, minlength=cells.shape[0]))[:-1]
    return {cell.tobytes(): members for cell, members in zip(cells, np.split(order, bounds))}


def cells_touched(points: np.ndarray, normals: np.ndarray) -> int:
    """Number of distinct arrangement cells containing at least one point."""
    return len(group_by_signature(signature_matrix(points, normals)))


def max_cells_bound(num_hyperplanes: int, dim: int) -> int:
    """Upper bound on the number of cells of a hyperplane arrangement.

    The classical bound (cited by the paper via Schlaefli) for ``h``
    hyperplanes in general position in ``R^d``:
    ``C(h,0) + C(h,1) + ... + C(h,d)``.  Our hyperplanes all pass
    through the origin, so within the positive orthant the true count is
    lower; this bound is used for sanity checks and capacity planning
    only.
    """
    if num_hyperplanes < 0 or dim < 0:
        raise ValidationError("counts must be non-negative")
    total = 0
    term = 1
    for i in range(min(dim, num_hyperplanes) + 1):
        total += term
        term = term * (num_hyperplanes - i) // (i + 1)
    return total
