"""Signature-based bookkeeping for hyperplane arrangements.

Algorithm 1 of the paper partitions the indexed query points with one
intersection hyperplane at a time (binary space partitioning).  The
partition it produces is fully determined by the *sign vector* of every
query point over the hyperplane set: two points share a (non-empty)
subdomain iff they lie on the same side of every hyperplane.  This
module holds the one side test (:func:`signature_matrix`) and the one
grouping of sign vectors into cells (:func:`unique_signatures`) that
:class:`repro.core.subdomain.SubdomainIndex` builds and maintains its
partition with, plus the paper's bound on the number of cells.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS
from repro.errors import ValidationError

__all__ = [
    "signature_matrix",
    "unique_signatures",
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
    side ``+1``.  For the intersection normal ``n = p_a - p_b`` (Eq. 2)
    *above* means ``f_a(q) <= f_b(q)``: under the lower-is-better
    ranking, ``p_a`` ranks at least as well as ``p_b`` at ``q``.
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
