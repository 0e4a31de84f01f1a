"""Object datasets interpreted as functions.

The paper's key idea (§3.2) is to flip the usual roles: each object
``p`` becomes the linear function ``f_p(q) = q . p`` over the query
domain, and each top-k query becomes an input point.  A
:class:`Dataset` therefore stores the object matrix and exposes it both
as points (rows) and as a function family that can be evaluated on
query points.

Ranking sense
-------------
Internally the library always uses the paper's formal convention —
*lower score wins* (Eq. 6).  Many applications state preferences the
other way ("higher utility is better", like the camera example of
Fig. 1); construct the dataset with ``sense="max"`` and the attribute
matrix is negated on the way in, which makes the two conventions
coincide.  Strategies are expressed in the *original* attribute space
and converted at the boundary (:meth:`Dataset.to_internal_strategy`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = ["Dataset", "check_id"]

_SENSES = ("min", "max")


def check_id(value: object, size: int, what: str) -> int:
    """``value`` as a dense id in ``[0, size)``; raises :class:`ValidationError` otherwise.

    An id must be an integer: ``1.5`` or ``1.0`` is refused rather than
    truncated or left for numpy indexing to reject.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} id must be an integer, got {value!r}")
    if not 0 <= value < size:
        raise ValidationError(f"{what} id {value} out of range [0, {size})")
    return int(value)


class Dataset:
    """A set of objects, each a point in d-dimensional attribute space.

    Parameters
    ----------
    attributes:
        ``(n, d)`` array of attribute values, in the user's convention.
    names:
        Optional attribute names (length ``d``); purely cosmetic but
        used by the DBMS layer and examples for readable reports.
    sense:
        ``"min"`` (paper default: lower score wins) or ``"max"``.
    """

    def __init__(
        self,
        attributes: np.ndarray,
        names: "Sequence[str] | None" = None,
        sense: str = "min",
    ) -> None:
        attributes = np.array(attributes, dtype=float)
        if attributes.ndim != 2:
            raise ValidationError(f"attributes must be 2-D, got shape {attributes.shape}")
        if not np.isfinite(attributes).all():
            raise ValidationError("attributes contain non-finite values")
        if sense not in _SENSES:
            raise ValidationError(f"sense must be one of {_SENSES}, got {sense!r}")
        self.sense = sense
        self._external = attributes
        self._sign = 1.0 if sense == "min" else -1.0
        if names is not None:
            names = list(names)
            if len(names) != attributes.shape[1]:
                raise ValidationError(
                    f"{len(names)} names for {attributes.shape[1]} attributes"
                )
        self.names = names

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._external.shape[0]

    @property
    def dim(self) -> int:
        return self._external.shape[1]

    def __len__(self) -> int:
        return self.n

    # -- views ----------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Objects in the user's convention (read-only view)."""
        view = self._external.view()
        view.setflags(write=False)
        return view

    @property
    def matrix(self) -> np.ndarray:
        """Objects in the internal min-convention (read-only).

        Identical to :attr:`points` when ``sense="min"``; negated when
        ``sense="max"``.
        """
        internal = self._sign * self._external
        internal.setflags(write=False)
        return internal

    def point(self, object_id: int) -> np.ndarray:
        """One object's attribute vector (user convention, copied)."""
        self._check_id(object_id)
        return self._external[object_id].copy()

    # -- functions view ---------------------------------------------------
    def evaluate(self, query: np.ndarray) -> np.ndarray:
        """All function values ``f_p(query)`` in internal convention."""
        query = np.asarray(query, dtype=float)
        if query.shape != (self.dim,):
            raise ValidationError(f"query shape {query.shape} != ({self.dim},)")
        return self.matrix @ query

    # -- strategy conversion ----------------------------------------------
    def to_internal_strategy(self, s: np.ndarray) -> np.ndarray:
        """External strategy vector -> internal (min-convention) vector."""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise ValidationError(f"strategy shape {s.shape} != ({self.dim},)")
        return self._sign * s

    def to_external_strategy(self, s: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_internal_strategy` (an involution)."""
        return self.to_internal_strategy(s)

    # -- mutation ---------------------------------------------------------
    def with_object(self, attributes: np.ndarray) -> tuple["Dataset", int]:
        """A new dataset with one object appended; returns (dataset, id)."""
        attributes = np.asarray(attributes, dtype=float)
        if attributes.shape != (self.dim,):
            raise ValidationError(f"object shape {attributes.shape} != ({self.dim},)")
        stacked = np.vstack([self._external, attributes[None, :]])
        return Dataset(stacked, names=self.names, sense=self.sense), self.n

    def without_object(self, object_id: int) -> "Dataset":
        """A new dataset with one object removed (ids above shift down)."""
        self._check_id(object_id)
        mask = np.ones(self.n, dtype=bool)
        mask[object_id] = False
        return Dataset(self._external[mask], names=self.names, sense=self.sense)

    def replaced(self, object_id: int, attributes: np.ndarray) -> "Dataset":
        """A new dataset with one object's attributes replaced."""
        self._check_id(object_id)
        attributes = np.asarray(attributes, dtype=float)
        if attributes.shape != (self.dim,):
            raise ValidationError(f"object shape {attributes.shape} != ({self.dim},)")
        out = self._external.copy()
        out[object_id] = attributes
        return Dataset(out, names=self.names, sense=self.sense)

    def improved(self, object_id: int, s: np.ndarray) -> "Dataset":
        """A new dataset where strategy ``s`` (external) was applied."""
        return self.replaced(object_id, self.point(object_id) + np.asarray(s, dtype=float))

    # -- helpers ----------------------------------------------------------
    def _check_id(self, object_id: int) -> None:
        check_id(object_id, self.n, "object")

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, dim={self.dim}, sense={self.sense!r})"
