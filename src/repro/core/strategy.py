"""Improvement strategies and the space of valid adjustments.

An improvement strategy (paper Def. 1) is a vector ``s`` added to the
target object's attributes.  The paper additionally requires strategies
to be *valid*: adjusted values must stay in their allowed ranges, and
the issuer may forbid adjusting some attributes at all (§4.2.1, the
``s_i = 0`` constraint).  :class:`StrategySpace` captures those
per-attribute constraints as a box on ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Iterable

import numpy as np

from repro.constants import EPS_FEASIBILITY
from repro.errors import ValidationError

__all__ = ["Strategy", "StrategySpace"]


@dataclass(frozen=True)
class Strategy:
    """An immutable improvement strategy vector with its incurred cost."""

    vector: np.ndarray
    cost: float = 0.0

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=float)
        if vector.ndim != 1:
            raise ValidationError(f"strategy must be 1-D, got shape {vector.shape}")
        if not np.isfinite(vector).all():
            raise ValidationError("strategy contains non-finite values")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "cost", float(self.cost))

    @classmethod
    def zero(cls, dim: int) -> "Strategy":
        return cls(np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def is_zero(self, tol: float = 0.0) -> bool:
        """True when the strategy changes nothing (within ``tol``)."""
        return bool(np.abs(self.vector).max(initial=0.0) <= tol)

    def apply_to(self, point: np.ndarray) -> np.ndarray:
        """The improved object ``p' = p + s``."""
        point = np.asarray(point, dtype=float)
        if point.shape != self.vector.shape:
            raise ValidationError(f"object shape {point.shape} != strategy {self.vector.shape}")
        return point + self.vector

    def compose(self, other: "Strategy") -> "Strategy":
        """Sequential application; costs add (the greedy search accounting)."""
        if other.dim != self.dim:
            raise ValidationError(f"dim mismatch: {self.dim} vs {other.dim}")
        return Strategy(self.vector + other.vector, self.cost + other.cost)


@dataclass
class StrategySpace:
    """Box constraints on valid strategies for one target object.

    ``lower[i] <= s_i <= upper[i]``.  A frozen attribute has
    ``lower[i] == upper[i] == 0``.  Bounds default to unconstrained
    (the paper's ``p_i + s in R^d`` case); use
    :meth:`from_value_range` to derive strategy bounds from allowed
    attribute-value ranges, which is how the analytic tool's
    "adjust attribute X within [a, b]" option is expressed.
    """

    dim: int
    lower: np.ndarray = field(default=None)
    upper: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValidationError(f"dim must be positive, got {self.dim}")
        self.lower = (
            np.full(self.dim, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        )
        self.upper = (
            np.full(self.dim, np.inf) if self.upper is None else np.asarray(self.upper, float)
        )
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ValidationError("bounds must match the dimension")
        if np.any(self.lower > self.upper):
            raise ValidationError("lower bound exceeds upper bound")
        if np.any(self.lower > 0) or np.any(self.upper < 0):
            raise ValidationError("the zero strategy must always be valid")

    @classmethod
    def unconstrained(cls, dim: int) -> "StrategySpace":
        return cls(dim)

    @classmethod
    def from_value_range(
        cls,
        point: np.ndarray,
        value_lower: "np.typing.ArrayLike",
        value_upper: "np.typing.ArrayLike",
    ) -> "StrategySpace":
        """Strategy bounds keeping ``point + s`` within attribute ranges."""
        point = np.asarray(point, dtype=float)
        value_lower = np.asarray(value_lower, dtype=float)
        value_upper = np.asarray(value_upper, dtype=float)
        if np.any(point < value_lower) or np.any(point > value_upper):
            raise ValidationError("object already outside its allowed value range")
        return cls(point.shape[0], lower=value_lower - point, upper=value_upper - point)

    @classmethod
    def from_adjustments(
        cls, dim: int, items: "Iterable[tuple[int, tuple[float, float] | None]]"
    ) -> "StrategySpace":
        """The analytic tool's box: which attributes may change, and how far.

        Each item is ``(attribute, (lower, upper))``, a bounded attribute,
        or ``(attribute, None)``, a frozen one; a later item on an
        attribute replaces an earlier one.  Listing any bounded attribute
        freezes every attribute no item names (the issuer lists what may
        change, §6.1); frozen items freeze only themselves.  ``repro
        improve --adjust/--freeze`` and SQL ``ADJUST`` both build their
        box here.
        """
        items = list(items)
        lower = np.full(dim, -np.inf)
        upper = np.full(dim, np.inf)
        if any(bounds is not None for __, bounds in items):
            lower[:] = upper[:] = 0.0
        for attribute, bounds in items:
            lower[attribute], upper[attribute] = (0.0, 0.0) if bounds is None else bounds
        return cls(dim, lower=lower, upper=upper)

    def freeze(self, attributes: "Iterable[int]") -> "StrategySpace":
        """A copy with the given attribute indices made unadjustable."""
        lower, upper = self.lower.copy(), self.upper.copy()
        for i in attributes:
            if not 0 <= i < self.dim:
                raise ValidationError(f"attribute index {i} out of range")
            lower[i] = upper[i] = 0.0
        return StrategySpace(self.dim, lower=lower, upper=upper)

    def contains(self, s: np.ndarray, tol: float = EPS_FEASIBILITY) -> bool:
        """Is ``s`` a valid strategy within the box (with slack ``tol``)?"""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise ValidationError(f"strategy shape {s.shape} != ({self.dim},)")
        return bool(np.all(s >= self.lower - tol) and np.all(s <= self.upper + tol))

    def clip(self, s: np.ndarray) -> np.ndarray:
        """Project ``s`` onto the box."""
        return np.clip(np.asarray(s, dtype=float), self.lower, self.upper)

    def shifted(self, applied: np.ndarray) -> "StrategySpace":
        """Remaining room after a partial strategy ``applied`` was used.

        The iterative searches apply strategies incrementally; the box
        for the next increment shrinks by what was already consumed so
        the *total* strategy stays valid.
        """
        applied = np.asarray(applied, dtype=float)
        if applied.shape != (self.dim,):
            raise ValidationError(f"applied shape {applied.shape} != ({self.dim},)")
        lower = self.lower - applied
        upper = self.upper - applied
        # Numerical slack: the accumulated strategy may sit a hair past a
        # bound; snap the remaining box so zero stays valid.
        return StrategySpace(self.dim, lower=np.minimum(lower, 0.0), upper=np.maximum(upper, 0.0))
