"""Cost functions for improvement strategies.

The paper lets the query issuer supply an arbitrary cost function
``Cost_p(s)`` measuring the price of adjusting the target's attributes
by ``s`` (§3.1).  The experiments use the Euclidean cost of Eq. 30::

    Cost(s) = sqrt(sum_i s_i^2)

This module provides that cost plus the family a practitioner would
actually reach for (weighted L1/L2, asymmetric per-direction pricing,
and arbitrary callables).  Each built-in cost declares enough structure
for :mod:`repro.optimize.hit_cost` to solve the "cheapest strategy that
hits one query" subproblem (Eq. 13-14) in closed form, a whole batch of
queries at once; :class:`CallableCost` falls back to a numeric solver,
one query at a time.

All costs must satisfy ``cost(0) == 0`` and ``cost(s) >= 0``; built-ins
are convex, which the greedy searches implicitly rely on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY
from repro.errors import ValidationError

__all__ = [
    "CostFunction",
    "L2Cost",
    "L1Cost",
    "LInfCost",
    "AsymmetricLinearCost",
    "CallableCost",
    "NAMED_COSTS",
    "euclidean_cost",
]


def _check_weights(weights: "np.typing.ArrayLike | None", dim: int) -> np.ndarray:
    if weights is None:
        return np.ones(dim)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dim,):
        raise ValidationError(f"weights shape {weights.shape} != ({dim},)")
    if np.any(weights <= 0) or not np.isfinite(weights).all():
        raise ValidationError("cost weights must be positive and finite")
    return weights


class CostFunction(ABC):
    """A convex, non-negative cost of an improvement strategy."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValidationError(f"dim must be positive, got {dim}")
        self.dim = dim

    @abstractmethod
    def __call__(self, s: np.ndarray) -> float:
        """Cost of applying strategy ``s``."""

    def _coerce(self, s: "np.typing.ArrayLike") -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,):
            raise ValidationError(f"strategy shape {s.shape} != ({self.dim},)")
        return s


class L2Cost(CostFunction):
    """Weighted Euclidean cost ``sqrt(sum w_i s_i^2)`` (Eq. 30 when w=1)."""

    def __init__(self, dim: int, weights: "np.typing.ArrayLike | None" = None) -> None:
        super().__init__(dim)
        self.weights = _check_weights(weights, dim)

    def __call__(self, s: "np.typing.ArrayLike") -> float:
        s = self._coerce(s)
        return float(np.sqrt(np.sum(self.weights * s * s)))


class L1Cost(CostFunction):
    """Weighted Manhattan cost ``sum w_i |s_i|`` — per-unit pricing."""

    def __init__(self, dim: int, weights: "np.typing.ArrayLike | None" = None) -> None:
        super().__init__(dim)
        self.weights = _check_weights(weights, dim)

    def __call__(self, s: "np.typing.ArrayLike") -> float:
        s = self._coerce(s)
        return float(np.sum(self.weights * np.abs(s)))


class LInfCost(CostFunction):
    """Weighted Chebyshev cost ``max w_i |s_i|`` — bottleneck pricing."""

    def __init__(self, dim: int, weights: "np.typing.ArrayLike | None" = None) -> None:
        super().__init__(dim)
        self.weights = _check_weights(weights, dim)

    def __call__(self, s: "np.typing.ArrayLike") -> float:
        s = self._coerce(s)
        return float(np.max(self.weights * np.abs(s), initial=0.0))


class AsymmetricLinearCost(CostFunction):
    """Linear cost with different prices for increases and decreases.

    ``cost(s) = sum_i up_i * max(s_i, 0) + down_i * max(-s_i, 0)``.
    Captures e.g. "raising resolution is expensive, lowering it is
    cheap but not free".  Prices must be positive (a zero price would
    make unbounded free movement optimal).
    """

    def __init__(
        self,
        dim: int,
        up: "np.typing.ArrayLike | None" = None,
        down: "np.typing.ArrayLike | None" = None,
    ) -> None:
        super().__init__(dim)
        self.up = _check_weights(up, dim)
        self.down = _check_weights(down, dim)

    def __call__(self, s: "np.typing.ArrayLike") -> float:
        s = self._coerce(s)
        return float(np.sum(self.up * np.clip(s, 0, None) - self.down * np.clip(s, None, 0)))


class CallableCost(CostFunction):
    """Wraps a user-supplied ``f(s) -> float``.

    The wrapped function is assumed convex with ``f(0) = 0``; the
    library solves its hit subproblems numerically, by projected
    subgradient one query at a time
    (:func:`repro.optimize.hit_cost.min_cost_to_hit_batch`), so
    non-convex costs yield approximate (still feasible) strategies.
    """

    def __init__(self, dim: int, fn: "Callable[[np.ndarray], float]") -> None:
        super().__init__(dim)
        if not callable(fn):
            raise ValidationError("fn must be callable")
        self.fn = fn
        value_at_zero = float(fn(np.zeros(dim)))
        if abs(value_at_zero) > EPS_FEASIBILITY:
            raise ValidationError(f"cost(0) must be 0, got {value_at_zero}")

    def __call__(self, s: "np.typing.ArrayLike") -> float:
        value = float(self.fn(self._coerce(s)))
        if value < -EPS_COST or not np.isfinite(value):
            raise ValidationError(f"cost function returned invalid value {value}")
        return max(value, 0.0)


def euclidean_cost(dim: int) -> L2Cost:
    """The paper's experimental cost function (Eq. 30)."""
    return L2Cost(dim)


#: The costs the front ends name: ``repro improve --cost`` and SQL ``COST``.
NAMED_COSTS: dict[str, type[CostFunction]] = {"L1": L1Cost, "L2": L2Cost, "LINF": LInfCost}
