"""Batches of improvement queries against one index.

The paper's experiment grids (fig. 7-9) evaluate *many* improvement
queries against *one* index — many targets, or one target under a sweep
of budgets/thresholds.  :func:`run_batch` runs such a batch through the
serial reference loop; a
:class:`~repro.parallel.persistent.PersistentPool`, whose workers keep
the index and their evaluator state warm across batches, runs it in
parallel through :meth:`~repro.parallel.persistent.PersistentPool.run`.
Forking a pool for each call cost more than it saved: over 24 requests
at bench scale it was slower than the serial loop.

Engine-side imports happen lazily at call time, so importing
:mod:`repro.parallel` never loads :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cost import CostFunction
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.results import IQResult
    from repro.core.strategy import StrategySpace

__all__ = ["IQRequest", "run_batch"]


@dataclass(frozen=True)
class IQRequest:
    """One improvement query of a batch.

    ``goal`` is the kind-specific objective: the hit threshold ``tau``
    for ``kind="min_cost"``, the cost budget for ``kind="max_hit"``.
    """

    kind: str  #: "min_cost" | "max_hit"
    target: int  #: object to improve
    goal: float  #: tau (min_cost) or budget (max_hit)
    method: str = "efficient"  #: solver name (see get_solver)
    cost: "CostFunction | None" = None
    space: "StrategySpace | None" = None


def _run_one(engine: "ImprovementQueryEngine", request: IQRequest) -> "IQResult":
    """Execute one request against the engine (serial and worker path)."""
    if request.kind == "min_cost":
        # Passed on unconverted: the solver boundary rejects a tau that
        # is not a whole number with a typed error.
        return engine.min_cost(
            request.target,
            request.goal,  # type: ignore[arg-type]
            cost=request.cost,
            space=request.space,
            method=request.method,
        )
    return engine.max_hit(
        request.target,
        float(request.goal),
        cost=request.cost,
        space=request.space,
        method=request.method,
    )


def _validate_requests(requests: tuple[IQRequest, ...]) -> None:
    """Refuse a bad kind, method or goal before the pool runs."""
    from repro.core.solvers import QUERY_KINDS, check_goal, get_solver

    for request in requests:
        if request.kind not in QUERY_KINDS:
            raise ValidationError(
                f"request kind must be one of {QUERY_KINDS}, got {request.kind!r}"
            )
        get_solver(request.method)  # unknown methods fail before the pool starts
        check_goal(request.kind, request.goal)


def run_batch(
    engine: "ImprovementQueryEngine", requests: "Sequence[IQRequest]"
) -> "list[IQResult]":
    """Evaluate a batch serially, results in request order.

    The reference loop every pooled run must match;
    :meth:`~repro.parallel.persistent.PersistentPool.run` is the
    parallel path.
    """
    batch = tuple(requests)
    _validate_requests(batch)
    return [_run_one(engine, request) for request in batch]
