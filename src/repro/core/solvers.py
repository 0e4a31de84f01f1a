"""The solver registry: one dispatch point for every IQ processing scheme.

The paper's §6.1 compares five processing schemes (Efficient-IQ, RTA-IQ,
Greedy, Random, Exhaustive).  Each is wrapped here as a :class:`Solver`
and registered by name with the :func:`register_solver` decorator; the
engine's planner resolves ``method="..."`` through :func:`get_solver`
and never dispatches on strings itself.  Third-party schemes plug in
the same way::

    from repro.core.solvers import SolverBase, register_solver

    @register_solver
    class AnnealingSolver(SolverBase):
        name = "annealing"
        candidate_method = "simulated-annealing"

        def min_cost(self, evaluator, target, tau, cost, space=None, **kwargs):
            ...

        def max_hit(self, evaluator, target, budget, cost, space=None, **kwargs):
            ...

after which ``engine.min_cost(..., method="annealing")`` resolves to it
and ``engine.explain(...)`` reports its metadata.

Solver metadata feeds the planner (:mod:`repro.core.plan`):
``evaluator`` names the evaluation engine the solver expects (``"ese"``
or ``"rta"``), ``candidate_method`` describes how candidate strategies
are generated, and ``notes`` carries fallback caveats surfaced by
EXPLAIN.  ``wraps`` lists the raw solver-function names behind the
scheme — the RPR006 lint rule uses it to flag any direct call to those
functions outside this module, keeping the registry the single
dispatch point.
"""

from __future__ import annotations

import math
import numbers
from typing import Protocol, TypeVar, runtime_checkable

from repro.baselines.greedy import greedy_max_hit_iq, greedy_min_cost_iq
from repro.baselines.random_search import random_max_hit_iq, random_min_cost_iq
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.exhaustive import exhaustive_max_hit, exhaustive_min_cost
from repro.core.maxhit import max_hit_iq
from repro.core.mincost import min_cost_iq
from repro.core.results import IQResult
from repro.core.strategy import StrategySpace
from repro.errors import ValidationError

__all__ = [
    "Solver",
    "SolverBase",
    "check_goal",
    "register_solver",
    "get_solver",
    "registered_solvers",
    "solver_function_names",
]

#: The two query kinds a solver must process.
QUERY_KINDS = ("min_cost", "max_hit")


def check_goal(kind: str, goal: object) -> float:
    """Validate an IQ goal, before anything runs.

    The goal must be a real number: a string (numeric or not), a bool,
    ``None`` or a container is refused.  A Min-Cost tau is a finite
    whole number of hits, a Max-Hit budget is any number but NaN (an
    infinite budget means no spending cap).  An integer too large for
    a float is refused too."""
    name = "tau" if kind == "min_cost" else "budget"
    if isinstance(goal, bool) or not isinstance(goal, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {goal!r}")
    try:
        value = float(goal)
    except OverflowError:
        raise ValidationError(f"{name} is too large to represent as a float") from None
    if kind == "min_cost" and not (math.isfinite(value) and value.is_integer()):
        raise ValidationError(f"tau must be a whole number of hits, got {goal}")
    if kind == "max_hit" and math.isnan(value):
        raise ValidationError(f"budget must be a number, got {goal}")
    return value


@runtime_checkable
class Solver(Protocol):
    """What the planner requires of a registered processing scheme."""

    name: str  #: registry key, the engine's ``method=`` value
    evaluator: str  #: evaluation engine the solver expects ("ese" | "rta")
    candidate_method: str  #: how candidate strategies are generated
    wraps: tuple[str, ...]  #: raw solver-function names behind the scheme
    notes: tuple[str, ...]  #: fallback caveats surfaced by EXPLAIN

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Min-Cost IQ in internal convention."""
        ...  # pragma: no cover - protocol

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Max-Hit IQ in internal convention."""
        ...  # pragma: no cover - protocol

    def run(
        self,
        kind: str,
        evaluator: StrategyEvaluator,
        target: int,
        goal: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Dispatch on the query kind ("min_cost" | "max_hit")."""
        ...  # pragma: no cover - protocol


class SolverBase:
    """Convenience base: kind dispatch plus default metadata."""

    name: str = ""
    evaluator: str = "ese"
    candidate_method: str = "unspecified"
    wraps: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Cheapest strategy reaching ``tau`` hits (unsupported by default)."""
        raise ValidationError(f"solver {self.name!r} does not support min_cost")

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Most hits within ``budget`` cost (unsupported by default)."""
        raise ValidationError(f"solver {self.name!r} does not support max_hit")

    def run(
        self,
        kind: str,
        evaluator: StrategyEvaluator,
        target: int,
        goal: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        """Execute one improvement query of the given kind."""
        value = check_goal(kind, goal)
        if kind == "min_cost":
            return self.min_cost(evaluator, target, int(value), cost, space, **kwargs)
        if kind == "max_hit":
            return self.max_hit(evaluator, target, value, cost, space, **kwargs)
        raise ValidationError(f"kind must be one of {QUERY_KINDS}, got {kind!r}")


_REGISTRY: dict[str, Solver] = {}

_S = TypeVar("_S", bound=type)


def register_solver(cls: _S) -> _S:
    """Class decorator: instantiate and register a solver by its name."""
    solver = cls()
    if not isinstance(solver, Solver):
        raise ValidationError(
            f"{cls.__name__} does not implement the Solver protocol"
        )
    if not solver.name:
        raise ValidationError(f"{cls.__name__} must set a non-empty name")
    if solver.name in _REGISTRY:
        raise ValidationError(f"solver {solver.name!r} is already registered")
    _REGISTRY[solver.name] = solver
    return cls


def registered_solvers() -> tuple[str, ...]:
    """Sorted names of every registered solver (the valid ``method`` values)."""
    return tuple(sorted(_REGISTRY))


def get_solver(name: str) -> Solver:
    """Resolve a solver by name; unknown names list the registry contents."""
    solver = _REGISTRY.get(name)
    if solver is None:
        raise ValidationError(
            f"method must be one of {registered_solvers()}, got {name!r}"
        )
    return solver


def solver_function_names() -> frozenset[str]:
    """Raw solver-function names wrapped by any registered solver.

    The RPR006 lint rule flags direct calls to these outside this
    module, so the set tracks the registry instead of a hand-kept list.
    """
    return frozenset(name for solver in _REGISTRY.values() for name in solver.wraps)


# ----------------------------------------------------------------------
# The paper's five processing schemes (§6.1)
# ----------------------------------------------------------------------
@register_solver
class EfficientSolver(SolverBase):
    """Efficient-IQ: greedy search with ESE candidate evaluation."""

    name = "efficient"
    evaluator = "ese"
    candidate_method = "batched-closed-form"
    wraps = ("min_cost_iq", "max_hit_iq")

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return min_cost_iq(evaluator, target, tau, cost, space, **kwargs)

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return max_hit_iq(evaluator, target, budget, cost, space, **kwargs)


@register_solver
class RTASolver(EfficientSolver):
    """RTA-IQ: the same greedy search, hit counts via reverse top-k."""

    name = "rta"
    evaluator = "rta"
    wraps = ("min_cost_iq", "max_hit_iq", "rta_min_cost_iq", "rta_max_hit_iq")
    notes = (
        "hit counts via RTA threshold pruning; membership listing falls back to ESE",
    )


@register_solver
class GreedySolver(SolverBase):
    """Greedy baseline: repeatedly hit the single cheapest query."""

    name = "greedy"
    evaluator = "ese"
    candidate_method = "cheapest-single-query"
    wraps = ("greedy_min_cost_iq", "greedy_max_hit_iq")

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return greedy_min_cost_iq(evaluator, target, tau, cost, space, **kwargs)

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return greedy_max_hit_iq(evaluator, target, budget, cost, space, **kwargs)


@register_solver
class RandomSolver(SolverBase):
    """Random baseline: best of N uniformly sampled strategies."""

    name = "random"
    evaluator = "ese"
    candidate_method = "uniform-sampling"
    wraps = ("random_min_cost_iq", "random_max_hit_iq")
    notes = ("stochastic: quality depends on the attempt budget and seed",)

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return random_min_cost_iq(evaluator, target, tau, cost, space, **kwargs)

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return random_max_hit_iq(evaluator, target, budget, cost, space, **kwargs)


@register_solver
class ExhaustiveSolver(SolverBase):
    """Exact subset enumeration — tiny workloads only (§6.3.2)."""

    name = "exhaustive"
    evaluator = "ese"
    candidate_method = "subset-enumeration"
    wraps = ("exhaustive_min_cost", "exhaustive_max_hit")
    notes = ("exact but exponential in the workload size; tiny instances only",)

    def min_cost(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        tau: int,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return exhaustive_min_cost(evaluator, target, tau, cost, space, **kwargs)

    def max_hit(
        self,
        evaluator: StrategyEvaluator,
        target: int,
        budget: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
        **kwargs: object,
    ) -> IQResult:
        return exhaustive_max_hit(evaluator, target, budget, cost, space, **kwargs)
