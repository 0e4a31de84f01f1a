"""The paper's five IQ processing schemes, one :class:`Solver` record each.

The paper's §6.1 compares five processing schemes (Efficient-IQ, RTA-IQ,
Greedy, Random, Exhaustive).  Each is one record in a fixed table; the
engine's planner resolves ``method="..."`` through :func:`get_solver`
and never dispatches on strings itself.

Solver metadata feeds the planner (:mod:`repro.core.plan`):
``evaluator`` names the evaluation engine the solver expects (``"ese"``
or ``"rta"``), ``candidate_method`` describes how candidate strategies
are generated, and ``notes`` carries fallback caveats surfaced by
EXPLAIN.  A solver takes no tuning option: every iteration cap and
strictness margin is a constant of its search.  The RPR006 lint rule
flags any direct call to a record's ``min_cost`` or ``max_hit``
function outside this module, keeping the table the single dispatch
point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

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
    "check_goal",
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


@dataclass(frozen=True, eq=False)
class Solver:
    """One processing scheme: its two IQ functions and its EXPLAIN metadata.

    ``min_cost`` and ``max_hit`` take ``(evaluator, target, goal, cost,
    space=None)`` in internal convention.  A record compares and hashes
    by identity: it is the one instance of its scheme.
    """

    name: str  #: the engine's ``method=`` value
    min_cost: Callable[..., IQResult]  #: Min-Cost IQ
    max_hit: Callable[..., IQResult]  #: Max-Hit IQ
    candidate_method: str  #: how candidate strategies are generated
    evaluator: str = "ese"  #: evaluation engine the solver expects ("ese" | "rta")
    notes: tuple[str, ...] = ()  #: fallback caveats surfaced by EXPLAIN

    def run(
        self,
        kind: str,
        evaluator: StrategyEvaluator,
        target: int,
        goal: float,
        cost: CostFunction,
        space: StrategySpace | None = None,
    ) -> IQResult:
        """Execute one improvement query of the given kind."""
        value = check_goal(kind, goal)
        if kind == "min_cost":
            return self.min_cost(evaluator, target, int(value), cost, space)
        if kind == "max_hit":
            return self.max_hit(evaluator, target, value, cost, space)
        raise ValidationError(f"kind must be one of {QUERY_KINDS}, got {kind!r}")


#: The paper's five processing schemes (§6.1), by name.
_SOLVERS: Mapping[str, Solver] = {
    solver.name: solver
    for solver in (
        # Efficient-IQ: greedy search with ESE candidate evaluation.
        Solver("efficient", min_cost_iq, max_hit_iq, "batched-closed-form"),
        # RTA-IQ: the same greedy search, hit counts via reverse top-k.
        Solver(
            "rta", min_cost_iq, max_hit_iq, "batched-closed-form",
            evaluator="rta",
            notes=(
                "hit counts via RTA threshold pruning; membership listing falls back to ESE",
            ),
        ),
        # Greedy baseline: repeatedly hit the single cheapest query.
        Solver("greedy", greedy_min_cost_iq, greedy_max_hit_iq, "cheapest-single-query"),
        # Random baseline: best of 512 uniformly sampled strategies, seed 0.
        Solver(
            "random", random_min_cost_iq, random_max_hit_iq, "uniform-sampling",
            notes=("stochastic: quality depends on the attempt budget and seed",),
        ),
        # Exact subset enumeration: tiny workloads only (§6.3.2).
        Solver(
            "exhaustive", exhaustive_min_cost, exhaustive_max_hit, "subset-enumeration",
            notes=("exact but exponential in the workload size; tiny instances only",),
        ),
    )
}


def registered_solvers() -> tuple[str, ...]:
    """Sorted names of the five solvers (the valid ``method`` values)."""
    return tuple(sorted(_SOLVERS))


def get_solver(name: str) -> Solver:
    """Resolve a solver by name; an unknown name lists the valid ones."""
    solver = _SOLVERS.get(name)
    if solver is None:
        raise ValidationError(
            f"method must be one of {registered_solvers()}, got {name!r}"
        )
    return solver


def solver_function_names() -> frozenset[str]:
    """Names of the records' ``min_cost`` and ``max_hit`` functions.

    The RPR006 lint rule flags direct calls to these outside this
    module, so the set follows the table instead of a hand-kept list.
    """
    return frozenset(
        function.__name__
        for solver in _SOLVERS.values()
        for function in (solver.min_cost, solver.max_hit)
    )
