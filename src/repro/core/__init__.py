"""Core improvement-query machinery (the paper's contribution)."""

from repro.core.combinatorial import (
    MultiTargetResult,
    combinatorial_max_hit,
    combinatorial_min_cost,
)
from repro.core.cost import (
    AsymmetricLinearCost,
    CallableCost,
    CostFunction,
    L1Cost,
    L2Cost,
    LInfCost,
    euclidean_cost,
)
from repro.core.boundary import (
    externalize_result,
    flip_cost,
    flip_space,
    internalize,
)
from repro.core.engine import ImprovementQueryEngine
from repro.core.ese import StrategyEvaluator
from repro.core.exhaustive import exhaustive_max_hit, exhaustive_min_cost
from repro.core.linearize import (
    GenericSpace,
    Term,
    UtilityFamily,
    distance_family,
    function_term,
    monomial,
    polynomial_family,
)
from repro.core.maxhit import max_hit_iq
from repro.core.mincost import min_cost_iq
from repro.core.objects import Dataset
from repro.core.plan import PLAN_FIELDS, ExecutionPlan, build_plan
from repro.core.queries import QuerySet
from repro.core.reduction import min_cost_via_max_hit
from repro.core.results import IQResult, IterationRecord
from repro.core.solvers import (
    Solver,
    get_solver,
    register_solver,
    registered_solvers,
    solver_function_names,
)
from repro.core.strategy import Strategy, StrategySpace
from repro.core.subdomain import SubdomainIndex, find_subdomains, relevant_pairs

__all__ = [
    "Dataset",
    "QuerySet",
    "Strategy",
    "StrategySpace",
    "CostFunction",
    "L1Cost",
    "L2Cost",
    "LInfCost",
    "AsymmetricLinearCost",
    "CallableCost",
    "euclidean_cost",
    "SubdomainIndex",
    "find_subdomains",
    "relevant_pairs",
    "StrategyEvaluator",
    "min_cost_iq",
    "max_hit_iq",
    "min_cost_via_max_hit",
    "exhaustive_min_cost",
    "exhaustive_max_hit",
    "combinatorial_min_cost",
    "combinatorial_max_hit",
    "MultiTargetResult",
    "IQResult",
    "IterationRecord",
    "ImprovementQueryEngine",
    "ExecutionPlan",
    "PLAN_FIELDS",
    "build_plan",
    "Solver",
    "register_solver",
    "registered_solvers",
    "get_solver",
    "solver_function_names",
    "flip_cost",
    "flip_space",
    "internalize",
    "externalize_result",
    "Term",
    "monomial",
    "function_term",
    "UtilityFamily",
    "GenericSpace",
    "polynomial_family",
    "distance_family",
]
