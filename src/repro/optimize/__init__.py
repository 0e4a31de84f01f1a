"""Optimization substrates: the hit-cost solvers and the simplex LP they use for query sets."""

from repro.optimize.hit_cost import DEFAULT_MARGIN, min_cost_to_hit, min_cost_to_hit_batch
from repro.optimize.simplex import LinprogResult, linprog

__all__ = ["linprog", "LinprogResult", "min_cost_to_hit", "min_cost_to_hit_batch", "DEFAULT_MARGIN"]
