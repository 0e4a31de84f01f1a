"""Baseline IQ-processing schemes from the paper's evaluation (§6.1)."""

from repro.baselines.greedy import greedy_max_hit_iq, greedy_min_cost_iq
from repro.baselines.random_search import random_max_hit_iq, random_min_cost_iq
from repro.baselines.rta import ReverseTopK, RTAEvaluator

__all__ = [
    "ReverseTopK",
    "RTAEvaluator",
    "greedy_min_cost_iq",
    "greedy_max_hit_iq",
    "random_min_cost_iq",
    "random_max_hit_iq",
]
