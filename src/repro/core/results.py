"""Result types returned by improvement-query searches."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.strategy import Strategy

__all__ = ["IterationRecord", "IQResult"]


@dataclass(frozen=True)
class IterationRecord:
    """One greedy iteration: which candidate won and what it bought."""

    query_id: int  #: the query whose candidate strategy was applied
    cost: float  #: incremental cost of the applied strategy
    hits_after: int  #: H(p') after applying it
    candidates: int  #: candidate strategies generated this iteration


@dataclass
class IQResult:
    """Outcome of a Min-Cost or Max-Hit improvement query.

    ``strategy`` is expressed in the *user's* attribute convention
    (matching the dataset's ``sense``), ready to apply to the original
    object.  ``total_cost`` follows the greedy accounting: the sum of
    the per-iteration incremental costs (the same measure used for all
    baselines, so comparisons in the benchmarks are apples-to-apples).
    """

    target: int
    strategy: Strategy
    hits_before: int
    hits_after: int
    total_cost: float
    satisfied: bool  #: Min-Cost: reached tau; Max-Hit: stayed within beta
    iterations: list[IterationRecord] = field(default_factory=list)
    #: strategy evaluations (ESE/RTA) consumed: the candidates actually
    #: scored, never a pruned one, plus each applied iteration's hit mask
    evaluations: int = 0

    @property
    def hits_gained(self) -> int:
        return self.hits_after - self.hits_before

    @property
    def cost_per_hit(self) -> float:
        """The paper's unified quality metric (§6.3.2): cost / hits.

        ``inf`` when nothing is hit; 0 for a free no-op.
        """
        if self.hits_after <= 0:
            return float("inf") if self.total_cost > 0 else 0.0
        return self.total_cost / self.hits_after

    def improved_point(self, original: np.ndarray) -> np.ndarray:
        """Apply the found strategy to the original object."""
        return self.strategy.apply_to(np.asarray(original, dtype=float))
