"""Combinatorial (multi-target) improvement strategies (paper §5.1).

A user selects several target objects, each with its own cost function
and strategy bounds, and asks for the set of per-target strategies that
jointly reach ``tau`` hits with minimal total cost (Def. 5) or maximize
joint hits within a shared budget (Def. 6).  A query hit by several
improved targets counts once.

The algorithms are the paper's modifications of Algorithms 3/4: each
round generates, for every (target, unhit query) pair, the cheapest
strategy making that target hit that query, then applies the candidate
with the best cost-per-hit ratio.

Interaction between targets: moving target A can displace target B from
a top-k result it occupied.  Candidate *scoring* inside a round treats
the other targets as fixed (as the paper's pseudocode does), but after
every application the joint hit mask is recomputed exactly from the
current positions of all objects, so the greedy always works from (and
reports) true joint hit counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY
from repro.core.cost import CostFunction
from repro.core.strategy import Strategy, StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.errors import ValidationError
from repro.observe import stage, tally
from repro.optimize.hit_cost import min_cost_to_hit_batch

__all__ = ["MultiTargetResult", "combinatorial_min_cost", "combinatorial_max_hit"]

_T = TypeVar("_T")


@dataclass
class MultiTargetResult:
    """Outcome of a combinatorial IQ."""

    targets: list[int]
    strategies: dict[int, Strategy]  #: per-target strategies (internal space)
    hits_before: int  #: joint (union) hits before improvement
    hits_after: int  #: joint hits after improvement
    total_cost: float
    satisfied: bool
    rounds: int = 0
    applied: list[tuple[int, int, float]] = field(default_factory=list)  #: (target, query, cost)

    @property
    def cost_per_hit(self) -> float:
        if self.hits_after <= 0:
            return float("inf") if self.total_cost > 0 else 0.0
        return self.total_cost / self.hits_after


class _JointState:
    """Current positions of every object with exact joint-hit accounting."""

    def __init__(self, index: SubdomainIndex, targets: list[int]) -> None:
        if len(set(targets)) != len(targets):
            raise ValidationError("duplicate target ids")
        for t in targets:
            index.dataset._check_id(t)
        self.index = index
        self.targets = targets
        self.matrix = index.dataset.matrix.copy()  # mutated as strategies apply
        self.weights = index.queries.weights
        self.ks = index.queries.ks

    def scores(self) -> np.ndarray:
        return self.weights @ self.matrix.T  # (m, n)

    def member_mask(self, scores: np.ndarray, t: int) -> np.ndarray:
        """Is target ``t`` in the top-k of each query? (ties by id)."""
        mine = scores[:, t][:, None]
        better = (scores < mine).sum(axis=1)
        ties = ((scores == mine) & (np.arange(self.matrix.shape[0])[None, :] < t)).sum(axis=1)
        return (better + ties) < self.ks

    def joint_mask(self) -> np.ndarray:
        scores = self.scores()
        mask = np.zeros(self.weights.shape[0], dtype=bool)
        for t in self.targets:
            mask |= self.member_mask(scores, t)
        return mask

    def thresholds(self, t: int) -> np.ndarray:
        """theta per query: k-th best score among all objects except ``t``."""
        scores = self.scores().copy()
        scores[:, t] = np.inf
        scores.sort(axis=1)
        return scores[np.arange(scores.shape[0]), self.ks - 1]


def _normalize_per_target(value: _T | dict[int, _T], targets: list[int], kind: str) -> dict[int, _T]:
    if isinstance(value, dict):
        missing = [t for t in targets if t not in value]
        if missing:
            raise ValidationError(f"missing {kind} for targets {missing}")
        return dict(value)
    return {t: value for t in targets}


def _candidates(
    state: _JointState,
    costs: dict[int, CostFunction],
    spaces: dict[int, StrategySpace],
    applied: dict[int, np.ndarray],
    mask: np.ndarray,
    max_cost: float | None,
) -> list[tuple[int, int, np.ndarray, float, int]]:
    """All (target, query, vector, cost, joint_hits) candidates of a round."""
    out: list[tuple[int, int, np.ndarray, float, int]] = []
    unhit = np.flatnonzero(~mask)
    if unhit.size == 0:
        return out
    q = state.weights[unhit]
    for t in state.targets:
        theta = state.thresholds(t)
        position = state.matrix[t]
        room = spaces[t].shifted(applied[t])
        vectors, prices, keep = min_cost_to_hit_batch(
            costs[t], q, theta[unhit] - q @ position, space=room
        )
        if max_cost is not None:
            # §5.1 step 2: drop over-budget candidates.  Exact
            # comparison — the caller grants EPS_COST once against
            # the original budget, never per iteration.
            keep &= prices <= max_cost
        for row in np.flatnonzero(keep):
            # Score: joint hits with the other targets frozen.
            scores = state.scores()
            scores[:, t] = state.weights @ (position + vectors[row])
            joint = np.zeros(mask.shape[0], dtype=bool)
            for u in state.targets:
                joint |= state.member_mask(scores, u)
            out.append((t, int(unhit[row]), vectors[row], float(prices[row]), int(joint.sum())))
    return out


def _pick_best_ratio(
    candidates: list[tuple[int, int, np.ndarray, float, int]],
) -> tuple[int, int, np.ndarray, float, int] | None:
    """Min cost-per-hit; ties by cost then (target, query) for determinism."""
    def key(c: tuple[int, int, np.ndarray, float, int]) -> tuple[float, float, int, int]:
        t, j, __, cost, hits = c
        ratio = cost / hits if hits > 0 else np.inf
        return (ratio, cost, t, j)

    viable = [c for c in candidates if c[4] > 0]
    return min(viable, key=key) if viable else None


def combinatorial_min_cost(
    index: SubdomainIndex,
    targets: list[int],
    tau: int,
    costs: CostFunction | dict[int, CostFunction],
    spaces: StrategySpace | dict[int, StrategySpace] | None = None,
) -> MultiTargetResult:
    """Combinatorial Min-Cost improvement strategy (Def. 5, §5.1 steps).

    ``costs`` may be a single :class:`CostFunction` shared by all
    targets or a ``{target: cost}`` dict; likewise ``spaces``.
    """
    if tau < 1 or tau > index.queries.m:
        raise ValidationError(f"tau must be in [1, {index.queries.m}], got {tau}")
    state = _JointState(index, list(targets))
    costs = _normalize_per_target(costs, state.targets, "cost function")
    spaces = _normalize_per_target(
        spaces or StrategySpace.unconstrained(index.dataset.dim), state.targets, "strategy space"
    )
    applied = {t: np.zeros(index.dataset.dim) for t in state.targets}
    spent = {t: 0.0 for t in state.targets}
    mask = state.joint_mask()
    hits_before = int(mask.sum())
    max_rounds = 2 * tau + 16
    log: list[tuple[int, int, float]] = []
    stalls = 0

    while int(mask.sum()) < tau and len(log) < max_rounds:
        with stage("candidates"):
            candidates = _candidates(state, costs, spaces, applied, mask, None)
        tally("candidates", len(candidates))
        best = _pick_best_ratio(candidates)
        if best is None:
            break
        if best[4] > tau:
            # Avoid overshooting (§5.1 step 2): cheapest reaching tau.
            reaching = [c for c in candidates if c[4] >= tau]
            best = min(reaching, key=lambda c: (c[3], c[0], c[1]))
        t, j, vector, cost_value, __ = best
        before = int(mask.sum())
        applied[t] = applied[t] + vector
        spent[t] += cost_value
        state.matrix[t] = state.matrix[t] + vector
        tally("iterations")
        tally("evaluations")
        with stage("evaluate"):
            mask = state.joint_mask()
        log.append((t, j, cost_value))
        stalls = stalls + 1 if int(mask.sum()) <= before else 0
        if stalls >= 2:
            break

    hits_after = int(mask.sum())
    return MultiTargetResult(
        targets=state.targets,
        strategies={t: Strategy(applied[t].copy(), cost=spent[t]) for t in state.targets},
        hits_before=hits_before,
        hits_after=hits_after,
        total_cost=float(sum(spent.values())),
        satisfied=hits_after >= tau,
        rounds=len(log),
        applied=log,
    )


def combinatorial_max_hit(
    index: SubdomainIndex,
    targets: list[int],
    budget: float,
    costs: CostFunction | dict[int, CostFunction],
    spaces: StrategySpace | dict[int, StrategySpace] | None = None,
) -> MultiTargetResult:
    """Combinatorial Max-Hit improvement strategy (Def. 6, §5.1 steps)."""
    if not budget >= 0:  # also rejects NaN
        raise ValidationError(f"budget must be non-negative, got {budget}")
    state = _JointState(index, list(targets))
    costs = _normalize_per_target(costs, state.targets, "cost function")
    spaces = _normalize_per_target(
        spaces or StrategySpace.unconstrained(index.dataset.dim), state.targets, "strategy space"
    )
    applied = {t: np.zeros(index.dataset.dim) for t in state.targets}
    spent = {t: 0.0 for t in state.targets}
    total = 0.0
    mask = state.joint_mask()
    hits_before = int(mask.sum())
    max_rounds = 2 * index.queries.m + 16
    log: list[tuple[int, int, float]] = []
    stalls = 0

    while total < budget and len(log) < max_rounds:
        # Slack granted once against the original budget (see max_hit_iq).
        with stage("candidates"):
            candidates = _candidates(
                state, costs, spaces, applied, mask, max_cost=(budget + EPS_COST) - total
            )
        tally("candidates", len(candidates))
        best = _pick_best_ratio(candidates)
        if best is None:
            break  # §5.1 step 2: candidate set empty -> terminate
        t, j, vector, cost_value, __ = best
        before = int(mask.sum())
        applied[t] = applied[t] + vector
        spent[t] += cost_value
        total += cost_value
        state.matrix[t] = state.matrix[t] + vector
        tally("iterations")
        tally("evaluations")
        with stage("evaluate"):
            mask = state.joint_mask()
        log.append((t, j, cost_value))
        stalls = stalls + 1 if int(mask.sum()) <= before else 0
        if stalls >= 2:
            break

    hits_after = int(mask.sum())
    return MultiTargetResult(
        targets=state.targets,
        strategies={t: Strategy(applied[t].copy(), cost=spent[t]) for t in state.targets},
        hits_before=hits_before,
        hits_after=hits_after,
        total_cost=total,
        satisfied=total <= budget + EPS_FEASIBILITY,
        rounds=len(log),
        applied=log,
    )
