"""The Improvement Query engine — the library's main entry point.

Ties the subdomain index, ESE, the greedy searches, the baselines, and
the maintenance operations behind one object::

    engine = ImprovementQueryEngine(dataset, queries)
    result = engine.min_cost(target=3, tau=25)          # Min-Cost IQ
    result = engine.max_hit(target=3, budget=2.0)       # Max-Hit IQ
    plan = engine.explain(target=3, tau=25)             # plan only

The engine itself is a thin façade over four explicit layers:

* **planner** (:mod:`repro.core.plan`) — every query first builds a
  frozen :class:`~repro.core.plan.ExecutionPlan`; :meth:`explain`
  returns that plan without executing it.
* **solver table** (:mod:`repro.core.solvers`) — ``method="..."``
  resolves through :func:`~repro.core.solvers.get_solver` to one of the
  five paper schemes, which all dispatch identically.
* **boundary** (:mod:`repro.core.boundary`) — everything user-facing is
  expressed in the dataset's own attribute convention (``sense="min"``
  or ``"max"``); costs, strategy bounds, and result strategies are
  converted to/from the internal min-convention at this layer.
* **epoch bus** (:attr:`~repro.core.subdomain.SubdomainIndex.epoch`) —
  evaluators compare index epochs lazily, so mutating the index
  directly through :mod:`repro.core.updates` (bypassing the engine's
  wrappers) can never serve stale results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.rta import RTAEvaluator
from repro.core import updates
from repro.core.boundary import (
    externalize_multi,
    externalize_result,
    internalize,
    internalize_multi,
)
from repro.core.combinatorial import (
    MultiTargetResult,
    _normalize_per_target,
    combinatorial_max_hit,
    combinatorial_min_cost,
)
from repro.core.cost import CostFunction
from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.plan import ExecutedPlan, ExecutionPlan, build_plan
from repro.core.queries import QuerySet
from repro.core.results import IQResult
from repro.core.solvers import Solver, check_goal, get_solver
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.errors import ValidationError
from repro.observe import StageRecorder, now, observing, stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.persistent import PersistentPool

__all__ = ["ImprovementQueryEngine"]


class ImprovementQueryEngine:
    """Improvement queries over a dataset and a top-k workload.

    Parameters
    ----------
    dataset:
        The object set (its ``sense`` fixes the ranking convention).
    queries:
        The top-k workload.
    mode:
        The subdomain index's hyperplane budget (see
        :class:`~repro.core.subdomain.SubdomainIndex`).
    """

    def __init__(self, dataset: Dataset, queries: QuerySet, mode: str = "exact") -> None:
        self.index = SubdomainIndex(dataset, queries, mode=mode)
        self.evaluator = StrategyEvaluator(self.index)
        self._rta_evaluator: RTAEvaluator | None = None

    @classmethod
    def from_index(cls, index: SubdomainIndex) -> "ImprovementQueryEngine":
        """Wrap an existing index (e.g. one restored by
        :meth:`SubdomainIndex.load`) without rebuilding it."""
        engine = cls.__new__(cls)
        engine.index = index
        engine.evaluator = StrategyEvaluator(index)
        engine._rta_evaluator = None
        return engine

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self.index.dataset

    @property
    def queries(self) -> QuerySet:
        return self.index.queries

    @property
    def epoch(self) -> int:
        """The index's mutation epoch (see :class:`SubdomainIndex`).

        Every consumer that caches derived state — the evaluators, the
        persistent worker pool, the serving layer — keys its validity on
        this counter, so a mutation through *any* path (engine wrappers
        or :mod:`repro.core.updates` directly) invalidates them all.
        """
        return self.index.epoch

    def pool(self, workers: "int | str | None" = None) -> "PersistentPool":
        """A :class:`~repro.parallel.persistent.PersistentPool` for this engine.

        The pool forks workers holding the built index once and serves
        repeated batches without per-call pool startup; ``workers=None``
        runs them serially.  ``repro serve`` dispatches through one.
        """
        from repro.parallel.persistent import PersistentPool

        return PersistentPool(self, workers=workers)

    # ------------------------------------------------------------------
    # Read-side queries
    # ------------------------------------------------------------------
    def hits(self, target: int) -> int:
        """``H(target)``: how many workload queries the object hits now."""
        return self.evaluator.hits(target)

    def reverse_top_k(self, target: int) -> np.ndarray:
        """Ids of the queries currently hit (a reverse top-k query [21])."""
        return np.flatnonzero(self.evaluator.hits_mask(target))

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def explain(
        self,
        target: int,
        tau: int | None = None,
        budget: float | None = None,
        cost: CostFunction | None = None,
        space: StrategySpace | None = None,
        method: str = "efficient",
    ) -> ExecutionPlan:
        """The plan a :meth:`min_cost` / :meth:`max_hit` call would run.

        Exactly one of ``tau`` (Min-Cost) or ``budget`` (Max-Hit) picks
        the query kind; the returned
        :class:`~repro.core.plan.ExecutionPlan` is frozen and nothing is
        executed.  An executed call with the same arguments runs exactly
        this plan.
        """
        if (tau is None) == (budget is None):
            raise ValidationError(
                "explain needs exactly one of tau (min_cost) or budget (max_hit)"
            )
        if tau is not None:
            return self._plan("min_cost", target, tau, cost, space, method)[0]
        goal = check_goal("max_hit", budget)
        return self._plan("max_hit", target, goal, cost, space, method)[0]

    def explain_multi(
        self,
        targets: list[int],
        tau: int | None = None,
        budget: float | None = None,
        costs: "CostFunction | dict[int, CostFunction] | None" = None,
        spaces: "StrategySpace | dict[int, StrategySpace] | None" = None,
    ) -> tuple[ExecutionPlan, ...]:
        """Per-target plans a multi-target call would run (nothing executes).

        The combinatorial solver interleaves the targets in one joint
        greedy loop (§5.1), so the plans share every index field
        and differ only in ``target`` and per-target cost/space.
        """
        if (tau is None) == (budget is None):
            raise ValidationError(
                "explain_multi needs exactly one of tau (min_cost) or budget (max_hit)"
            )
        if tau is not None:
            return self._plan_multi("min_cost", targets, tau, costs, spaces)[0]
        goal = check_goal("max_hit", budget)
        return self._plan_multi("max_hit", targets, goal, costs, spaces)[0]

    def _plan(
        self,
        kind: str,
        target: int,
        goal: float,
        cost: CostFunction | None,
        space: StrategySpace | None,
        method: str,
    ) -> tuple[ExecutionPlan, CostFunction, StrategySpace | None]:
        """Plan step: resolve the solver, internalize, snapshot the index.

        ``method`` names one of the five solvers; it is never chosen for
        the caller, because the solver decides the answer.
        """
        with stage("plan"):
            solver = get_solver(method)
            cost_int, space_int = internalize(self.dataset, cost, space)
            plan = build_plan(
                self.index, solver, kind, target, goal, cost_int, space_int
            )
        return plan, cost_int, space_int

    def _execute(
        self,
        kind: str,
        target: int,
        goal: float,
        cost: CostFunction | None,
        space: StrategySpace | None,
        method: str,
    ) -> IQResult:
        """Plan-then-run for one query (see :meth:`_run`)."""
        plan, cost_int, space_int = self._plan(kind, target, goal, cost, space, method)
        return self._run(plan, kind, target, goal, cost_int, space_int)

    def _run(
        self,
        plan: ExecutionPlan,
        kind: str,
        target: int,
        goal: float,
        cost_int: CostFunction,
        space_int: StrategySpace | None,
    ) -> IQResult:
        """Execute step: hand the planned solver its evaluator."""
        with stage("solve"):
            result = plan.solver.run(
                kind, self._evaluator_for(plan.solver), target, goal, cost_int, space_int
            )
        return externalize_result(self.dataset, result)

    def analyze(
        self,
        target: int,
        tau: int | None = None,
        budget: float | None = None,
        cost: CostFunction | None = None,
        space: StrategySpace | None = None,
        method: str = "efficient",
    ) -> tuple[IQResult, ExecutedPlan]:
        """EXPLAIN ANALYZE: run the query and return ``(result, plan+stats)``.

        The result is byte-identical to the plain :meth:`min_cost` /
        :meth:`max_hit` call (every ``repro check`` run enforces this):
        the observation layer only reads the clock and counts.
        """
        if (tau is None) == (budget is None):
            raise ValidationError(
                "analyze needs exactly one of tau (min_cost) or budget (max_hit)"
            )
        kind = "min_cost" if tau is not None else "max_hit"
        goal: float = tau if tau is not None else check_goal("max_hit", budget)  # type: ignore[assignment]
        recorder = StageRecorder()
        started = now()
        with observing(recorder):
            plan, cost_int, space_int = self._plan(
                kind, target, goal, cost, space, method
            )
            result = self._run(plan, kind, target, goal, cost_int, space_int)
        total = now() - started
        executed = ExecutedPlan.from_plan(
            plan,
            total_seconds=total,
            stage_seconds=recorder.seconds,
            counts=recorder.counts,
        )
        return result, executed

    def _evaluator_for(self, solver: Solver) -> StrategyEvaluator:
        """The evaluation engine a solver declares ("rta" or ESE default)."""
        if solver.evaluator == "rta":
            if self._rta_evaluator is None:
                self._rta_evaluator = RTAEvaluator(self.index)
            return self._rta_evaluator
        return self.evaluator

    # ------------------------------------------------------------------
    # Improvement queries
    # ------------------------------------------------------------------
    def min_cost(
        self,
        target: int,
        tau: int,
        cost: CostFunction | None = None,
        space: StrategySpace | None = None,
        method: str = "efficient",
    ) -> IQResult:
        """Min-Cost IQ: cheapest strategy with ``H(target + s) >= tau``.

        ``method`` selects the processing scheme of §6.1 by name:
        ``"efficient"`` (Efficient-IQ, the paper's contribution),
        ``"rta"``, ``"greedy"``, ``"random"``, or ``"exhaustive"``
        (exact, tiny workloads only).
        """
        return self._execute("min_cost", target, tau, cost, space, method)

    def max_hit(
        self,
        target: int,
        budget: float,
        cost: CostFunction | None = None,
        space: StrategySpace | None = None,
        method: str = "efficient",
    ) -> IQResult:
        """Max-Hit IQ: maximize ``H(target + s)`` with ``Cost(s) <= budget``."""
        return self._execute("max_hit", target, budget, cost, space, method)

    # ------------------------------------------------------------------
    # Combinatorial (multi-target) improvement (§5.1)
    # ------------------------------------------------------------------
    def _plan_multi(
        self,
        kind: str,
        targets: list[int],
        goal: float,
        costs: "CostFunction | dict[int, CostFunction] | None",
        spaces: "StrategySpace | dict[int, StrategySpace] | None",
    ) -> tuple[
        tuple[ExecutionPlan, ...],
        "CostFunction | dict[int, CostFunction]",
        "StrategySpace | dict[int, StrategySpace] | None",
    ]:
        """Plan step for a combinatorial query: one plan per target.

        Every target id is validated *before* any internalization or
        solver work runs, so an invalid id fails with
        :class:`~repro.errors.ValidationError` and leaves nothing half
        done; each plan snapshots the same index epoch the joint greedy
        loop will run against.
        """
        with stage("plan"):
            target_list = [int(t) for t in targets]
            if not target_list:
                raise ValidationError("multi-target query needs at least one target")
            for t in target_list:
                self.dataset._check_id(t)
            solver = get_solver("efficient")
            costs_int, spaces_int = internalize_multi(
                self.dataset, target_list, costs, spaces
            )
            costs_map = _normalize_per_target(costs_int, target_list, "cost function")
            if isinstance(spaces_int, dict):
                spaces_map: dict[int, StrategySpace | None] = dict(
                    _normalize_per_target(spaces_int, target_list, "strategy space")
                )
            else:
                spaces_map = {t: spaces_int for t in target_list}
            note = (
                f"combinatorial {kind} over {len(target_list)} targets: one joint "
                f"greedy loop interleaves per-target moves (§5.1)"
            )
            plans = tuple(
                build_plan(
                    self.index, solver, kind, t, goal, costs_map[t], spaces_map[t],
                    extra_notes=(note,),
                )
                for t in target_list
            )
        return plans, costs_int, spaces_int

    def _run_multi(
        self,
        plans: tuple[ExecutionPlan, ...],
        kind: str,
        goal: float,
        costs_int: "CostFunction | dict[int, CostFunction]",
        spaces_int: "StrategySpace | dict[int, StrategySpace] | None",
    ) -> MultiTargetResult:
        """Execute step for a combinatorial query (joint greedy loop)."""
        solve = combinatorial_min_cost if kind == "min_cost" else combinatorial_max_hit
        targets = [plan.target for plan in plans]
        with stage("solve"):
            result = solve(self.index, targets, goal, costs_int, spaces_int)
        return externalize_multi(self.dataset, result)

    def min_cost_multi(
        self,
        targets: list[int],
        tau: int,
        costs: CostFunction | dict[int, CostFunction] | None = None,
        spaces: StrategySpace | dict[int, StrategySpace] | None = None,
    ) -> MultiTargetResult:
        """Combinatorial Min-Cost IQ over several targets (Def. 5)."""
        plans, costs_int, spaces_int = self._plan_multi(
            "min_cost", targets, tau, costs, spaces
        )
        return self._run_multi(plans, "min_cost", tau, costs_int, spaces_int)

    def max_hit_multi(
        self,
        targets: list[int],
        budget: float,
        costs: CostFunction | dict[int, CostFunction] | None = None,
        spaces: StrategySpace | dict[int, StrategySpace] | None = None,
    ) -> MultiTargetResult:
        """Combinatorial Max-Hit IQ over several targets (Def. 6)."""
        goal = check_goal("max_hit", budget)
        plans, costs_int, spaces_int = self._plan_multi("max_hit", targets, goal, costs, spaces)
        return self._run_multi(plans, "max_hit", goal, costs_int, spaces_int)

    def analyze_multi(
        self,
        targets: list[int],
        tau: int | None = None,
        budget: float | None = None,
        costs: CostFunction | dict[int, CostFunction] | None = None,
        spaces: StrategySpace | dict[int, StrategySpace] | None = None,
    ) -> tuple[MultiTargetResult, tuple[ExecutedPlan, ...]]:
        """EXPLAIN ANALYZE for a combinatorial query.

        Returns the (byte-identical) multi-target result plus one
        :class:`ExecutedPlan` per target; the joint greedy loop is one
        run, so the per-target plans share the same observed timings.
        """
        if (tau is None) == (budget is None):
            raise ValidationError(
                "analyze_multi needs exactly one of tau (min_cost) or budget (max_hit)"
            )
        kind = "min_cost" if tau is not None else "max_hit"
        goal: float = tau if tau is not None else check_goal("max_hit", budget)  # type: ignore[assignment]
        recorder = StageRecorder()
        started = now()
        with observing(recorder):
            plans, costs_int, spaces_int = self._plan_multi(
                kind, targets, goal, costs, spaces
            )
            result = self._run_multi(plans, kind, goal, costs_int, spaces_int)
        total = now() - started
        executed = tuple(
            ExecutedPlan.from_plan(
                plan,
                total_seconds=total,
                stage_seconds=recorder.seconds,
                counts=recorder.counts,
            )
            for plan in plans
        )
        return result, executed

    # ------------------------------------------------------------------
    # Workload / dataset maintenance (§4.3)
    # ------------------------------------------------------------------
    # No manual cache invalidation here: every mutation bumps the
    # index's epoch and the evaluators re-sync lazily, whether the
    # mutation came through these wrappers or straight from
    # repro.core.updates.
    def add_query(self, weights: "np.typing.ArrayLike", k: int) -> int:
        """Add a top-k query to the workload (§4.3); returns its id."""
        return updates.add_query(self.index, np.asarray(weights, dtype=float), k)

    def remove_query(self, query_id: int) -> None:
        """Remove a query (§4.3); ids above it shift down."""
        updates.remove_query(self.index, query_id)

    def add_object(self, attributes: "np.typing.ArrayLike") -> int:
        """Add an object (§4.3); returns its id."""
        return updates.add_object(self.index, np.asarray(attributes, dtype=float))

    def remove_object(self, object_id: int) -> None:
        """Remove an object (§4.3); ids above it shift down."""
        updates.remove_object(self.index, object_id)
