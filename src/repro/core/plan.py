"""Execution planning for improvement queries.

Every ``engine.min_cost`` / ``engine.max_hit`` call is processed in two
explicit steps: a *plan* step that resolves the solver through the
solver table, internalizes the cost/space arguments at the boundary layer,
and snapshots the index statistics the solver will run against; and an
*execute* step that hands the plan's solver the chosen evaluator.
``engine.explain(...)`` (and SQL ``EXPLAIN IMPROVE ...``) returns the
plan of the first step without running the second, so a plan is also
the inspection surface: what would run, against which index, with which
candidate-generation scheme, and with which fallback caveats.

:class:`ExecutionPlan` is frozen — a plan describes one query at one
index epoch and is never mutated; re-planning after an index mutation
yields a plan with a newer ``epoch``.

:class:`ExecutedPlan` extends the plan with what ``EXPLAIN ANALYZE``
observed while actually running it — per-stage wall-clock and work
counters from the :mod:`repro.observe` recorder.  It stays frozen for
the same reason: it describes one *completed* run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.boundary import describe_cost, describe_space
from repro.core.cost import CostFunction
from repro.core.solvers import QUERY_KINDS, Solver, check_goal
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.errors import ValidationError

__all__ = [
    "ANALYZE_FIELDS",
    "ExecutedPlan",
    "ExecutionPlan",
    "PLAN_FIELDS",
    "build_plan",
]

#: Ordered field names every plan rendering (CLI, SQL, bench JSON)
#: exposes; kept in lock-step with :meth:`ExecutionPlan.to_dict`.
PLAN_FIELDS = (
    "kind",
    "solver",
    "evaluator",
    "target",
    "goal",
    "sense",
    "index_mode",
    "num_subdomains",
    "num_hyperplanes",
    "epoch",
    "index_memory",
    "candidate_method",
    "cost",
    "space",
    "notes",
)

#: Ordered observation field names an ``EXPLAIN ANALYZE`` rendering
#: appends after :data:`PLAN_FIELDS`; kept in lock-step with
#: :meth:`ExecutedPlan.to_dict`.
ANALYZE_FIELDS = (
    "total_seconds",
    "plan_seconds",
    "candidates_seconds",
    "evaluate_seconds",
    "solve_seconds",
    "candidates_generated",
    "evaluations",
    "pruned",
    "iterations",
)


@dataclass(frozen=True)
class ExecutionPlan:
    """How one improvement query will be (or was) processed.

    ``cost`` and ``space`` describe the *internalized* arguments — what
    the solver actually receives after the boundary layer's sense
    conversion — so an EXPLAIN under ``sense="max"`` shows e.g. the
    swapped asymmetric prices.  ``notes`` carries fallback caveats
    (relevant-mode prefix depth, RTA's membership fallback, ...).
    """

    kind: str  #: "min_cost" | "max_hit"
    solver: Solver = field(compare=False)  #: the solver record (one per scheme)
    target: int = 0
    goal: float = 0.0  #: tau (min_cost) or budget (max_hit)
    sense: str = "min"
    index_mode: str = "exact"
    num_subdomains: int = 0
    num_hyperplanes: int = 0
    epoch: int = 0  #: index epoch the plan was built against
    index_memory: int = 0  #: index memory_estimate() in bytes at plan time
    cost: str = ""  #: internalized cost, rendered
    space: str = "unconstrained"  #: internalized strategy box, rendered
    notes: tuple[str, ...] = ()

    @property
    def solver_name(self) -> str:
        return self.solver.name

    @property
    def evaluator(self) -> str:
        """Evaluation engine behind the solver ("ese" | "rta")."""
        return self.solver.evaluator

    @property
    def candidate_method(self) -> str:
        return self.solver.candidate_method

    def to_dict(self) -> dict[str, object]:
        """JSON-ready plan fields, in :data:`PLAN_FIELDS` order."""
        values: dict[str, object] = {
            "kind": self.kind,
            "solver": self.solver_name,
            "evaluator": self.evaluator,
            "target": self.target,
            "goal": self.goal,
            "sense": self.sense,
            "index_mode": self.index_mode,
            "num_subdomains": self.num_subdomains,
            "num_hyperplanes": self.num_hyperplanes,
            "epoch": self.epoch,
            "index_memory": self.index_memory,
            "candidate_method": self.candidate_method,
            "cost": self.cost,
            "space": self.space,
            "notes": list(self.notes),
        }
        return values

    def rows(self) -> list[tuple[str, str]]:
        """``(field, rendered value)`` pairs for tabular display."""
        out: list[tuple[str, str]] = []
        for name, value in self.to_dict().items():
            if name == "goal":
                # A Min-Cost tau is a hit-count and reads as one; a
                # Max-Hit budget keeps its float-ness so ``goal=2.0``
                # cannot be mistaken for a tau of 2.
                if self.kind == "min_cost" and float(value).is_integer():  # type: ignore[arg-type]
                    rendered = str(int(value))  # type: ignore[arg-type]
                else:
                    rendered = str(float(value))  # type: ignore[arg-type]
            elif name.endswith("_seconds"):
                rendered = f"{float(value):.6f}"  # type: ignore[arg-type]
            elif isinstance(value, list):
                rendered = "; ".join(str(item) for item in value)
            elif isinstance(value, float) and float(value).is_integer():
                rendered = str(int(value))
            else:
                rendered = str(value)
            out.append((name, rendered))
        return out

    def render(self) -> str:
        """Multi-line ``field = value`` text block (the CLI's EXPLAIN)."""
        rows = self.rows()
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


@dataclass(frozen=True)
class ExecutedPlan(ExecutionPlan):
    """An :class:`ExecutionPlan` plus what actually happened when it ran.

    Produced by ``engine.analyze(...)`` / ``EXPLAIN ANALYZE``: the base
    plan fields are copied verbatim from the plan that ran, and the
    observation fields carry the
    :mod:`repro.observe` recorder's per-stage wall-clock and counters.
    Stage seconds are honest per-region wall-clock, not an exclusive
    partition — ``evaluate`` time spent scoring a candidate batch is
    also inside ``candidates``.
    """

    total_seconds: float = 0.0  #: end-to-end wall-clock of the analyzed call
    plan_seconds: float = 0.0
    candidates_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    solve_seconds: float = 0.0
    candidates_generated: int = 0
    #: full hit evaluations (ESE/RTA) performed: the candidates actually
    #: scored, never a pruned one, plus each applied iteration's hit mask
    evaluations: int = 0
    #: candidates generated but never scored: their hit bound showed
    #: they could not be picked
    pruned: int = 0
    iterations: int = 0  #: greedy iterations applied

    @classmethod
    def from_plan(
        cls,
        plan: ExecutionPlan,
        *,
        total_seconds: float,
        stage_seconds: dict[str, float],
        counts: dict[str, int],
    ) -> "ExecutedPlan":
        """Attach one run's observations to the plan that produced it."""
        base = {f.name: getattr(plan, f.name) for f in fields(ExecutionPlan)}
        return cls(
            **base,
            total_seconds=float(total_seconds),
            plan_seconds=float(stage_seconds.get("plan", 0.0)),
            candidates_seconds=float(stage_seconds.get("candidates", 0.0)),
            evaluate_seconds=float(stage_seconds.get("evaluate", 0.0)),
            solve_seconds=float(stage_seconds.get("solve", 0.0)),
            candidates_generated=int(counts.get("candidates", 0)),
            evaluations=int(counts.get("evaluations", 0)),
            pruned=int(counts.get("pruned", 0)),
            iterations=int(counts.get("iterations", 0)),
        )

    def to_dict(self) -> dict[str, object]:
        """Plan fields then observations: :data:`PLAN_FIELDS` +
        :data:`ANALYZE_FIELDS` order."""
        values = super().to_dict()
        values["total_seconds"] = self.total_seconds
        values["plan_seconds"] = self.plan_seconds
        values["candidates_seconds"] = self.candidates_seconds
        values["evaluate_seconds"] = self.evaluate_seconds
        values["solve_seconds"] = self.solve_seconds
        values["candidates_generated"] = self.candidates_generated
        values["evaluations"] = self.evaluations
        values["pruned"] = self.pruned
        values["iterations"] = self.iterations
        return values


def build_plan(
    index: SubdomainIndex,
    solver: Solver,
    kind: str,
    target: int,
    goal: float,
    cost: CostFunction,
    space: StrategySpace | None,
    extra_notes: tuple[str, ...] = (),
) -> ExecutionPlan:
    """Assemble the frozen plan for one query against one index state.

    ``cost`` and ``space`` must already be internalized (the engine's
    boundary step does this); the index statistics and ``epoch`` are
    snapshotted here, so a stale plan is detectable by comparing its
    ``epoch`` against ``index.epoch``.
    """
    if kind not in QUERY_KINDS:
        raise ValidationError(f"kind must be one of {QUERY_KINDS}, got {kind!r}")
    index.dataset._check_id(target)
    notes = list(solver.notes) + list(extra_notes)
    if index.mode == "relevant":
        notes.append(
            f"relevant-mode index: rankings below depth k+{index.margin} fall "
            f"back to direct evaluation"
        )
    return ExecutionPlan(
        kind=kind,
        solver=solver,
        target=int(target),
        goal=check_goal(kind, goal),
        sense=index.dataset.sense,
        index_mode=index.mode,
        num_subdomains=index.num_subdomains,
        num_hyperplanes=index.num_hyperplanes,
        epoch=index.epoch,
        index_memory=index.memory_estimate(),
        cost=describe_cost(cost),
        space=describe_space(space),
        notes=tuple(notes),
    )
