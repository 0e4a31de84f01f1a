"""Planner, solver registry, and epoch-invalidation tests."""

import numpy as np
import pytest

from repro.core import updates
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.plan import PLAN_FIELDS, ExecutionPlan
from repro.core.queries import QuerySet
from repro.core.solvers import get_solver, registered_solvers, solver_function_names
from repro.errors import ValidationError


@pytest.fixture
def engine(small_market):
    objects, queries, ks = small_market
    return ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))


class TestExplain:
    def test_returns_plan_without_executing(self, engine):
        before = engine.evaluator.full_evaluations
        plan = engine.explain(0, tau=5)
        assert isinstance(plan, ExecutionPlan)
        assert engine.evaluator.full_evaluations == before

    def test_plan_fields(self, engine):
        plan = engine.explain(3, tau=7, method="rta")
        payload = plan.to_dict()
        assert tuple(payload) == PLAN_FIELDS
        assert payload["kind"] == "min_cost"
        assert payload["solver"] == "rta"
        assert payload["evaluator"] == "rta"
        assert payload["target"] == 3
        assert payload["goal"] == 7
        assert payload["sense"] == "min"
        assert payload["index_mode"] == "exact"
        assert payload["num_subdomains"] == engine.index.num_subdomains
        assert payload["epoch"] == engine.index.epoch
        assert payload["cost"] == "L2Cost(dim=3)"
        assert payload["space"] == "unconstrained"

    def test_budget_selects_max_hit(self, engine):
        plan = engine.explain(0, budget=0.5)
        assert plan.kind == "max_hit"
        assert plan.goal == 0.5

    def test_exactly_one_goal_required(self, engine):
        with pytest.raises(ValidationError, match="exactly one"):
            engine.explain(0)
        with pytest.raises(ValidationError, match="exactly one"):
            engine.explain(0, tau=5, budget=0.5)

    def test_matches_executed_call(self, engine):
        # An executed call runs exactly the plan explain reports: same
        # args produce the same plan fields before and after execution.
        # index_memory is a live snapshot and may grow as execution
        # evaluates ranking prefixes lazily; everything else is stable.
        plan_before = engine.explain(0, tau=5, method="greedy")
        engine.min_cost(0, tau=5, method="greedy")
        plan_after = engine.explain(0, tau=5, method="greedy")
        before, after = plan_before.to_dict(), plan_after.to_dict()
        assert after.pop("index_memory") >= before.pop("index_memory")
        assert before == after

    def test_replanning_after_mutation_moves_epoch(self, engine, rng):
        old = engine.explain(0, tau=5)
        engine.add_query(rng.random(3), 2)
        new = engine.explain(0, tau=5)
        assert new.epoch > old.epoch

    def test_plan_is_frozen(self, engine):
        plan = engine.explain(0, tau=5)
        with pytest.raises(AttributeError):
            plan.kind = "max_hit"

    def test_render_lists_every_field(self, engine):
        text = engine.explain(0, tau=5).render()
        for name in PLAN_FIELDS:
            assert name in text

    def test_unknown_target_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.explain(10_000, tau=5)


#: Per §6.1 scheme: the plan's evaluator, candidate method and notes,
#: and the option keys the solver accepts.
SCHEMES = {
    "efficient": ("ese", "batched-closed-form", [], ["margin", "max_iterations"]),
    "rta": (
        "rta",
        "batched-closed-form",
        ["hit counts via RTA threshold pruning; membership listing falls back to ESE"],
        ["margin", "max_iterations"],
    ),
    "greedy": ("ese", "cheapest-single-query", [], ["margin", "max_iterations"]),
    "random": (
        "ese",
        "uniform-sampling",
        ["stochastic: quality depends on the attempt budget and seed"],
        ["attempts", "seed"],
    ),
    "exhaustive": (
        "ese",
        "subset-enumeration",
        ["exact but exponential in the workload size; tiny instances only"],
        ["margin"],
    ),
}


class TestSolverRegistry:
    def test_paper_schemes_registered(self):
        assert registered_solvers() == ("efficient", "exhaustive", "greedy", "random", "rta")

    @pytest.mark.parametrize("method", sorted(SCHEMES))
    def test_scheme_metadata(self, engine, method):
        evaluator, candidate_method, notes, options = SCHEMES[method]
        for plan in (
            engine.explain(0, tau=5, method=method),
            engine.explain(0, budget=0.5, method=method),
        ):
            payload = plan.to_dict()
            assert payload["solver"] == method
            assert payload["evaluator"] == evaluator
            assert payload["candidate_method"] == candidate_method
            assert payload["notes"] == notes
        assert sorted(get_solver(method).options) == options

    def test_unknown_method_lists_registered_names(self, engine):
        with pytest.raises(ValidationError) as excinfo:
            engine.min_cost(0, tau=5, method="quantum")
        message = str(excinfo.value)
        for name in registered_solvers():
            assert name in message

    def test_every_scheme_resolves_and_runs(self, engine):
        for name in ("efficient", "rta", "greedy", "random"):
            result = engine.min_cost(0, tau=5, method=name)
            assert result.hits_after >= 5, name
            assert engine.explain(0, tau=5, method=name).solver_name == name

    def test_solver_function_names_cover_wrapped_schemes(self):
        names = solver_function_names()
        assert {"min_cost_iq", "max_hit_iq", "greedy_min_cost_iq",
                "random_max_hit_iq", "exhaustive_min_cost"} <= names

    def test_run_rejects_unknown_kind(self, engine):
        with pytest.raises(ValidationError, match="kind"):
            get_solver("efficient").run(
                "median", engine.evaluator, 0, 5.0, None
            )


class TestEpochBus:
    """Direct index mutation (bypassing the engine) must never serve
    stale results — the acceptance scenario of the epoch bus."""

    def test_direct_add_query_reflected_in_hits(self, engine, rng):
        engine.hits(0)  # populate the threshold cache
        weights = rng.random(3)
        updates.add_query(engine.index, weights, 1)
        fresh = ImprovementQueryEngine(engine.dataset, engine.queries)
        assert engine.hits(0) == fresh.hits(0)

    def test_direct_add_query_reflected_in_rta_min_cost(self, engine, rng):
        warm = engine.min_cost(0, tau=5, method="rta")  # build the RTA snapshot
        assert warm.satisfied
        updates.add_query(engine.index, rng.random(3), 2)
        stale = engine.min_cost(0, tau=engine.queries.m, method="rta")
        fresh = ImprovementQueryEngine(engine.dataset, engine.queries).min_cost(
            0, tau=engine.queries.m, method="rta"
        )
        assert stale.hits_after == fresh.hits_after
        assert stale.total_cost == pytest.approx(fresh.total_cost)

    def test_direct_remove_object_reflected(self, engine):
        engine.hits(1)
        updates.remove_object(engine.index, 0)
        fresh = ImprovementQueryEngine(engine.dataset, engine.queries)
        assert engine.hits(1) == fresh.hits(1)

    def test_every_mutation_bumps_epoch(self, engine, rng):
        epochs = [engine.index.epoch]
        updates.add_query(engine.index, rng.random(3), 2)
        epochs.append(engine.index.epoch)
        updates.remove_query(engine.index, engine.queries.m - 1)
        epochs.append(engine.index.epoch)
        updates.add_object(engine.index, rng.random(3))
        epochs.append(engine.index.epoch)
        updates.remove_object(engine.index, engine.dataset.n - 1)
        epochs.append(engine.index.epoch)
        assert epochs == sorted(set(epochs)), "epoch must strictly increase"

    def test_engine_has_no_push_invalidation(self, engine):
        # The refactor removed the engine's manual cache invalidation;
        # correctness rests on the epoch comparison alone.
        assert not hasattr(engine, "_invalidate")
