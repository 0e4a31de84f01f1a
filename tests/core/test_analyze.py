"""EXPLAIN ANALYZE at the engine level: parity, stats, explicit solvers."""

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.plan import ANALYZE_FIELDS, PLAN_FIELDS, ExecutedPlan, ExecutionPlan
from repro.core.queries import QuerySet
from repro.core.solvers import registered_solvers
from repro.data.synthetic import independent
from repro.data.workloads import uniform_queries
from repro.errors import ValidationError


@pytest.fixture
def engine(rng):
    dataset = Dataset(rng.random((18, 3)))
    queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
    return ImprovementQueryEngine(dataset, queries)


def assert_same_result(plain, analyzed):
    for attr in ("target", "hits_before", "hits_after", "total_cost", "satisfied"):
        assert getattr(plain, attr) == getattr(analyzed, attr), attr
    assert np.array_equal(plain.strategy.vector, analyzed.strategy.vector)


class TestParity:
    def test_min_cost_byte_identical(self, engine):
        plain = engine.min_cost(0, tau=10)
        analyzed, executed = engine.analyze(0, tau=10)
        assert_same_result(plain, analyzed)
        assert isinstance(executed, ExecutedPlan)

    def test_max_hit_byte_identical(self, engine):
        plain = engine.max_hit(3, budget=0.4)
        analyzed, executed = engine.analyze(3, budget=0.4)
        assert_same_result(plain, analyzed)
        assert executed.kind == "max_hit"

    def test_every_registered_method_parity(self, engine):
        for method in ("efficient", "rta", "greedy"):
            plain = engine.min_cost(2, tau=8, method=method)
            analyzed, executed = engine.analyze(2, tau=8, method=method)
            assert_same_result(plain, analyzed)
            assert executed.solver_name == method

    def test_multi_target_byte_identical(self, engine):
        targets = [0, 5, 9]
        plain = engine.min_cost_multi(targets, tau=8)
        analyzed, plans = engine.analyze_multi(targets, tau=8)
        for attr in ("hits_before", "hits_after", "total_cost", "satisfied"):
            assert getattr(plain, attr) == getattr(analyzed, attr), attr
        for target in targets:
            assert np.array_equal(
                plain.strategies[target].vector, analyzed.strategies[target].vector
            )
        assert [plan.target for plan in plans] == targets

    def test_needs_exactly_one_goal(self, engine):
        with pytest.raises(ValidationError):
            engine.analyze(0)
        with pytest.raises(ValidationError):
            engine.analyze(0, tau=5, budget=0.5)
        with pytest.raises(ValidationError):
            engine.analyze_multi([0, 1])


class TestExecutedPlan:
    def test_observations_filled(self, engine):
        _, executed = engine.analyze(0, tau=10)
        assert executed.total_seconds > 0.0
        assert executed.solve_seconds > 0.0
        assert executed.plan_seconds > 0.0
        assert executed.evaluations > 0

    def test_extends_the_plain_plan(self, engine):
        plan = engine.explain(0, tau=10)
        _, executed = engine.analyze(0, tau=10)
        for name in ("kind", "target", "goal", "sense", "epoch", "num_subdomains"):
            assert getattr(executed, name) == getattr(plan, name), name

    def test_to_dict_appends_analyze_fields_in_order(self, engine):
        _, executed = engine.analyze(0, tau=10)
        assert tuple(executed.to_dict()) == PLAN_FIELDS + ANALYZE_FIELDS

    def test_render_includes_timings(self, engine):
        _, executed = engine.analyze(0, tau=10)
        text = executed.render()
        assert "total_seconds" in text
        assert "candidates_generated" in text

    def test_every_candidate_is_scored_or_pruned(self):
        # The ``query`` benchmark's size: batches of over 109 candidates
        # cross the whole-scoring line, so the hit bound prunes some.
        # Object 0 ranks nowhere and object 12 ranks at some query.
        dataset = Dataset(independent(2000, 3, seed=20170321))
        queries = uniform_queries(600, 3, seed=20170322, k_range=(1, 10))
        engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
        for target, goal in ((0, {"tau": 10}), (12, {"budget": 0.3})):
            _, executed = engine.analyze(target, **goal)
            scored = executed.evaluations - executed.iterations  # one mask per iteration
            assert executed.pruned > 0
            assert scored + executed.pruned == executed.candidates_generated
            assert ("pruned", str(executed.pruned)) in executed.rows()

    def test_multi_plans_share_one_runs_observations(self, engine):
        _, plans = engine.analyze_multi([0, 5], tau=8)
        assert plans[0].total_seconds == plans[1].total_seconds
        assert plans[0].evaluations == plans[1].evaluations


class TestSolverStaysExplicit:
    """Timings never choose the solver: the solver decides the answer."""

    def test_auto_method_rejected_even_when_random_was_recorded(self):
        # 60 objects x 80 top-3 queries: random costs 5.207 here against
        # efficient's 0.401, yet its analyzed runs can be the fastest,
        # which is how a timing-driven method="auto" used to answer with
        # it.  Now "auto" is no solver name, however many runs were analyzed.
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.random((60, 3)))
        queries = QuerySet(rng.random((80, 3)), ks=3)
        engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
        for method in registered_solvers():
            if method == "exhaustive":
                continue
            for _ in range(3):
                engine.analyze(5, tau=20, method=method)
        with pytest.raises(ValidationError, match="method must be one of"):
            engine.min_cost(5, tau=20, method="auto")
        with pytest.raises(ValidationError, match="method must be one of"):
            engine.explain(5, tau=20, method="auto")
        assert engine.explain(5, tau=20).solver_name == "efficient"
        default = engine.min_cost(5, tau=20)
        assert default.total_cost == pytest.approx(0.401, abs=1e-3)
        assert engine.min_cost(5, tau=20, method="random").total_cost > 5.0


class TestMultiTargetValidation:
    def test_invalid_id_fails_before_any_work(self, engine):
        with pytest.raises(ValidationError, match="out of range"):
            engine.min_cost_multi([0, 99], tau=8)
        with pytest.raises(ValidationError, match="out of range"):
            engine.max_hit_multi([-1, 2], budget=0.5)

    def test_empty_targets_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.min_cost_multi([], tau=8)

    def test_explain_multi_validates_identically(self, engine):
        with pytest.raises(ValidationError, match="out of range"):
            engine.explain_multi([0, 99], tau=8)

    def test_explain_multi_plans_match_execution(self, engine):
        targets = [0, 5]
        plans = engine.explain_multi(targets, tau=8)
        assert all(isinstance(plan, ExecutionPlan) for plan in plans)
        assert [plan.target for plan in plans] == targets
        assert {plan.kind for plan in plans} == {"min_cost"}
        assert any("joint greedy loop" in note for plan in plans for note in plan.notes)


class TestGoalRendering:
    def test_min_cost_integral_tau_renders_as_int(self, engine):
        plan = engine.explain(0, tau=8)
        assert dict(plan.rows())["goal"] == "8"

    def test_max_hit_integral_budget_keeps_float(self, engine):
        plan = engine.explain(0, budget=2.0)
        assert dict(plan.rows())["goal"] == "2.0"

    def test_max_hit_fractional_budget(self, engine):
        plan = engine.explain(0, budget=0.4)
        assert dict(plan.rows())["goal"] == "0.4"

    def test_to_dict_goal_untouched(self, engine):
        plan = engine.explain(0, budget=2.0)
        assert plan.to_dict()["goal"] == 2.0
        assert isinstance(plan.to_dict()["goal"], float)
