from dataclasses import replace

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.data import independent, uniform_queries

from iqbench.verify import Answer, BruteForce, check
from iqbench.workloads import BUDGET, TAU, _library_answer


@pytest.fixture(scope="module")
def case():
    dataset = Dataset(independent(150, 3, seed=7))
    queries = uniform_queries(60, 3, seed=8, k_range=(1, 10))
    engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
    brute = BruteForce(dataset.matrix, queries.weights, queries.ks)
    answers = [
        _library_answer("min_cost", engine.min_cost(target, TAU)) for target in (3, 40, 99)
    ] + [_library_answer("max_hit", engine.max_hit(target, BUDGET)) for target in (3, 40, 99)]
    return brute, answers


def test_engine_answers_verify(case):
    brute, answers = case
    for answer in answers:
        assert check(answer, brute) == []
        assert brute.hit_range(answer.target, answer.strategy)[1] == 0  # no tie-band slack


def test_planted_extra_hit_is_caught(case):
    brute, answers = case
    for answer in answers:
        wrong = replace(answer, hits_after=answer.hits_after + 1)
        assert any("hits_after" in problem for problem in check(wrong, brute))


def test_planted_cost_above_budget_is_caught(case):
    brute, answers = case
    answer = next(a for a in answers if a.kind == "max_hit")
    wrong = replace(answer, total_cost=BUDGET + 0.01)
    assert any("over budget" in problem for problem in check(wrong, brute))


def test_strategy_costlier_than_reported_is_caught(case):
    brute, answers = case
    answer = next(a for a in answers if a.kind == "min_cost" and a.total_cost > 0)
    wrong = replace(answer, total_cost=0.5 * answer.total_cost)
    assert any("re-costs" in problem for problem in check(wrong, brute))


def test_satisfied_flag_must_match_the_hit_count(case):
    brute, answers = case
    answer = next(a for a in answers if a.kind == "min_cost")
    wrong = replace(answer, satisfied=not answer.satisfied)
    assert any("satisfied" in problem for problem in check(wrong, brute))


def test_giving_up_on_a_reachable_goal_is_caught(case):
    brute, answers = case
    answer = next(a for a in answers if a.kind == "min_cost")
    settled, tied = brute.hit_range(answer.target, np.zeros(3))
    assert settled + tied < TAU
    gave_up = replace(answer, strategy=np.zeros(3), total_cost=0.0, hits_after=settled, satisfied=False)
    assert any("unsatisfied although" in problem for problem in check(gave_up, brute))


def test_ranked_objects_are_those_some_query_ranks(case):
    brute, _ = case
    zero = np.zeros(3)
    ranked = brute.ranked()
    for target in range(brute.matrix.shape[0]):
        settled, tied = brute.hit_range(target, zero)
        assert ranked[target] == (settled + tied > 0)


def test_query_prefix_limits_the_recount():
    matrix = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    weights = np.array([[1.0, 1.0], [1.0, 0.5]])
    brute = BruteForce(matrix, weights, np.array([1, 1]))
    answer = Answer("min_cost", 1.0, 1, np.array([-1.5, -1.5]), 2.1213203435596424, 2, True)
    assert check(answer, brute) == []
    assert check(replace(answer, hits_after=1), brute, m=1) == []
