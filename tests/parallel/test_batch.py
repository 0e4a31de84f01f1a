"""The batch driver must reproduce direct engine calls exactly."""

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import ValidationError
from repro.parallel import IQRequest, run_batch


@pytest.fixture
def engine(small_market):
    objects, queries, ks = small_market
    return ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))


def requests_for(engine, count=6):
    targets = range(min(count, engine.dataset.n))
    return [IQRequest("min_cost", t, 5.0) for t in targets] + [
        IQRequest("max_hit", t, 0.8) for t in targets
    ]


class TestParity:
    def test_matches_direct_engine_calls(self, engine):
        batch = [IQRequest("min_cost", 0, 5.0), IQRequest("max_hit", 1, 0.5)]
        results = run_batch(engine, batch)
        direct_min = engine.min_cost(0, tau=5)
        direct_max = engine.max_hit(1, budget=0.5)
        assert results[0].hits_after == direct_min.hits_after
        assert results[0].total_cost == pytest.approx(direct_min.total_cost)
        assert results[1].hits_after == direct_max.hits_after

    def test_methods_and_options_pass_through(self, engine):
        batch = [
            IQRequest("min_cost", 0, 5.0, method="greedy"),
            IQRequest("max_hit", 1, 0.8, method="random"),
        ]
        results = run_batch(engine, batch)
        greedy = engine.min_cost(0, tau=5, method="greedy")
        direct = engine.max_hit(1, budget=0.8, method="random")
        assert results[0].hits_after == greedy.hits_after
        assert np.array_equal(results[0].strategy.vector, greedy.strategy.vector)
        assert results[1].hits_after == direct.hits_after
        assert np.array_equal(results[1].strategy.vector, direct.strategy.vector)


class TestDispatch:
    def test_results_in_request_order(self, engine):
        batch = requests_for(engine)
        results = run_batch(engine, batch)
        for request, result in zip(batch, results):
            assert result.target == request.target
            if request.kind == "min_cost":
                assert result.hits_after >= request.goal or not result.satisfied

    def test_empty_batch(self, engine):
        assert run_batch(engine, []) == []


class TestValidation:
    def test_unknown_kind_rejected_before_pool(self, engine):
        with pytest.raises(ValidationError, match="kind"):
            run_batch(engine, [IQRequest("median", 0, 5.0)])

    def test_unknown_method_rejected_before_pool(self, engine):
        with pytest.raises(ValidationError):
            run_batch(engine, [IQRequest("min_cost", 0, 5.0, method="quantum")] * 2)
