import warnings

import numpy as np
import pytest

from repro.core.queries import QuerySet
from repro.errors import ValidationError


class TestConstruction:
    def test_scalar_k_broadcasts(self, rng):
        qs = QuerySet(rng.random((5, 3)), ks=7)
        assert qs.ks.tolist() == [7] * 5
        assert qs.max_k == 7

    def test_per_query_k(self, rng):
        qs = QuerySet(rng.random((3, 2)), ks=[1, 5, 2])
        assert qs.max_k == 5
        weights, k = qs.query(1)
        assert k == 5 and weights.shape == (2,)

    def test_normalization_check(self):
        with pytest.raises(ValidationError):
            QuerySet(np.array([[1.5, 0.2]]), ks=1)
        # Explicitly unnormalized workloads are allowed.
        qs = QuerySet(np.array([[-3.0, 2.0]]), ks=1, normalized=False)
        assert qs.m == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            QuerySet(np.ones(3), ks=1)
        with pytest.raises(ValidationError):
            QuerySet(np.array([[np.inf, 0.0]]), ks=1, normalized=False)
        with pytest.raises(ValidationError):
            QuerySet(np.ones((2, 2)) * 0.5, ks=0)

    def test_read_only_views(self, rng):
        qs = QuerySet(rng.random((4, 2)), ks=2)
        with pytest.raises(ValueError):
            qs.weights[0, 0] = 0.1
        with pytest.raises(ValueError):
            qs.ks[0] = 3


class TestMutation:
    def test_with_query(self, rng):
        qs = QuerySet(rng.random((3, 2)), ks=2)
        bigger, qid = qs.with_query(np.array([0.1, 0.9]), 4)
        assert qid == 3 and bigger.m == 4 and qs.m == 3
        weights, k = bigger.query(3)
        assert k == 4 and np.allclose(weights, [0.1, 0.9])

    def test_without_query_shifts(self, rng):
        raw = rng.random((4, 2))
        qs = QuerySet(raw, ks=[1, 2, 3, 4])
        smaller = qs.without_query(1)
        assert smaller.m == 3
        __, k = smaller.query(1)
        assert k == 3  # old query 2 shifted down

    def test_subset(self, rng):
        qs = QuerySet(rng.random((5, 2)), ks=[1, 2, 3, 4, 5])
        sub = qs.subset([4, 0])
        assert sub.ks.tolist() == [5, 1]

    def test_bad_ids(self, rng):
        qs = QuerySet(rng.random((2, 2)), ks=1)
        with pytest.raises(ValidationError):
            qs.query(5)
        with pytest.raises(ValidationError):
            qs.without_query(-1)


class TestTypedArguments:
    def test_fractional_k_refused(self, rng):
        with pytest.raises(ValidationError, match="finite whole number, got 2.5"):
            QuerySet(rng.random((3, 2)), ks=[2.5, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_k_refused_without_a_cast_warning(self, rng, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite whole number"):
                QuerySet(rng.random((3, 2)), ks=[bad, 1, 1])

    def test_whole_float_k_accepted(self, rng):
        qs = QuerySet(rng.random((3, 2)), ks=[3.0, 1, 1])
        assert qs.ks.tolist() == [3, 1, 1]
        grown, query_id = qs.with_query(rng.random(2), 4.0)
        assert grown.ks[query_id] == 4

    @pytest.mark.parametrize("bad", [2.5, np.inf, np.nan])
    def test_with_query_refuses_non_whole_k(self, rng, bad):
        qs = QuerySet(rng.random((3, 2)), ks=1)
        with pytest.raises(ValidationError, match="whole number"):
            qs.with_query(rng.random(2), bad)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
    def test_ids_must_be_integers(self, rng, bad):
        qs = QuerySet(rng.random((3, 2)), ks=1)
        with pytest.raises(ValidationError, match="must be an integer"):
            qs.query(bad)
        with pytest.raises(ValidationError, match="must be an integer"):
            qs.without_query(bad)
        assert qs.query(np.int64(1))[1] == 1
