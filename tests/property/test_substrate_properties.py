"""Property-based tests for the substrate layers."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import InfeasibleError, UnboundedError
from repro.index.bloom import CountingBloomFilter
from repro.index.skyline import dominates, skyline, skyline_layers
from repro.optimize.simplex import linprog
from repro.topk.evaluate import top_k

finite = st.floats(-5.0, 5.0, allow_nan=False, width=32)
unit = st.floats(0.0, 1.0, allow_nan=False, width=32)


class TestSimplexProperties:
    @given(
        c=arrays(np.float64, (3,), elements=finite),
        a=arrays(np.float64, (2, 3), elements=finite),
        x0=arrays(np.float64, (3,), elements=unit),
        slack=arrays(np.float64, (2,), elements=unit),
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_feasible_and_no_worse_than_witness(self, c, a, x0, slack):
        """Construct a feasible boxed LP around witness x0: the solver's
        answer must be feasible and at least as good as the witness."""
        b = a @ x0 + slack
        bounds = [(0.0, 1.0)] * 3
        try:
            result = linprog(c, a_ub=a, b_ub=b, bounds=bounds)
        except (InfeasibleError, UnboundedError):  # pragma: no cover
            raise AssertionError("a witnessed-feasible boxed LP cannot fail")
        assert np.all(a @ result.x <= b + 1e-6)
        assert np.all(result.x >= -1e-6) and np.all(result.x <= 1 + 1e-6)
        assert result.fun <= float(c @ x0) + 1e-6

    @given(
        c=arrays(np.float64, (2,), elements=finite),
        shift=st.floats(0.125, 2.0, width=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_objective_shift_invariance(self, c, shift):
        """Scaling the objective scales the optimum."""
        bounds = [(0.0, 1.0)] * 2
        base = linprog(c, bounds=bounds)
        scaled = linprog(c * shift, bounds=bounds)
        assert scaled.fun == pytest.approx(base.fun * shift, abs=1e-7)


import pytest  # noqa: E402  (used by approx above)


class TestTopKProperties:
    @given(
        objects=arrays(np.float64, (10, 2), elements=unit),
        weights=arrays(np.float64, (2,), elements=unit),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_prefix_property(self, objects, weights):
        """top_(k) is always a prefix of top_(k+1)."""
        for k in range(1, 10):
            assert top_k(objects, weights, k) == top_k(objects, weights, k + 1)[:k]

    @given(
        objects=arrays(np.float64, (8, 2), elements=unit),
        weights=arrays(np.float64, (2,), elements=unit),
    )
    @settings(max_examples=40, deadline=None)
    def test_scores_nondecreasing_along_ranking(self, objects, weights):
        order = top_k(objects, weights, 8)
        scores = objects @ weights
        ranked = [scores[i] for i in order]
        assert all(a <= b + 1e-12 for a, b in zip(ranked, ranked[1:]))


class TestSkylineProperties:
    @given(objects=arrays(np.float64, (15, 3), elements=unit))
    @settings(max_examples=40, deadline=None)
    def test_skyline_members_undominated(self, objects):
        for idx in skyline(objects):
            assert not any(
                dominates(objects[j], objects[idx])
                for j in range(objects.shape[0])
                if j != idx
            )

    @given(objects=arrays(np.float64, (15, 2), elements=unit))
    @settings(max_examples=40, deadline=None)
    def test_non_members_dominated(self, objects):
        members = set(skyline(objects).tolist())
        for idx in range(objects.shape[0]):
            if idx not in members:
                assert any(
                    dominates(objects[j], objects[idx]) for j in members
                )

    @given(objects=arrays(np.float64, (12, 2), elements=unit))
    @settings(max_examples=30, deadline=None)
    def test_layers_partition_and_nest(self, objects):
        layers = skyline_layers(objects)
        combined = sorted(int(i) for layer in layers for i in layer)
        assert combined == list(range(objects.shape[0]))


class TestBloomProperties:
    @given(items=st.lists(st.text(max_size=12), min_size=1, max_size=80, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives_ever(self, items):
        bloom = CountingBloomFilter(expected_items=max(16, len(items)))
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    @given(
        items=st.lists(st.text(max_size=12), min_size=2, max_size=40, unique=True),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_remove_only_affects_removed(self, items, data):
        bloom = CountingBloomFilter(expected_items=max(16, len(items)))
        for item in items:
            bloom.add(item)
        victim = data.draw(st.sampled_from(items))
        assume(bloom.remove(victim))
        survivors = [i for i in items if i != victim]
        assert all(item in bloom for item in survivors)
