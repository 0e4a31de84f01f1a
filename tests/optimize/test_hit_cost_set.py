import numpy as np
import pytest

from repro.core.cost import AsymmetricLinearCost, CallableCost, L1Cost, L2Cost, LInfCost
from repro.core.strategy import StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch, min_cost_to_hit_set


class TestSingleRowReducesToSingleQuery:
    def test_l2_matches_single_solver(self, rng):
        for __ in range(10):
            q = rng.random(3) + 0.05
            gap = -float(rng.random() + 0.1)
            single = min_cost_to_hit(L2Cost(3), q, gap)
            joint = min_cost_to_hit_set(L2Cost(3), q[None, :], np.array([gap]))
            assert joint.cost == pytest.approx(single.cost, rel=1e-4, abs=1e-6)

    def test_l1_matches_single_solver(self, rng):
        for __ in range(10):
            q = rng.random(2) + 0.05
            gap = -float(rng.random() + 0.1)
            single = min_cost_to_hit(L1Cost(2), q, gap)
            joint = min_cost_to_hit_set(L1Cost(2), q[None, :], np.array([gap]))
            assert joint.cost == pytest.approx(single.cost, rel=1e-4, abs=1e-6)


class TestJointConstraints:
    def test_all_constraints_satisfied(self, rng):
        for __ in range(10):
            weights = rng.random((4, 3)) + 0.05
            gaps = -(rng.random(4) + 0.1)
            s = min_cost_to_hit_set(L2Cost(3), weights, gaps)
            assert np.all(weights @ s.vector <= gaps)

    def test_joint_at_least_as_costly_as_worst_single(self, rng):
        for __ in range(10):
            weights = rng.random((3, 2)) + 0.05
            gaps = -(rng.random(3) + 0.1)
            joint = min_cost_to_hit_set(L2Cost(2), weights, gaps)
            singles = [
                min_cost_to_hit(L2Cost(2), weights[i], float(gaps[i])).cost
                for i in range(3)
            ]
            assert joint.cost >= max(singles) - 1e-6

    def test_already_satisfied_rows_still_guard(self):
        # Row 0 needs work; row 1 is satisfied and must not be broken:
        # s0 <= -1 (to hit row 0) but s0 >= -1.5 (to keep row 1).
        weights = np.array([[1.0, 0.0], [-1.0, 0.0]])
        gaps = np.array([-1.0, 1.5])
        s = min_cost_to_hit_set(L2Cost(2), weights, gaps)
        assert s.vector[0] <= -1.0 + 1e-6
        assert -s.vector[0] <= 1.5 + 1e-6
        assert s.cost == pytest.approx(1.0, abs=1e-4)

    def test_all_satisfied_returns_zero(self):
        weights = np.array([[0.5, 0.5]])
        s = min_cost_to_hit_set(L2Cost(2), weights, np.array([1.0]))
        assert s.is_zero()

    def test_contradictory_constraints_infeasible(self):
        weights = np.array([[1.0, 0.0], [-1.0, 0.0]])
        gaps = np.array([-1.0, -1.0])  # s0 <= -1 and s0 >= 1
        with pytest.raises(InfeasibleError):
            min_cost_to_hit_set(L2Cost(2), weights, gaps)

    def test_box_bounds(self):
        weights = np.array([[1.0, 1.0]])
        gaps = np.array([-1.0])
        space = StrategySpace(2, lower=np.array([-0.2, -5.0]), upper=np.zeros(2))
        s = min_cost_to_hit_set(L2Cost(2), weights, gaps, space=space)
        assert space.contains(s.vector)
        assert float(weights[0] @ s.vector) <= -1.0 + 1e-6

    def test_infeasible_box(self):
        weights = np.array([[1.0, 1.0]])
        gaps = np.array([-5.0])
        space = StrategySpace(2, lower=np.full(2, -0.1), upper=np.full(2, 0.1))
        with pytest.raises(InfeasibleError):
            min_cost_to_hit_set(L2Cost(2), weights, gaps, space=space)

    @pytest.mark.parametrize("cost", [L2Cost(2), L1Cost(2)], ids=["l2", "l1"])
    def test_box_corner_that_only_ties_is_infeasible(self, cost):
        # The corner (-0.5, -0.5) reaches q . s = -1.0, the gap itself: a
        # tie, not the strict hit q . s < gap, so no strategy hits.
        weights = np.array([[1.0, 1.0]])
        gaps = np.array([-1.0])
        space = StrategySpace(2, lower=np.full(2, -0.5))
        with pytest.raises(InfeasibleError):
            min_cost_to_hit_set(cost, weights, gaps, space=space)


class TestCostFamilies:
    def test_weighted_l2(self, rng):
        weights = rng.random((3, 2)) + 0.05
        gaps = -(rng.random(3) + 0.1)
        cheap_dim1 = min_cost_to_hit_set(
            L2Cost(2, weights=[100.0, 1.0]), weights, gaps
        )
        assert abs(cheap_dim1.vector[1]) > abs(cheap_dim1.vector[0])

    def test_asymmetric_lp(self):
        weights = np.array([[0.5, 0.5]])
        gaps = np.array([-1.0])
        cost = AsymmetricLinearCost(2, up=[1.0, 1.0], down=[0.01, 1.0])
        s = min_cost_to_hit_set(cost, weights, gaps)
        # Lowering dim 0 is nearly free: the LP should use it heavily.
        assert s.vector[0] < -1.0

    def test_callable_numeric_feasible(self, rng):
        weights = rng.random((2, 3)) + 0.1
        gaps = -(rng.random(2) + 0.1)
        cost = CallableCost(3, lambda s: float(np.sum(s**4)))
        s = min_cost_to_hit_set(cost, weights, gaps)
        assert np.all(weights @ s.vector <= gaps + 1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            min_cost_to_hit_set(L2Cost(2), np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValidationError):
            min_cost_to_hit_set(L2Cost(2), np.ones((2, 2)), np.zeros(3))


class TestLInfSets:
    """L-infinity sets are an LP: exact, and feasible whenever the box allows."""

    def test_boxed_row_the_projection_loop_gave_up_on(self):
        weights = np.array([[0.25, -0.5, -1.0]])
        gaps = np.array([-0.875])
        space = StrategySpace(3, upper=np.full(3, 0.5))
        cost = LInfCost(3, weights=np.full(3, 0.5))
        s = min_cost_to_hit_set(cost, weights, gaps, space=space)
        vectors, __, feasible = min_cost_to_hit_batch(cost, weights, gaps, space=space)
        assert feasible[0]
        assert np.allclose(s.vector, vectors[0], rtol=0.0, atol=1e-12)
        assert np.allclose(s.vector, [-0.5000004, 0.5, 0.5], rtol=0.0, atol=1e-12)

    def test_one_row_set_equals_the_batch(self, rng):
        for __ in range(20):
            d = int(rng.integers(2, 5))
            weights = rng.normal(size=(1, d))
            gaps = -(rng.random(1) + 0.1)
            cost = LInfCost(d, weights=rng.random(d) + 0.1)
            space = StrategySpace(d, lower=-rng.random(d) - 0.5, upper=rng.random(d) + 0.5)
            __, costs, feasible = min_cost_to_hit_batch(cost, weights, gaps, space=space)
            if not feasible[0]:
                with pytest.raises(InfeasibleError):
                    min_cost_to_hit_set(cost, weights, gaps, space=space)
                continue
            s = min_cost_to_hit_set(cost, weights, gaps, space=space)
            assert s.cost == pytest.approx(costs[0], rel=1e-12)

    def test_set_hits_every_row_and_costs_at_least_its_dearest_row(self, rng):
        solved = 0
        for __ in range(30):
            d = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 6))
            weights = rng.normal(size=(rows, d))
            gaps = rng.normal(size=rows) - 0.3
            cost = LInfCost(d, weights=rng.random(d) + 0.1)
            space = StrategySpace(d, lower=-2 * rng.random(d), upper=2 * rng.random(d))
            try:
                s = min_cost_to_hit_set(cost, weights, gaps, space=space)
            except InfeasibleError:
                continue
            solved += 1
            __, singles, feasible = min_cost_to_hit_batch(cost, weights, gaps, space=space)
            assert feasible.all()
            assert np.all(weights @ s.vector < gaps)
            assert space.contains(s.vector)
            assert s.cost >= singles.max() * (1 - 1e-12)
        assert solved > 0


class TestDykstraOptimality:
    def test_matches_projection_formula_single_halfspace(self):
        # Min-norm point onto {s : q.s <= b} is (b/||q||^2) q for b < 0.
        q = np.array([0.6, 0.8])
        b = -2.0
        s = min_cost_to_hit_set(L2Cost(2), q[None, :], np.array([b]))
        expected = (b / float(q @ q)) * q
        assert np.allclose(s.vector, expected, atol=1e-6)

    def test_two_halfspace_corner(self):
        # {s0 <= -1} and {s1 <= -1}: the min-norm point is (-1, -1).
        weights = np.eye(2)
        gaps = np.array([-1.0, -1.0])
        s = min_cost_to_hit_set(L2Cost(2), weights, gaps)
        assert np.allclose(s.vector, [-1.0, -1.0], atol=1e-6)
