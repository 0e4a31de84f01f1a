import numpy as np
import pytest

from repro.core.cost import (
    AsymmetricLinearCost,
    CallableCost,
    L1Cost,
    L2Cost,
    LInfCost,
)
from repro.core.strategy import StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.optimize.hit_cost import min_cost_to_hit, min_cost_to_hit_batch


class TestAlreadyHitting:
    def test_positive_gap_returns_zero_strategy(self):
        s = min_cost_to_hit(L2Cost(3), np.array([0.3, 0.3, 0.4]), gap=0.5)
        assert s.is_zero()
        assert s.cost == 0.0


class TestL2ClosedForm:
    def test_unbounded_projection_distance(self):
        # min ||s|| s.t. q.s <= gap: optimal cost is |gap|/||q|| (margin aside).
        q = np.array([0.6, 0.8])
        gap = -1.0
        s = min_cost_to_hit(L2Cost(2), q, gap)
        assert s.cost == pytest.approx(1.0, abs=1e-5)  # |gap| / ||q|| = 1/1
        assert float(q @ s.vector) <= gap

    def test_direction_proportional_to_weights(self):
        q = np.array([1.0, 0.0])
        s = min_cost_to_hit(L2Cost(2), q, gap=-2.0)
        # Only the first coordinate moves.
        assert s.vector[1] == pytest.approx(0.0, abs=1e-9)
        assert s.vector[0] == pytest.approx(-2.0, abs=1e-5)

    def test_weighted_l2_prefers_cheap_dimension(self):
        q = np.array([1.0, 1.0])
        cost = L2Cost(2, weights=[100.0, 1.0])
        s = min_cost_to_hit(cost, q, gap=-1.0)
        assert abs(s.vector[1]) > abs(s.vector[0]) * 10

    def test_box_bounds_respected(self):
        q = np.array([1.0, 1.0])
        space = StrategySpace(2, lower=np.array([-0.3, -10.0]), upper=np.array([0.0, 0.0]))
        s = min_cost_to_hit(L2Cost(2), q, gap=-1.0, space=space)
        assert space.contains(s.vector)
        assert float(q @ s.vector) <= -1.0 + 1e-6

    def test_frozen_dimension_stays_zero(self):
        q = np.array([0.5, 0.5])
        space = StrategySpace.unconstrained(2).freeze([0])
        s = min_cost_to_hit(L2Cost(2), q, gap=-1.0, space=space)
        assert s.vector[0] == pytest.approx(0.0, abs=1e-9)
        assert float(q @ s.vector) <= -1.0 + 1e-6

    def test_infeasible_box_raises(self):
        q = np.array([1.0, 1.0])
        space = StrategySpace(2, lower=np.array([-0.1, -0.1]), upper=np.array([0.1, 0.1]))
        with pytest.raises(InfeasibleError):
            min_cost_to_hit(L2Cost(2), q, gap=-10.0, space=space)

    def test_zero_weights_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_cost_to_hit(L2Cost(2), np.zeros(2), gap=-1.0)


class TestL1LP:
    def test_uses_single_best_dimension(self):
        # With q = (0.9, 0.1) and unit prices, all movement goes to dim 0.
        q = np.array([0.9, 0.1])
        s = min_cost_to_hit(L1Cost(2), q, gap=-0.9)
        assert s.vector[0] == pytest.approx(-1.0, abs=1e-4)
        assert s.vector[1] == pytest.approx(0.0, abs=1e-6)

    def test_weighted_l1_switches_dimension(self):
        q = np.array([0.9, 0.1])
        cost = L1Cost(2, weights=[100.0, 1.0])  # dim 0 is pricey
        s = min_cost_to_hit(cost, q, gap=-0.1)
        assert s.vector[0] == pytest.approx(0.0, abs=1e-6)
        assert s.vector[1] == pytest.approx(-1.0, abs=1e-3)

    def test_box_forces_spill_over(self):
        # Dim 0 is the cheap one but its box caps it at -0.4; the LP
        # must exhaust it and buy the rest on expensive dim 1.
        q = np.array([1.0, 1.0])
        cost = L1Cost(2, weights=[1.0, 2.0])
        space = StrategySpace(2, lower=np.array([-0.4, -10.0]), upper=np.array([0.0, 0.0]))
        s = min_cost_to_hit(cost, q, gap=-1.0, space=space)
        assert s.vector[0] == pytest.approx(-0.4, abs=1e-4)
        assert float(q @ s.vector) <= -1.0 + 1e-6
        assert s.cost == pytest.approx(0.4 + 2 * 0.6, abs=1e-3)

    def test_l1_cost_geq_l2_cost(self, rng):
        # For the same subproblem, the optimal L1 price is >= L2 price
        # (norm inequality ||s||_2 <= ||s||_1).
        for __ in range(10):
            q = rng.random(3) + 0.05
            gap = -float(rng.random() + 0.1)
            l1 = min_cost_to_hit(L1Cost(3), q, gap)
            l2 = min_cost_to_hit(L2Cost(3), q, gap)
            assert l1.cost >= l2.cost - 1e-6


class TestAsymmetric:
    def test_prefers_cheap_direction(self):
        q = np.array([0.5, 0.5])
        # Lowering dim 1 is nearly free; strategy should use it.
        cost = AsymmetricLinearCost(2, up=[1.0, 1.0], down=[1.0, 0.01])
        s = min_cost_to_hit(cost, q, gap=-1.0)
        assert s.vector[1] < -1.0  # big cheap decrease
        assert abs(s.vector[0]) < 1e-6


class TestLInf:
    def test_spreads_across_dimensions(self):
        q = np.array([1.0, 1.0])
        s = min_cost_to_hit(LInfCost(2), q, gap=-2.0)
        # Optimal L-inf solution moves both coordinates equally.
        assert s.vector[0] == pytest.approx(s.vector[1], abs=1e-6)
        assert s.cost == pytest.approx(1.0, abs=1e-4)

    def test_box_respected(self):
        q = np.array([1.0, 1.0])
        space = StrategySpace(2, lower=np.array([-0.2, -5.0]), upper=np.array([0.0, 0.0]))
        s = min_cost_to_hit(LInfCost(2), q, gap=-1.0, space=space)
        assert space.contains(s.vector)


class TestNumericFallback:
    def test_quartic_cost_close_to_l2_shape(self):
        q = np.array([0.7, 0.3])
        quartic = CallableCost(2, lambda s: float(np.sum(s**2)))  # same optimum as L2^2
        s = min_cost_to_hit(quartic, q, gap=-1.0)
        exact = min_cost_to_hit(L2Cost(2), q, gap=-1.0)
        assert float(q @ s.vector) <= -1.0 + 1e-6
        assert s.cost <= exact.cost**2 * 1.1 + 1e-6

    def test_feasibility_always_holds(self, rng):
        for __ in range(5):
            q = rng.random(3) + 0.1
            gap = -float(rng.random() + 0.05)
            cost = CallableCost(3, lambda s: float(np.sum(np.abs(s) ** 1.5)))
            s = min_cost_to_hit(cost, q, gap)
            assert float(q @ s.vector) <= gap + 1e-6

    def test_a_row_reached_only_at_a_box_corner_is_feasible(self):
        # Cyclic halfspace-and-clip steps crawl towards the corner and
        # gave up after 500; L-infinity finds [-0.5000004, 0.5, 0.5].
        q = np.array([[0.25, -0.5, -1.0]])
        space = StrategySpace(3, upper=np.full(3, 0.5))
        cost = CallableCost(3, lambda s: float(np.max(0.5 * np.abs(s))))
        vectors, costs, feasible = min_cost_to_hit_batch(cost, q, np.array([-0.875]), space)
        exact = min_cost_to_hit(LInfCost(3, np.full(3, 0.5)), q[0], -0.875, space)
        assert feasible[0]
        assert space.contains(vectors[0])
        assert float(q[0] @ vectors[0]) < -0.875
        assert costs[0] == pytest.approx(exact.cost, rel=1e-3)

    def test_zero_weights_infeasible(self):
        cost = CallableCost(2, lambda s: float(np.sum(s**2)))
        with pytest.raises(InfeasibleError):
            min_cost_to_hit(cost, np.zeros(2), gap=-1.0)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            min_cost_to_hit(L2Cost(2), np.array([1.0]), gap=-1.0)

    def test_space_dim_mismatch(self):
        with pytest.raises(ValidationError):
            min_cost_to_hit(
                L2Cost(2), np.array([1.0, 1.0]), gap=-1.0, space=StrategySpace.unconstrained(3)
            )
