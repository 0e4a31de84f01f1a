import numpy as np
import pytest

from repro.core.strategy import Strategy, StrategySpace
from repro.errors import ValidationError


class TestStrategy:
    def test_apply_matches_paper_definition(self):
        # Figure 1: s = (5, 2, -50) turns p1 = (10, 2, 250) into (15, 4, 200).
        s = Strategy(np.array([5.0, 2.0, -50.0]))
        assert s.apply_to(np.array([10.0, 2.0, 250.0])).tolist() == [15.0, 4.0, 200.0]

    def test_zero_strategy(self):
        s = Strategy.zero(3)
        assert s.is_zero()
        assert s.cost == 0.0

    def test_immutability(self):
        s = Strategy(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.vector[0] = 99.0

    def test_compose_adds_vectors_and_costs(self):
        a = Strategy(np.array([1.0, 0.0]), cost=2.0)
        b = Strategy(np.array([0.0, 3.0]), cost=1.5)
        c = a.compose(b)
        assert c.vector.tolist() == [1.0, 3.0]
        assert c.cost == pytest.approx(3.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Strategy(np.array([[1.0]]))
        with pytest.raises(ValidationError):
            Strategy(np.array([np.inf]))
        with pytest.raises(ValidationError):
            Strategy(np.array([1.0])).apply_to(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            Strategy(np.array([1.0])).compose(Strategy(np.array([1.0, 2.0])))


class TestStrategySpace:
    def test_unconstrained_contains_anything(self, rng):
        space = StrategySpace.unconstrained(4)
        for __ in range(5):
            assert space.contains(rng.normal(size=4) * 1e6)

    def test_bounds_enforced(self):
        space = StrategySpace(2, lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
        assert space.contains(np.array([0.5, 1.0]))
        assert not space.contains(np.array([2.0, 1.0]))
        assert not space.contains(np.array([0.0, -0.5]))

    def test_zero_must_be_valid(self):
        with pytest.raises(ValidationError):
            StrategySpace(1, lower=np.array([1.0]), upper=np.array([2.0]))
        with pytest.raises(ValidationError):
            StrategySpace(1, lower=np.array([-2.0]), upper=np.array([-1.0]))

    def test_from_value_range(self):
        # Camera resolution in [8, 20], currently 10: s_res in [-2, 10].
        space = StrategySpace.from_value_range(
            np.array([10.0]), np.array([8.0]), np.array([20.0])
        )
        assert space.lower.tolist() == [-2.0]
        assert space.upper.tolist() == [10.0]

    def test_from_value_range_rejects_out_of_range_object(self):
        with pytest.raises(ValidationError):
            StrategySpace.from_value_range(np.array([30.0]), np.array([0.0]), np.array([20.0]))

    def test_freeze(self):
        space = StrategySpace.unconstrained(3).freeze([1])
        assert space.contains(np.array([5.0, 0.0, -3.0]))
        assert not space.contains(np.array([5.0, 0.1, -3.0]))

    def test_from_adjustments(self):
        # A bounded attribute freezes the unlisted ones; frozen items
        # alone freeze only themselves; a later item on an attribute wins.
        bounded = StrategySpace.from_adjustments(3, [(0, (-1.0, 2.0)), (2, None)])
        assert bounded.lower.tolist() == [-1.0, 0.0, 0.0]
        assert bounded.upper.tolist() == [2.0, 0.0, 0.0]
        frozen = StrategySpace.from_adjustments(3, [(1, None)])
        assert frozen.lower.tolist() == [-np.inf, 0.0, -np.inf]
        assert frozen.upper.tolist() == [np.inf, 0.0, np.inf]
        replaced = StrategySpace.from_adjustments(2, [(0, None), (0, (-1.0, 1.0))])
        assert replaced.lower.tolist() == [-1.0, 0.0]
        assert StrategySpace.from_adjustments(2, []).lower.tolist() == [-np.inf, -np.inf]

    def test_freeze_invalid_index(self):
        with pytest.raises(ValidationError):
            StrategySpace.unconstrained(2).freeze([5])

    def test_clip(self):
        space = StrategySpace(2, lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
        assert space.clip(np.array([5.0, -5.0])).tolist() == [1.0, -1.0]

    def test_shifted_shrinks_room(self):
        space = StrategySpace(1, lower=np.array([-2.0]), upper=np.array([4.0]))
        rest = space.shifted(np.array([3.0]))
        assert rest.upper.tolist() == [1.0]
        assert rest.lower.tolist() == [-5.0]
        # Zero remains valid even if the whole budget was consumed.
        consumed = space.shifted(np.array([4.0]))
        assert consumed.contains(np.zeros(1))
