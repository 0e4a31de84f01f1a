import numpy as np
import pytest

from repro.errors import ValidationError
from repro.topk.evaluate import kth_score, rank_of, scores, top_k


class TestScores:
    def test_linear_scores(self):
        objects = np.array([[1.0, 2.0], [3.0, 0.0]])
        weights = np.array([0.5, 0.5])
        assert scores(objects, weights).tolist() == [1.5, 1.5]

    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            scores(np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            scores(np.ones((2, 3)), np.ones(2))


class TestTopK:
    def test_lowest_scores_win(self):
        objects = np.array([[3.0], [1.0], [2.0]])
        assert top_k(objects, np.array([1.0]), 2) == [1, 2]

    def test_ties_broken_by_id(self):
        objects = np.array([[1.0], [1.0], [0.5]])
        assert top_k(objects, np.array([1.0]), 2) == [2, 0]

    def test_k_capped_at_n(self):
        objects = np.array([[1.0], [2.0]])
        assert top_k(objects, np.array([1.0]), 10) == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            top_k(np.ones((2, 1)), np.ones(1), 0)

    def test_paper_camera_example(self):
        # Figure 1 of the paper, converted to min-convention by negation.
        # q1: 5.0*res + 3.5*storage - 0.05*price, k=1 (higher is better).
        cameras = np.array([[10.0, 2.0, 250.0], [12.0, 4.0, 340.0]])
        q1 = -np.array([5.0, 3.5, -0.05])  # negate for min-convention
        # p2 wins q1 before improvement: 5*12+3.5*4-0.05*340 = 57 > 44.5
        assert top_k(cameras, q1, 1) == [1]
        # Applying s = (5, 2, -50) to p1 makes p1' = (15, 4, 200) win.
        improved = cameras.copy()
        improved[0] += np.array([5.0, 2.0, -50.0])
        assert top_k(improved, q1, 1) == [0]


class TestRankOf:
    def test_rank_positions(self):
        objects = np.array([[1.0], [3.0], [2.0]])
        weights = np.array([1.0])
        assert rank_of(objects, weights, 0) == 1
        assert rank_of(objects, weights, 2) == 2
        assert rank_of(objects, weights, 1) == 3

    def test_tie_rank_respects_id_order(self):
        objects = np.array([[1.0], [1.0]])
        weights = np.array([1.0])
        assert rank_of(objects, weights, 0) == 1
        assert rank_of(objects, weights, 1) == 2

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            rank_of(np.ones((2, 1)), np.ones(1), 5)


class TestKthScore:
    def test_threshold_identity(self):
        objects = np.array([[1.0], [2.0], [3.0]])
        weights = np.array([1.0])
        score, obj = kth_score(objects, weights, 2)
        assert (score, obj) == (2.0, 1)

    def test_exclude_target(self):
        objects = np.array([[1.0], [2.0], [3.0]])
        weights = np.array([1.0])
        # Excluding the best object shifts the threshold.
        score, obj = kth_score(objects, weights, 1, exclude=0)
        assert (score, obj) == (2.0, 1)

    def test_too_few_objects_gives_infinity(self):
        objects = np.array([[1.0]])
        score, obj = kth_score(objects, np.array([1.0]), 1, exclude=0)
        assert score == float("inf") and obj == -1

    def test_matches_topk(self, rng):
        objects = rng.random((50, 3))
        weights = rng.random(3)
        for k in (1, 5, 20):
            __, obj = kth_score(objects, weights, k)
            assert obj == top_k(objects, weights, k)[-1]
