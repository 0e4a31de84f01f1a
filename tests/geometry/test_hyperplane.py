"""The intersection hyperplanes (Eq. 2-3) as the index holds them.

One representation: the aligned ``(pairs, normals)`` arrays of
:func:`repro.core.subdomain.hyperplanes`, row ``p_a - p_b`` for the pair
``(a, b)``, with sides from :func:`repro.geometry.signature_matrix`.
"""

import numpy as np

from repro.constants import EPS
from repro.core.subdomain import hyperplanes
from repro.geometry.arrangement import signature_matrix

F_A = [4.0, 3.0]  # f_a(q) = 4 q1 + 3 q2 (Figure 2 of the paper)
F_B = [1.0, -2.0]  # f_b(q) = q1 - 2 q2


def all_pairs(n):
    return np.column_stack(np.triu_indices(n, 1))


class TestHyperplane:
    def test_between_is_difference_of_objects(self):
        pairs, normals = hyperplanes(np.array([F_A, F_B]), [(0, 1)])
        assert pairs.tolist() == [[0, 1]]
        assert np.allclose(normals, [[3.0, 5.0]])

    def test_side_above_means_first_object_ranks_no_worse(self, rng):
        matrix = np.array([F_A, F_B])
        __, normals = hyperplanes(matrix, [(0, 1)])
        # At q = (0, 0) both are 0 -> boundary counts as above.
        # f_a < f_b requires 3q1 + 5q2 < 0: impossible for positive q,
        # so any positive query is 'below' (f_a > f_b).
        points = np.array([[0.0, 0.0], [0.5, 0.5]])
        assert signature_matrix(points, normals).tolist() == [[1], [-1]]
        points = rng.uniform(-1, 1, size=(50, 2))
        scores = points @ matrix.T
        above = signature_matrix(points, normals)[:, 0] == 1
        assert np.array_equal(above, scores[:, 0] <= scores[:, 1])

    def test_sides_vectorized_matches_scalar(self, rng):
        # The one side test against its definition, one point at a time.
        normal = rng.normal(size=4)
        points = rng.normal(size=(25, 4))
        scalar = [1 if float(p @ normal) <= EPS else -1 for p in points]
        assert signature_matrix(points, normal[None, :])[:, 0].tolist() == scalar

    def test_tilt_adds_strategy_to_normal(self, rng):
        # Applying s to object a tilts every hyperplane of a by s (Eq. 3);
        # the pair keeps its ids.
        matrix = rng.random((10, 2))
        matrix[7], matrix[9] = F_A, F_B
        s = np.array([1.0, 0.0])
        __, old = hyperplanes(matrix, [(7, 9)])
        matrix[7] += s
        pairs, tilted = hyperplanes(matrix, [(7, 9)])
        assert np.allclose(tilted, [[4.0, 5.0]])
        assert np.array_equal(tilted, old + s)
        assert pairs.tolist() == [[7, 9]]

    def test_degenerate_detection(self):
        pairs, __ = hyperplanes(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.5]]), all_pairs(3))
        assert pairs.tolist() == [[0, 2], [1, 2]]  # (0, 1) has a zero normal


class TestPairwiseNormals:
    def test_all_pairs_count(self, rng):
        objects = rng.random((6, 3))
        pairs, normals = hyperplanes(objects, all_pairs(6))
        assert normals.shape == (15, 3)
        assert len(pairs) == 15
        for row, (a, b) in zip(normals, pairs):
            assert np.allclose(row, objects[a] - objects[b])

    def test_duplicate_objects_skipped(self):
        objects = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        pairs, __ = hyperplanes(objects, all_pairs(3))
        assert [0, 1] not in pairs.tolist()
        assert len(pairs) == 2

    def test_explicit_pairs(self, rng):
        objects = rng.random((5, 2))
        pairs, normals = hyperplanes(objects, [(0, 3), (2, 4)])
        assert pairs.tolist() == [[0, 3], [2, 4]]
        assert np.allclose(normals[0], objects[0] - objects[3])

    def test_empty_result_shape(self):
        objects = np.array([[1.0, 1.0], [1.0, 1.0]])
        pairs, normals = hyperplanes(objects, all_pairs(2))
        assert normals.shape == (0, 2) and pairs.shape == (0, 2)
