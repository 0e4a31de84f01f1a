"""Property-based parity of Algorithm 1 and the index's grouping.

The partition :class:`~repro.core.subdomain.SubdomainIndex` builds,
``unique_signatures(signature_matrix(points, normals))``, must reproduce
the literal BSP loop of Algorithm 1 (``find_subdomains``) *byte for
byte*: same signature keys, same member lists — including points
sitting exactly on a hyperplane, which the ``<= EPS`` convention assigns
to the non-positive side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.subdomain import find_subdomains
from repro.geometry.arrangement import signature_matrix, unique_signatures

finite = st.floats(-3.0, 3.0, allow_nan=False, width=32)


def grouped(normals, points):
    """The index's grouping, keyed as ``find_subdomains`` keys its cells."""
    cells, __, group = unique_signatures(signature_matrix(points, normals))
    return {cell.tobytes(): np.flatnonzero(group == g).tolist() for g, cell in enumerate(cells)}


def _assert_identical(normals, points):
    assert find_subdomains(normals, points) == grouped(normals, points)


class TestFindSubdomainsParity:
    @given(
        normals=arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=finite),
        points=arrays(np.float64, st.tuples(st.integers(0, 24), st.just(3)), elements=finite),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_inputs(self, normals, points):
        _assert_identical(normals, points)

    @given(
        normals=arrays(np.float64, (4, 2), elements=finite),
        points=arrays(np.float64, (12, 2), elements=finite),
        plane=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_points_exactly_on_a_hyperplane(self, normals, points, plane, data):
        """Project a subset of points onto one hyperplane; the on-plane
        points must land on the ``<= EPS`` side in both implementations."""
        normal = normals[plane]
        norm_sq = float(normal @ normal)
        if norm_sq > 0:
            rows = data.draw(
                st.lists(st.integers(0, points.shape[0] - 1), min_size=1, unique=True)
            )
            for row in rows:
                points[row] = points[row] - (points[row] @ normal / norm_sq) * normal
            assert np.all(np.abs(points[rows] @ normal) < 1e-6)
        _assert_identical(normals, points)

    @given(points=arrays(np.float64, (8, 2), elements=finite))
    @settings(max_examples=30, deadline=None)
    def test_no_hyperplanes_single_cell(self, points):
        normals = np.empty((0, 2))
        for cells in (find_subdomains(normals, points), grouped(normals, points)):
            assert list(cells.values()) == [list(range(8))]

    def test_duplicate_points_share_a_cell(self):
        points = np.tile([[0.25, 0.75]], (5, 1))
        normals = np.array([[1.0, -1.0], [0.5, 0.5]])
        _assert_identical(normals, points)
        cells = find_subdomains(normals, points)
        assert list(cells.values()) == [[0, 1, 2, 3, 4]]
