import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index.rtree import Rect, RTree


def leaf_entries(tree):
    """Every ``(Rect, payload)`` the tree's leaves hold."""
    out, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if node.leaf:
            out.extend(node.entries)
        else:
            stack.extend(child for __, child in node.entries)
    return out


def assert_holds_exactly(tree, points):
    """The leaves hold one entry per point, at that point, under its row id."""
    got = sorted((payload, rect) for rect, payload in leaf_entries(tree))
    assert got == [(i, Rect.point(p)) for i, p in enumerate(points)]


class TestRect:
    def test_point_rect(self):
        r = Rect.point([1.0, 2.0])
        assert r.mins == r.maxs == (1.0, 2.0)

    def test_union(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((2.0, 2.0), (3.0, 4.0))
        u = a.union(b)
        assert u.mins == (0.0, 0.0) and u.maxs == (3.0, 4.0)
        assert u.contains(a) and u.contains(b)

    def test_contains(self):
        a = Rect((0.0, 0.0), (2.0, 2.0))
        c = Rect((0.5, 0.5), (1.5, 1.5))
        assert a.contains(c) and not c.contains(a)
        assert a.contains(a)


class TestBulkLoad:
    def test_bulk_load_equals_incremental_contents(self, rng):
        points = rng.random((500, 3))
        tree = RTree.bulk_load(3, [(p, i) for i, p in enumerate(points)], max_entries=8)
        assert len(tree) == 500
        tree.validate()
        assert_holds_exactly(tree, points)

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load(2, [])
        assert len(tree) == 0
        tree.validate()
        assert leaf_entries(tree) == []

    def test_high_dimensional(self, rng):
        points = rng.random((150, 5))
        tree = RTree.bulk_load(5, [(p, i) for i, p in enumerate(points)], max_entries=6)
        tree.validate()
        assert_holds_exactly(tree, points)

    def test_duplicate_points_allowed(self):
        tree = RTree.bulk_load(2, [([0.5, 0.5], i) for i in range(10)], max_entries=4)
        tree.validate()
        assert_holds_exactly(tree, [[0.5, 0.5]] * 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            RTree(dim=0)
        with pytest.raises(ValidationError):
            RTree(dim=2, max_entries=1)
        with pytest.raises(ValidationError):
            RTree(dim=2, max_entries=4, min_entries=3)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValidationError):
            RTree.bulk_load(2, [([1.0, 2.0, 3.0], 0)])

    def test_node_count_and_memory_estimate(self, rng):
        small = RTree.bulk_load(2, [([0.5, 0.5], 0)], max_entries=4)
        assert small.node_count() == 1
        points = rng.random((100, 2))
        tree = RTree.bulk_load(2, [(p, i) for i, p in enumerate(points)], max_entries=4)
        assert tree.node_count() > 25  # at least 100 / 4 leaves under a root
        assert tree.memory_estimate() > small.memory_estimate() > 0
