"""Property-based tests for the STR-packed R-tree: any point set packs
into a valid tree that holds exactly those points."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import RTree
from tests.index.test_rtree import assert_holds_exactly

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
points_2d = st.lists(st.tuples(coords, coords), min_size=1, max_size=60)


class TestBulkLoadProperties:
    @given(points=points_2d)
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_valid_and_complete(self, points):
        tree = RTree.bulk_load(2, [(p, i) for i, p in enumerate(points)], max_entries=4)
        tree.validate()
        assert_holds_exactly(tree, points)
