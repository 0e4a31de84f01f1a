import numpy as np
import pytest

from repro.errors import ValidationError
from repro.geometry.arrangement import (
    cells_touched,
    group_by_signature,
    max_cells_bound,
    signature_matrix,
)


class TestSignatureMatrix:
    def test_signs_match_convention(self):
        # Boundary (value 0) counts as above (+1).
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        normals = np.array([[1.0, -1.0]])
        sig = signature_matrix(points, normals)
        assert sig.tolist() == [[1], [-1], [1]]

    def test_empty_normals(self):
        sig = signature_matrix(np.ones((3, 2)), np.empty((0, 2)))
        assert sig.shape == (3, 0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            signature_matrix(np.ones((3, 2)), np.ones((1, 3)))

    def test_dtype_is_compact(self, rng):
        sig = signature_matrix(rng.random((5, 3)), rng.normal(size=(4, 3)))
        assert sig.dtype == np.int8

    def test_side_convention(self):
        # 1-D points against scalar normals: the offsets are the normals.
        normals = np.array([[-1.0], [0.0], [1e-12], [1.0]])
        out = signature_matrix(np.array([[1.0]]), normals, 1e-9)
        assert out.dtype == np.int8
        assert out.tolist() == [[1, 1, 1, -1]]  # <= tol is side 1

    def test_exactly_on_tolerance_is_side_one(self):
        out = signature_matrix(np.array([[1.0]]), np.array([[1e-9]]), 1e-9)
        assert out.tolist() == [[1]]


class TestGrouping:
    def test_identical_rows_grouped(self):
        sig = np.array([[1, -1], [1, -1], [-1, 1]], dtype=np.int8)
        groups = group_by_signature(sig)
        assert len(groups) == 2
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 2]

    def test_groups_partition_indices(self, rng):
        sig = signature_matrix(rng.random((50, 3)), rng.normal(size=(6, 3)))
        groups = group_by_signature(sig)
        all_indices = np.concatenate(list(groups.values()))
        assert sorted(all_indices.tolist()) == list(range(50))

    def test_matches_structured_unique(self, rng):
        # Keys are row bytes and members ascend, exactly as a structured
        # np.unique(axis=0) over the rows groups them.
        signatures = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 7))
        uniq, inverse = np.unique(signatures, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        expected = {
            uniq[g].tobytes(): np.flatnonzero(inverse == g).tolist()
            for g in range(uniq.shape[0])
        }
        groups = group_by_signature(signatures)
        assert {key: members.tolist() for key, members in groups.items()} == expected
        assert all(members.dtype == np.intp for members in groups.values())

    def test_empty_inputs(self):
        assert group_by_signature(np.empty((0, 4), dtype=np.int8)) == {}
        zero_cols = group_by_signature(np.empty((3, 0), dtype=np.int8))
        assert list(zero_cols) == [b""]
        assert zero_cols[b""].tolist() == [0, 1, 2]

    def test_zero_hyperplanes_single_group(self):
        groups = group_by_signature(np.empty((7, 0), dtype=np.int8))
        assert len(groups) == 1
        assert len(next(iter(groups.values()))) == 7

    def test_cells_touched_counts_groups(self, rng):
        points = rng.random((100, 2))
        normals = rng.normal(size=(5, 2))
        assert cells_touched(points, normals) == len(
            group_by_signature(signature_matrix(points, normals))
        )


class TestCellBound:
    def test_small_values(self):
        # 0 hyperplanes -> 1 cell; 1 hyperplane -> 2 cells; in 2-D, h
        # lines make at most 1 + h + C(h,2) cells.
        assert max_cells_bound(0, 2) == 1
        assert max_cells_bound(1, 2) == 2
        assert max_cells_bound(3, 2) == 1 + 3 + 3

    def test_bound_dominates_observed_cells(self, rng):
        points = rng.random((500, 2)) * 2 - 1  # include negative orthant
        normals = rng.normal(size=(6, 2))
        assert cells_touched(points, normals) <= max_cells_bound(6, 2)

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            max_cells_bound(-1, 2)
