import numpy as np
import pytest

from repro.errors import ValidationError
from repro.geometry.arrangement import max_cells_bound, signature_matrix, unique_signatures


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


def members(group, count):
    """Each cell's row ids, ascending, from ``unique_signatures``' ``group``."""
    return [np.flatnonzero(group == g).tolist() for g in range(count)]


class TestGrouping:
    def test_identical_rows_grouped(self):
        sig = np.array([[1, -1], [1, -1], [-1, 1]], dtype=np.int8)
        cells, __, group = unique_signatures(sig)
        assert len(cells) == 2
        sizes = sorted(np.bincount(group).tolist())
        assert sizes == [1, 2]

    def test_groups_partition_indices(self, rng):
        sig = signature_matrix(rng.random((50, 3)), rng.normal(size=(6, 3)))
        cells, first, group = unique_signatures(sig)
        assert group.shape == (50,)
        assert (np.bincount(group, minlength=len(cells)) > 0).all()  # no empty cell
        assert np.array_equal(sig, cells[group])  # every row sits in its own cell
        assert np.array_equal(group[first], np.arange(len(cells)))

    def test_matches_structured_unique(self, rng):
        # The same cells and members as a structured np.unique(axis=0)
        # over the rows, each first row the lowest member; the cells
        # come in byte order.
        signatures = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 7))
        uniq, inverse = np.unique(signatures, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        expected = {
            uniq[g].tobytes(): np.flatnonzero(inverse == g).tolist()
            for g in range(uniq.shape[0])
        }
        cells, first, group = unique_signatures(signatures)
        grouped = members(group, len(cells))
        assert dict(zip((cell.tobytes() for cell in cells), grouped)) == expected
        assert [cell.tobytes() for cell in cells] == sorted(expected)
        assert first.tolist() == [rows[0] for rows in grouped]
        assert first.dtype == np.intp and group.dtype == np.intp

    def test_empty_inputs(self):
        cells, first, group = unique_signatures(np.empty((0, 4), dtype=np.int8))
        assert cells.shape == (0, 4) and first.size == 0 and group.size == 0
        cells, first, group = unique_signatures(np.empty((3, 0), dtype=np.int8))
        assert [cell.tobytes() for cell in cells] == [b""]
        assert first.tolist() == [0]
        assert group.tolist() == [0, 0, 0]

    def test_zero_hyperplanes_single_group(self):
        cells, __, group = unique_signatures(np.empty((7, 0), dtype=np.int8))
        assert len(cells) == 1
        assert members(group, 1) == [list(range(7))]

    def test_cells_touched_counts_groups(self, rng):
        points = rng.random((100, 2))
        normals = rng.normal(size=(5, 2))
        sig = signature_matrix(points, normals)
        cells, __, __ = unique_signatures(sig)
        assert len(cells) == len({row.tobytes() for row in sig})


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
        cells, __, __ = unique_signatures(signature_matrix(points, normals))
        assert len(cells) <= max_cells_bound(6, 2)

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            max_cells_bound(-1, 2)
