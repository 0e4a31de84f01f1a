"""Computational-geometry substrates used by the improvement-query index."""

from repro.geometry.arrangement import (
    cells_touched,
    group_by_signature,
    max_cells_bound,
    signature_matrix,
)
from repro.geometry.hyperplane import Hyperplane, pairwise_normals, side_of, sides_of

__all__ = [
    "Hyperplane",
    "pairwise_normals",
    "side_of",
    "sides_of",
    "signature_matrix",
    "group_by_signature",
    "cells_touched",
    "max_cells_bound",
]
